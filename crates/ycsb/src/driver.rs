//! The client harness: throttled threads, warm-up, latency measurement.
//!
//! YCSB methodology (§3.4.3): the user sets a *target* throughput; the
//! client threads throttle themselves to it; the benchmark reports the
//! *achieved* throughput and the average latency per operation type. The
//! target is raised until the achieved throughput stops increasing — those
//! (throughput, latency) pairs are Figures 2–6.

use crate::workload::{Op, OpGenerator, OpType, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::stats::{LatencyHistogram, OnlineStats};
use simkit::{secs, Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

type S = Sim<()>;
pub type Done = Box<dyn FnOnce(&mut S, u64)>;

/// Anything the driver can benchmark.
pub trait Store {
    /// Issue one operation; `done` receives a result value
    /// (`u64::MAX` = the store has crashed).
    fn do_op(self: Rc<Self>, sim: &mut S, op: Op, done: Done);
    /// Has the store crashed (stops the run)?
    fn crashed(&self) -> bool {
        false
    }
    /// Which shard/partition serves point ops on `key`, if the store is
    /// sharded (`None` for unsharded stores and stores that won't say).
    /// Purely informational — used to label observer samples.
    fn shard_of(&self, _key: u64) -> Option<usize> {
        None
    }
}

/// Passive observer of completed operations. `on_op` fires for every
/// completed op — warm-up included, so observers see the full run and can
/// window it themselves — with the op's type label, the serving shard (when
/// the store is sharded), the issuing client thread's index (stable across
/// the run, so multi-tenant profiles can partition clients into tenants),
/// the completion time, and the measured latency. Observers get no handle
/// back into the simulation or the driver, so attaching one cannot change
/// throughput or latency results.
pub trait OpObserver {
    fn on_op(
        &mut self,
        ty: OpType,
        shard: Option<usize>,
        client: u32,
        at: SimTime,
        latency: SimTime,
    );
}

/// One benchmark run's configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub target_ops_per_sec: f64,
    /// Client threads (the paper: 8 nodes × 100 threads).
    pub threads: usize,
    pub warmup_secs: f64,
    pub measure_secs: f64,
    pub seed: u64,
    /// Records loaded before the run (already similitude-scaled).
    pub n_records: u64,
    pub max_scan_len: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            target_ops_per_sec: 1000.0,
            threads: 800,
            warmup_secs: 5.0,
            measure_secs: 10.0,
            seed: 42,
            n_records: 100_000,
            max_scan_len: 1000,
        }
    }
}

/// Per-operation-type latency summary (milliseconds).
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub count: u64,
    /// Standard error across measurement intervals (the error bars the
    /// paper plots).
    pub std_err_ms: f64,
}

/// Result of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub target_ops: f64,
    pub achieved_ops: f64,
    pub latencies: BTreeMap<OpType, LatencySummary>,
    pub crashed: bool,
}

struct Measure {
    hist: LatencyHistogram,
    interval_means: OnlineStats,
    cur_sum: f64,
    cur_n: u64,
}

impl Measure {
    fn new() -> Self {
        Measure {
            hist: LatencyHistogram::new(),
            interval_means: OnlineStats::new(),
            cur_sum: 0.0,
            cur_n: 0,
        }
    }

    fn tick(&mut self) {
        if self.cur_n > 0 {
            self.interval_means.push(self.cur_sum / self.cur_n as f64);
        }
        self.cur_sum = 0.0;
        self.cur_n = 0;
    }
}

struct DriverState {
    gen: OpGenerator,
    rng: StdRng,
    measures: BTreeMap<OpType, Measure>,
    completed_in_window: u64,
    crashed: bool,
    issued: u64,
}

struct Driver {
    store: Rc<dyn Store>,
    state: RefCell<DriverState>,
    observer: Option<Rc<RefCell<dyn OpObserver>>>,
    warm_start: SimTime,
    end: SimTime,
    interval: SimTime,
}

impl Driver {
    fn record(&self, start: SimTime, now: SimTime, client: u32, op: Op, result: u64) {
        let mut st = self.state.borrow_mut();
        if result == u64::MAX {
            st.crashed = true;
            return;
        }
        let lat = now - start;
        if let Some(obs) = &self.observer {
            obs.borrow_mut()
                .on_op(op.ty, self.store.shard_of(op.key), client, now, lat);
        }
        if now < self.warm_start || now > self.end {
            return;
        }
        st.completed_in_window += 1;
        let m = st.measures.entry(op.ty).or_insert_with(Measure::new);
        m.hist.record(lat);
        m.cur_sum += simkit::as_millis(lat);
        m.cur_n += 1;
    }
}

fn issue_loop(driver: Rc<Driver>, due: SimTime, client: u32, sim: &mut S) {
    if sim.now() >= driver.end || driver.store.crashed() || driver.state.borrow().crashed {
        return;
    }
    let op = {
        let mut st = driver.state.borrow_mut();
        st.issued += 1;
        let mut rng_op = {
            let st = &mut *st;
            st.gen.next_op(&mut st.rng)
        };
        // The driver owns append-key assignment so every store sees the
        // same monotone key sequence.
        if rng_op.ty == OpType::Insert {
            rng_op.key = st.gen.current_records() - 1;
        }
        rng_op
    };
    let start = sim.now();
    let d2 = driver.clone();
    driver.store.clone().do_op(
        sim,
        op,
        Box::new(move |sim, result| {
            d2.record(start, sim.now(), client, op, result);
            let next_due = (due + d2.interval).max(sim.now());
            let d3 = d2.clone();
            sim.schedule_at(
                next_due,
                Box::new(move |sim, _| issue_loop(d3, next_due, client, sim)),
            );
        }),
    );
}

/// Run one workload against a store inside `sim`. The caller must have
/// loaded `cfg.n_records` into the store already.
pub fn run_workload(
    sim: &mut S,
    store: Rc<dyn Store>,
    workload: Workload,
    cfg: &RunConfig,
) -> RunResult {
    run_workload_observed(sim, store, workload, cfg, None)
}

/// [`run_workload`] with an optional passive [`OpObserver`] attached.
/// The observer cannot influence the run: results are byte-identical with
/// and without one.
pub fn run_workload_observed(
    sim: &mut S,
    store: Rc<dyn Store>,
    workload: Workload,
    cfg: &RunConfig,
    observer: Option<Rc<RefCell<dyn OpObserver>>>,
) -> RunResult {
    let warm_start = secs(cfg.warmup_secs);
    let end = secs(cfg.warmup_secs + cfg.measure_secs);
    let driver = Rc::new(Driver {
        store,
        observer,
        state: RefCell::new(DriverState {
            gen: OpGenerator::new(workload, cfg.n_records, cfg.max_scan_len),
            rng: StdRng::seed_from_u64(cfg.seed),
            measures: BTreeMap::new(),
            completed_in_window: 0,
            crashed: false,
            issued: 0,
        }),
        warm_start,
        end,
        interval: secs(cfg.threads as f64 / cfg.target_ops_per_sec),
    });

    // 10-second interval ticks for std-err accounting (like the paper's
    // 60 × 10 s samples).
    let tick = secs(10.0_f64.min(cfg.measure_secs / 3.0));
    let mut t = warm_start + tick;
    while t <= end {
        let d = driver.clone();
        sim.schedule_at(
            t,
            Box::new(move |_, _| {
                for m in d.state.borrow_mut().measures.values_mut() {
                    m.tick();
                }
            }),
        );
        t += tick;
    }

    // Launch the client threads with staggered start offsets.
    for i in 0..cfg.threads {
        let d = driver.clone();
        let offset = (driver.interval / cfg.threads.max(1) as u64) * i as u64;
        sim.schedule_at(
            offset,
            Box::new(move |sim, _| issue_loop(d, sim.now(), i as u32, sim)),
        );
    }

    sim.run_until(&mut (), end + secs(5.0));

    let st = driver.state.borrow();
    let mut latencies = BTreeMap::new();
    for (ty, m) in &st.measures {
        latencies.insert(
            *ty,
            LatencySummary {
                mean_ms: simkit::as_millis(m.hist.mean() as SimTime),
                p95_ms: simkit::as_millis(m.hist.quantile(0.95)),
                p99_ms: simkit::as_millis(m.hist.quantile(0.99)),
                count: m.hist.count(),
                std_err_ms: m.interval_means.std_err(),
            },
        );
    }
    RunResult {
        target_ops: cfg.target_ops_per_sec,
        achieved_ops: st.completed_in_window as f64 / cfg.measure_secs,
        latencies,
        crashed: st.crashed || driver.store.crashed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store with a fixed 1 ms service time and unlimited parallelism.
    struct FastStore;
    impl Store for FastStore {
        fn do_op(self: Rc<Self>, sim: &mut S, _op: Op, done: Done) {
            sim.after(simkit::millis(1.0), move |sim, _| done(sim, 0));
        }
    }

    /// A store that saturates at 500 ops/s (one server, 2 ms service).
    struct SlowStore {
        server: simkit::ResourceId,
    }
    impl Store for SlowStore {
        fn do_op(self: Rc<Self>, sim: &mut S, _op: Op, done: Done) {
            sim.request(
                self.server,
                simkit::millis(2.0),
                Box::new(move |sim, _| done(sim, 0)),
            );
        }
    }

    #[test]
    fn achieves_target_when_underloaded() {
        let mut sim: S = Sim::new();
        let cfg = RunConfig {
            target_ops_per_sec: 2_000.0,
            threads: 50,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            n_records: 10_000,
            ..RunConfig::default()
        };
        let r = run_workload(&mut sim, Rc::new(FastStore), Workload::C, &cfg);
        assert!(
            (r.achieved_ops - 2_000.0).abs() / 2_000.0 < 0.05,
            "achieved {}",
            r.achieved_ops
        );
        let read = &r.latencies[&OpType::Read];
        assert!((read.mean_ms - 1.0).abs() < 0.05, "mean {}", read.mean_ms);
        assert!(!r.crashed);
    }

    #[test]
    fn saturates_below_target_when_overloaded() {
        let mut sim: S = Sim::new();
        let server = sim.add_resource("srv", 1);
        let cfg = RunConfig {
            target_ops_per_sec: 2_000.0, // capacity is only 500/s
            threads: 20,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            n_records: 10_000,
            ..RunConfig::default()
        };
        let r = run_workload(&mut sim, Rc::new(SlowStore { server }), Workload::C, &cfg);
        assert!(
            r.achieved_ops < 600.0,
            "can't exceed capacity: {}",
            r.achieved_ops
        );
        // Latency must have exploded (closed-loop queueing).
        assert!(r.latencies[&OpType::Read].mean_ms > 10.0);
    }

    #[test]
    fn latency_vs_throughput_curve_shape() {
        // As target rises, achieved rises then flattens; latency rises.
        let mut achieved = Vec::new();
        let mut lat = Vec::new();
        for target in [200.0, 400.0, 2_000.0] {
            let mut sim: S = Sim::new();
            let server = sim.add_resource("srv", 1);
            let cfg = RunConfig {
                target_ops_per_sec: target,
                threads: 20,
                warmup_secs: 1.0,
                measure_secs: 3.0,
                n_records: 10_000,
                ..RunConfig::default()
            };
            let r = run_workload(&mut sim, Rc::new(SlowStore { server }), Workload::C, &cfg);
            achieved.push(r.achieved_ops);
            lat.push(r.latencies[&OpType::Read].mean_ms);
        }
        assert!(achieved[1] > achieved[0] * 1.5, "{achieved:?}");
        assert!(achieved[2] < 600.0, "{achieved:?}");
        assert!(lat[2] > lat[0] * 2.0, "{lat:?}");
    }

    #[test]
    fn mixed_workload_reports_both_op_types() {
        let mut sim: S = Sim::new();
        let cfg = RunConfig {
            target_ops_per_sec: 1_000.0,
            threads: 10,
            warmup_secs: 0.5,
            measure_secs: 2.0,
            n_records: 10_000,
            ..RunConfig::default()
        };
        let r = run_workload(&mut sim, Rc::new(FastStore), Workload::A, &cfg);
        assert!(r.latencies.contains_key(&OpType::Read));
        assert!(r.latencies.contains_key(&OpType::Update));
        let n: u64 = r.latencies.values().map(|l| l.count).sum();
        assert!(n > 1_000);
    }
}
