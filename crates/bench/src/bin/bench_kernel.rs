//! Kernel perf-trajectory harness: REAL wall-clock event throughput of
//! the simulation kernel. Output is JSON on stdout (committed as
//! `results/BENCH_kernel.json`, schema-gated but not byte-diff gated:
//! timings are host-dependent by design — see PERFORMANCE.md for how to
//! read the trajectory).
//!
//! Sections of the artifact:
//!   * `workloads` — synthetic kernel stress runs. `drain` times popping a
//!     bulk-injected arrival trace (the scheduler's pop path alone);
//!     `timers` holds a large pending population of self-rescheduling
//!     timers; `queueing` is a closed queueing network hammering the
//!     resource grant/completion path.
//!   * `engine_points` — the same kernel doing real work: a PDW TPC-H Q5
//!     phase replay on `ClusterExec`, a YCSB workload-A serving run on
//!     Mongo-CS, and a saturated YCSB workload-C run on SQL-CS (the read
//!     path of the `ycsb_c` sweep). These are the numbers to watch across
//!     PRs: the synthetic loads alone can mislead, because the
//!     reproduction's workloads never hold more than about 900 pending
//!     events, while `drain` and `timers` hold 10^5–10^6.
//!   * `fanout` — the parallel sweep runner over per-seed replicas
//!     (serial vs parallel wall-clock; identical results asserted).
//!
//! `--smoke` shrinks every dimension for CI; `--iters N` sets the
//! best-of-N repeat count (default 3).

use std::rc::Rc;
use std::time::Instant;

use bench::{fanout, meta};
use cluster::{ClusterExec, Params};
use docstore::{MongoCluster, Sharding};
use elephants_core::serving::{ServingConfig, SystemKind};
use pdw::{load_pdw, PdwEngine};
use simkit::{ResourceId, Sim};
use sqlengine::SqlCluster;
use tpch::{generate, GenConfig};
use ycsb::driver::{run_workload, RunConfig, Store};
use ycsb::workload::Workload;

/// World state shared by the synthetic workloads.
struct World {
    fired: u64,
    reschedules_left: u64,
}

type K = Sim<World>;

/// splitmix64 finalizer: deterministic integer mixing in place of an RNG
/// (no random stream, so nothing to seed — every run is identical).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One self-rescheduling timer: fires, then reschedules itself with a new
/// pseudo-random delay while the shared budget lasts. Keeps the pending
/// population near-constant until the tail drains.
fn tick(sim: &mut K, id: u64, round: u64) {
    let delay = mix(id.wrapping_mul(0x0100_0000_01B3).wrapping_add(round)) % 1_000_000 + 1;
    sim.after(delay, move |s, w| {
        w.fired += 1;
        if w.reschedules_left > 0 {
            w.reschedules_left -= 1;
            tick(s, id, round + 1);
        }
    });
}

/// Pure dequeue stress: bulk-inject a pre-generated arrival trace of
/// `total` one-shot events (untimed — trace replay injects up front),
/// then time draining it. This isolates the queue's pop path at a
/// pending population far beyond any engine workload.
fn run_drain(total: u64) -> (u64, f64) {
    let mut sim = K::new();
    let mut w = World {
        fired: 0,
        reschedules_left: 0,
    };
    // ~500 ns mean spacing: a dense arrival trace spanning total/2 µs.
    let span = total.saturating_mul(500);
    for id in 0..total {
        let at = mix(id) % span + 1;
        sim.after(at, move |_s, w| w.fired += 1);
    }
    let t0 = Instant::now();
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "every injected arrival must fire");
    assert_eq!(sim.events_executed(), total);
    (total, secs)
}

/// Timer stress: `pending` concurrent timers, `total` events overall.
/// Returns (events executed, wall-clock seconds including scheduling).
fn run_timers(pending: u64, total: u64) -> (u64, f64) {
    let mut sim = K::new();
    let mut w = World {
        fired: 0,
        reschedules_left: total.saturating_sub(pending),
    };
    let t0 = Instant::now();
    for id in 0..pending {
        tick(&mut sim, id, 0);
    }
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "timer budget must be fully consumed");
    assert_eq!(sim.events_executed(), total);
    (total, secs)
}

/// One customer hop in the closed queueing network: request a
/// pseudo-random pool for a pseudo-random service time, and on completion
/// hop again while the shared budget lasts.
fn hop(sim: &mut K, pools: Rc<Vec<ResourceId>>, customer: u64, round: u64) {
    let h = mix(customer
        .wrapping_mul(0x0000_0100_0000_01B3)
        .wrapping_add(round));
    let r = pools[(h as usize) % pools.len()];
    let service = (h >> 32) % 9_900 + 100;
    sim.use_resource(r, service, move |s, w| {
        w.fired += 1;
        if w.reschedules_left > 0 {
            w.reschedules_left -= 1;
            hop(s, pools, customer, round + 1);
        }
    });
}

/// Closed queueing network: `customers` customers cycling over `pools`
/// 4-server pools until `total` completions have fired. Hammers the
/// grant/completion path.
fn run_queueing(customers: u64, pools: usize, total: u64) -> (u64, f64) {
    let mut sim = K::new();
    let pools: Rc<Vec<ResourceId>> =
        Rc::new((0..pools).map(|_| sim.add_resource("pool", 4)).collect());
    let mut w = World {
        fired: 0,
        reschedules_left: total.saturating_sub(customers),
    };
    let t0 = Instant::now();
    for c in 0..customers {
        hop(&mut sim, Rc::clone(&pools), c, 0);
    }
    sim.run(&mut w);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(w.fired, total, "queueing budget must be fully consumed");
    (sim.events_executed(), secs)
}

/// Best-of-N wall-clock over a workload closure returning (events, secs).
fn best_of(iters: usize, f: impl Fn() -> (u64, f64)) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..iters.max(1) {
        let (e, s) = f();
        events = e;
        best = best.min(s);
    }
    (events, best)
}

/// PDW TPC-H Q5 phase replay: record the resolved plan once, then replay
/// its phases on a fresh `ClusterExec` per iteration. This is the kernel
/// doing engine-grade work — phase barriers, per-node disk/CPU/NIC
/// requests — rather than synthetic ticks.
fn pdw_q5_point(sf: f64, paper: f64, iters: usize) -> (u64, f64) {
    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(paper / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let engine = PdwEngine::new(pdwcat);
    let (_, phases) = engine.run_query_recorded(&tpch::query(5));
    best_of(iters, || {
        let mut exec = ClusterExec::new(Params::paper_dss().scaled(paper / sf));
        let t0 = Instant::now();
        for ph in &phases {
            exec.run(ph.clone());
        }
        (exec.events_executed(), t0.elapsed().as_secs_f64())
    })
}

/// One YCSB serving run of `workload` at `target` ops/s on `system`,
/// built the way `core::serving::run_point` builds it. The timed region
/// is the driven run only: many small events around a pending population
/// of roughly one event per client thread.
fn ycsb_point(
    system: SystemKind,
    workload: Workload,
    target: f64,
    measure_secs: f64,
    iters: usize,
) -> (u64, f64) {
    let cfg = ServingConfig::default();
    best_of(iters, || {
        let params = cfg.params();
        let n = cfg.n_records();
        let warmup_secs = cfg.warmup_secs.min(measure_secs);
        let mut sim: Sim<()> = Sim::new();
        let store: Rc<dyn Store> = match system {
            SystemKind::SqlCs => {
                let sql = SqlCluster::build(&mut sim, &params);
                sql.load(n);
                sql.start_checkpoints(&mut sim, simkit::secs(warmup_secs + measure_secs));
                sql
            }
            SystemKind::MongoAs | SystemKind::MongoCs => {
                let sharding = if system == SystemKind::MongoAs {
                    Sharding::Range
                } else {
                    Sharding::Hash
                };
                let m = MongoCluster::build(&mut sim, &params, sharding);
                m.load(n);
                m
            }
        };
        let rc = RunConfig {
            target_ops_per_sec: target,
            threads: cfg.threads,
            warmup_secs,
            measure_secs,
            seed: cfg.seed,
            n_records: n,
            max_scan_len: 1000,
        };
        let t0 = Instant::now();
        run_workload(&mut sim, store, workload, &rc);
        (sim.events_executed(), t0.elapsed().as_secs_f64())
    })
}

/// Fan-out demo: the same per-seed timer replica sweep run serially and
/// through the parallel runner; asserts the results are identical, so the
/// artifact records measured proof that parallelism changes wall-clock
/// only.
fn fanout_section(jobs: usize, pending: u64, total: u64) -> (usize, usize, f64, f64) {
    let make_jobs = || -> Vec<Box<dyn FnOnce() -> (u64, f64) + Send>> {
        (0..jobs as u64)
            .map(|seed| {
                // Vary the replica shape a little per seed.
                let f: Box<dyn FnOnce() -> (u64, f64) + Send> =
                    Box::new(move || run_timers(pending + seed, total));
                f
            })
            .collect()
    };
    let threads = fanout::default_threads();
    let t0 = Instant::now();
    let serial = fanout::run_with_threads(make_jobs(), 1);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = fanout::run_with_threads(make_jobs(), threads);
    let parallel_secs = t0.elapsed().as_secs_f64();
    let ev = |r: &[(u64, f64)]| -> Vec<u64> { r.iter().map(|(e, _)| *e).collect() };
    assert_eq!(
        ev(&serial),
        ev(&parallel),
        "fan-out must not change results"
    );
    (jobs, threads, serial_secs, parallel_secs)
}

/// One JSON line `{ "name", ["note",] "events", "secs", "events_per_sec" }`.
fn point_json(name: &str, note: Option<&str>, (events, secs): (u64, f64), last: bool) {
    let note = note.map_or(String::new(), |n| format!(" \"note\": \"{n}\","));
    println!(
        "    {{ \"name\": \"{name}\",{note} \"events\": {events}, \"secs\": {secs:.4}, \
         \"events_per_sec\": {:.0} }}{}",
        events as f64 / secs,
        if last { "" } else { "," }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = bench::has_flag(&args, "--smoke");
    let iters = bench::arg_usize(&args, "--iters", if smoke { 1 } else { 3 });

    // Workload dimensions: the timer population is sized well past L2 so
    // the queue's memory locality matters; totals keep full runs short.
    let (t_pending, t_total) = if smoke {
        (2_048, 50_000)
    } else {
        (131_072, 2_000_000)
    };
    let t_pending = bench::arg_usize(&args, "--pending", t_pending as usize) as u64;
    let t_total = bench::arg_usize(&args, "--events", t_total as usize) as u64;
    let (q_customers, q_pools, q_total) = if smoke {
        (200, 8, 20_000)
    } else {
        (2_000, 16, 1_000_000)
    };
    let d_total = if smoke { 16_384 } else { 4_000_000 };
    let d_total = bench::arg_usize(&args, "--drain-events", d_total as usize) as u64;

    let drain = best_of(iters, || run_drain(d_total));
    let timers = best_of(iters, || run_timers(t_pending, t_total));
    let queueing = best_of(iters, || run_queueing(q_customers, q_pools, q_total));

    let pdw_q5 = if smoke {
        pdw_q5_point(0.01, 250.0, 1)
    } else {
        pdw_q5_point(0.02, 1000.0, iters)
    };
    let measure_secs = if smoke { 2.0 } else { 30.0 };
    let ycsb_a = ycsb_point(
        SystemKind::MongoCs,
        Workload::A,
        20_000.0,
        measure_secs,
        iters,
    );
    let ycsb_c = ycsb_point(
        SystemKind::SqlCs,
        Workload::C,
        160_000.0,
        measure_secs,
        iters,
    );

    let (fo_jobs, fo_threads, fo_serial, fo_parallel) = if smoke {
        fanout_section(4, 1_024, 10_000)
    } else {
        fanout_section(8, 16_384, 200_000)
    };

    // ---- JSON artifact --------------------------------------------------
    println!("{{");
    println!("  \"bench\": \"kernel\",");
    println!("  \"smoke\": {smoke},");
    println!("{},", meta::machine_json("  "));
    println!(
        "{},",
        meta::config_json("  ", iters, "best_of_n_wall_clock")
    );
    println!("  \"workloads\": [");
    point_json(
        "drain",
        Some(&format!(
            "pre-injected arrival trace, {d_total} events; timed region is the drain loop only"
        )),
        drain,
        false,
    );
    point_json(
        "timers",
        Some(&format!(
            "{t_pending} pending self-rescheduling timers, {t_total} events"
        )),
        timers,
        false,
    );
    point_json(
        "queueing",
        Some(&format!(
            "closed network: {q_customers} customers over {q_pools} 4-server pools, {q_total} completions"
        )),
        queueing,
        true,
    );
    println!("  ],");
    println!("  \"engine_points\": [");
    point_json("pdw_q5_phase_replay", None, pdw_q5, false);
    point_json(
        "ycsb_workload_a",
        Some("Mongo-CS, workload A at 20k ops/s"),
        ycsb_a,
        false,
    );
    point_json(
        "ycsb_workload_c",
        Some("SQL-CS, workload C at 160k ops/s"),
        ycsb_c,
        true,
    );
    println!("  ],");
    println!("  \"fanout\": {{");
    println!("    \"jobs\": {fo_jobs},");
    println!("    \"threads\": {fo_threads},");
    println!("    \"serial_secs\": {fo_serial:.4},");
    println!("    \"parallel_secs\": {fo_parallel:.4}");
    println!("  }}");
    println!("}}");
}
