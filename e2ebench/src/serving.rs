//! `ycsb_a` and `ycsb_c`: one `elephants_core::serving::sweep` call over
//! the three systems (SQL-CS, Mongo-AS, Mongo-CS) at three targets, with
//! the settings of the committed figures (`bench::figures::figure_config`):
//! k = 2500, 3 s warm-up, 6 s measured, 800 closed-loop simulated clients.
//! Workload A (50 % reads, 50 % updates) takes the write path: the SQL
//! lock table and checkpoints, and the Mongo global write lock. Workload C
//! (100 % reads) takes the read path only and saturates at 160k ops/s.
//! One host thread runs the sweep.

use crate::check::{artifact, median, table_rows, Checker};
use crate::trace::{Recorder, Span, WallProbe};
use crate::{ClusterTotals, Metrics, Workload};
use docstore::{MongoCluster, Sharding};
use elephants_core::serving::{sweep, ServingConfig, SweepPoint, SystemKind};
use simkit::resource::report;
use simkit::{ResourceId, Sim};
use sqlengine::SqlCluster;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use ycsb::driver::{run_workload_observed, RunConfig};
use ycsb::workload::{OpType, Workload as Mix};

/// The YCSB seed of the committed figures; any other seed skips only the
/// comparison with them.
pub const FIGURE_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Spec {
    mix: Mix,
    targets: [f64; 3],
    ops: &'static [OpType],
    figure: &'static str,
}

fn spec(w: Workload) -> Spec {
    match w {
        Workload::YcsbA => Spec {
            mix: Mix::A,
            targets: [5e3, 20e3, 40e3],
            ops: &[OpType::Read, OpType::Update],
            figure: "repro_fig4.txt",
        },
        Workload::YcsbC => Spec {
            mix: Mix::C,
            targets: [10e3, 40e3, 160e3],
            ops: &[OpType::Read],
            figure: "repro_fig2.txt",
        },
        Workload::DssTpch => unreachable!("dss_tpch is not a serving workload"),
    }
}

fn config(seed: u64) -> ServingConfig {
    ServingConfig {
        k: 2_500.0,
        warmup_secs: 3.0,
        measure_secs: 6.0,
        threads: 800,
        seed,
    }
}

/// YCSB operations completed inside the measured windows of `points`.
fn ops(cfg: &ServingConfig, points: &[SweepPoint]) -> u64 {
    points
        .iter()
        .map(|p| (p.achieved_ops * cfg.measure_secs).round() as u64)
        .sum()
}

/// The untraced run: `setup_s` from building and loading each system,
/// then `sweep` repeated for `seconds`.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let spec = spec(w);
    let cfg = config(seed);
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&cfg)).collect();
    let mut first: Option<Vec<SweepPoint>> = None;
    let walls = crate::repeat_for(seconds, || {
        let t = Instant::now();
        let points = sweep(&cfg, spec.mix, &spec.targets);
        let wall = t.elapsed().as_secs_f64();
        match &first {
            None => {
                check_points(&spec, seed, &points, checker)?;
                first = Some(points);
            }
            Some(want) => checker.expect_eq(
                "a repeated sweep call",
                format!("{points:?}"),
                format!("{want:?}"),
            ),
        }
        Ok(wall)
    })?;
    eprintln!("ycsb: sweep walls {walls:?}");
    let wall = median(&walls);
    let units = ops(&cfg, first.as_deref().unwrap_or_default());
    Ok(Metrics::from([
        ("wall_s", wall),
        ("units_per_s", units as f64 / wall),
        ("setup_s", median(&setups)),
    ]))
}

/// Host seconds to build and load all three systems, each in a fresh
/// simulation, as `run_point` does before driving one.
fn setup_once(cfg: &ServingConfig) -> f64 {
    let params = cfg.params();
    let n = cfg.n_records();
    let t = Instant::now();
    for system in SystemKind::all() {
        let mut sim: Sim<()> = Sim::new();
        match system {
            SystemKind::SqlCs => SqlCluster::build(&mut sim, &params).load(n),
            SystemKind::MongoAs => MongoCluster::build(&mut sim, &params, Sharding::Range).load(n),
            SystemKind::MongoCs => MongoCluster::build(&mut sim, &params, Sharding::Hash).load(n),
        }
    }
    t.elapsed().as_secs_f64()
}

/// A point as `bench::figures` renders its figure row.
fn render(spec: &Spec, p: &SweepPoint) -> Vec<String> {
    let mut row = vec![
        p.system.label().to_string(),
        format!("{:.0}", p.target_ops),
        format!("{:.0}", p.achieved_ops),
    ];
    for op in spec.ops {
        row.push(match p.latency(*op) {
            Some(l) => {
                let se = p.latency_stderr_ms.get(op).copied().unwrap_or(0.0);
                format!("{l:.1} ±{se:.1}")
            }
            None => "--".to_string(),
        });
    }
    row.push(if p.crashed { "CRASH" } else { "" }.to_string());
    row
}

/// With the figures' seed, every point must render exactly as its row of
/// the committed figure. With another seed the simulation draws different
/// keys, so the check is on what must hold whatever the draw: no system
/// crashes, every latency is positive, and a point the figure shows
/// keeping up with its target (within 1 %) keeps up within 2 %.
fn check_points(
    spec: &Spec,
    seed: u64,
    points: &[SweepPoint],
    checker: &mut Checker,
) -> Result<(), String> {
    let rows = table_rows(&artifact(spec.figure)?);
    for p in points {
        let what = format!("{} @ {:.0} ops/s", p.system.label(), p.target_ops);
        let got = render(spec, p);
        let Some(want) = rows.iter().find(|r| r[..2] == got[..2]) else {
            return Err(format!("{what}: no row in {}", spec.figure));
        };
        if seed == FIGURE_SEED {
            checker.expect_eq(&what, &got, want);
            continue;
        }
        checker.expect_eq(&format!("{what} crashed"), p.crashed, false);
        for op in spec.ops {
            let l = p.latency(*op).unwrap_or(0.0);
            checker.expect(l > 0.0, || format!("{what}: {} latency {l}", op.label()));
        }
        let figure_achieved: f64 = want[2].parse().map_err(|_| format!("{what}: bad row"))?;
        if figure_achieved >= 0.99 * p.target_ops {
            let ratio = p.achieved_ops / p.target_ops;
            checker.expect((0.98..=1.02).contains(&ratio), || {
                format!("{what}: achieved {:.0} misses its target", p.achieved_ops)
            });
        }
    }
    Ok(())
}

/// One traced point: the host cost of each layer call and the simulated
/// statistics the speed of the host must never move.
struct PointOut {
    point: SweepPoint,
    setup_s: f64,
    drive_s: f64,
    events: u64,
    arena_peak: usize,
    hit_rate: Option<f64>,
    write_lock_frac: Option<f64>,
    totals: ClusterTotals,
    probe_events: u64,
}

/// `run_point`'s work for one point, made through the public per-layer
/// calls so each can be timed, with a [`WallProbe`] on the simulation when
/// `probed`. Builds its point exactly as `run_point` does.
fn run_point_traced(
    cfg: &ServingConfig,
    system: SystemKind,
    mix: Mix,
    target: f64,
    probed: bool,
    rec: &mut Recorder,
    parent: u64,
) -> PointOut {
    let params = cfg.params();
    let n = cfg.n_records();
    let run_cfg = RunConfig {
        target_ops_per_sec: target,
        threads: cfg.threads,
        warmup_secs: cfg.warmup_secs,
        measure_secs: cfg.measure_secs,
        seed: cfg.seed,
        n_records: n,
        max_scan_len: 1000,
    };
    let detail = format!("{} @ {target:.0} ops/s", system.label());
    let mut sim: Sim<()> = Sim::new();
    let probe = probed.then(|| Rc::new(RefCell::new(WallProbe::default())));
    if let Some(p) = &probe {
        sim.set_probe(Some(p.clone()));
    }
    let elapsed = cfg.warmup_secs + cfg.measure_secs;
    let (result, setup_s, drive_s, hit_rate, write_lock_frac, ids) = match system {
        SystemKind::SqlCs => {
            let (sql, _, setup_s) = rec.time("sqlengine.build+load", &detail, Some(parent), || {
                let sql = SqlCluster::build(&mut sim, &params);
                sql.load(n);
                sql
            });
            sql.start_checkpoints(&mut sim, simkit::secs(elapsed));
            let (result, _, drive_s) =
                rec.time("ycsb.run_workload_observed", &detail, Some(parent), || {
                    run_workload_observed(&mut sim, sql.clone(), mix, &run_cfg, None)
                });
            let mut ids = resource_ids(&sql.cluster);
            ids.extend(&sql.log_disks);
            (result, setup_s, drive_s, Some(sql.hit_rate()), None, ids)
        }
        SystemKind::MongoAs | SystemKind::MongoCs => {
            let sharding = if system == SystemKind::MongoAs {
                Sharding::Range
            } else {
                Sharding::Hash
            };
            let (m, _, setup_s) = rec.time("docstore.build+load", &detail, Some(parent), || {
                let m = MongoCluster::build(&mut sim, &params, sharding);
                m.load(n);
                m
            });
            let (result, _, drive_s) =
                rec.time("ycsb.run_workload_observed", &detail, Some(parent), || {
                    run_workload_observed(&mut sim, m.clone(), mix, &run_cfg, None)
                });
            let ids = resource_ids(&m.cluster);
            let lock = m.write_lock_fraction(elapsed);
            (result, setup_s, drive_s, None, Some(lock), ids)
        }
    };
    let mut totals = ClusterTotals::default();
    totals.add(&report(&sim, &ids));
    PointOut {
        point: SweepPoint {
            system,
            workload: mix,
            target_ops: target,
            achieved_ops: result.achieved_ops,
            latency_ms: result
                .latencies
                .iter()
                .map(|(t, l)| (*t, l.mean_ms))
                .collect(),
            latency_stderr_ms: result
                .latencies
                .iter()
                .map(|(t, l)| (*t, l.std_err_ms))
                .collect(),
            crashed: result.crashed,
        },
        setup_s,
        drive_s,
        events: sim.events_executed(),
        arena_peak: sim.arena_capacity(),
        hit_rate,
        write_lock_frac,
        totals,
        probe_events: probe.map_or(0, |p| p.borrow().events),
    }
}

fn resource_ids(c: &cluster::Cluster) -> Vec<ResourceId> {
    c.nodes
        .iter()
        .flat_map(|n| {
            [n.cpu, n.nic_send, n.nic_recv]
                .into_iter()
                .chain(n.disks.iter().copied())
        })
        .collect()
}

/// Every point of a sweep, in `sweep`'s order, through [`run_point_traced`].
fn run_pass(
    cfg: &ServingConfig,
    mix: Mix,
    targets: &[f64],
    probed: bool,
    rec: &mut Recorder,
) -> (f64, Vec<PointOut>) {
    let pass = rec.open(
        "ycsb.pass",
        if probed { "probed" } else { "timers only" },
        None,
    );
    let parent = pass.id;
    let outs = SystemKind::all()
        .into_iter()
        .flat_map(|s| targets.iter().map(move |&t| (s, t)))
        .map(|(s, t)| run_point_traced(cfg, s, mix, t, probed, rec, parent))
        .collect();
    (rec.close(pass), outs)
}

/// The traced run: the `sweep` entry point once untraced, then a pass with
/// per-call timers only and a pass with a probe on every simulation too.
/// Both passes must reproduce the entry point's points, and each other's
/// event counts and simulated statistics, exactly.
pub fn trace(
    w: Workload,
    seed: u64,
    epoch: Instant,
    checker: &mut Checker,
) -> Result<(Metrics, Vec<Span>), String> {
    let spec = spec(w);
    let cfg = config(seed);
    let mut rec = Recorder::new(epoch, 1);
    let (entry, _, _) = rec.time("core.serving.sweep", "untraced", None, || {
        sweep(&cfg, spec.mix, &spec.targets)
    });
    check_points(&spec, seed, &entry, checker)?;
    let (timed_wall, timed) = run_pass(&cfg, spec.mix, &spec.targets, false, &mut rec);
    let (probed_wall, probed) = run_pass(&cfg, spec.mix, &spec.targets, true, &mut rec);

    let sim_stats = |o: &PointOut| {
        format!(
            "{:?}",
            (
                &o.point,
                o.events,
                o.arena_peak,
                o.hit_rate,
                o.write_lock_frac,
                o.totals
            )
        )
    };
    for ((e, t), p) in entry.iter().zip(&timed).zip(&probed) {
        let what = format!("{} @ {:.0} ops/s", e.system.label(), e.target_ops);
        checker.expect_eq(
            &format!("timed {what}"),
            format!("{:?}", t.point),
            format!("{e:?}"),
        );
        checker.expect_eq(&format!("probed {what}"), sim_stats(p), sim_stats(t));
    }

    let sum = |f: &dyn Fn(&PointOut) -> Option<f64>| probed.iter().filter_map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&PointOut) -> Option<f64>| {
        let v: Vec<f64> = probed.iter().filter_map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let is_sql = |o: &PointOut| o.point.system == SystemKind::SqlCs;
    let drive_s = sum(&|o| Some(o.drive_s));
    let events = sum(&|o| Some(o.events as f64));
    let ops = ops(&cfg, &entry) as f64;
    let mut totals = ClusterTotals::default();
    for o in &probed {
        totals.merge(&o.totals);
    }
    let mut m = Metrics::from([
        (
            "sqlengine.setup_s",
            sum(&|o| is_sql(o).then_some(o.setup_s)),
        ),
        (
            "docstore.setup_s",
            sum(&|o| (!is_sql(o)).then_some(o.setup_s)),
        ),
        (
            "sqlengine.drive_s",
            sum(&|o| is_sql(o).then_some(o.drive_s)),
        ),
        (
            "docstore.drive_s",
            sum(&|o| (!is_sql(o)).then_some(o.drive_s)),
        ),
        ("simkit.events", events),
        ("simkit.ns_per_event", drive_s / events * 1e9),
        (
            "simkit.arena_peak",
            probed.iter().map(|o| o.arena_peak).max().unwrap_or(0) as f64,
        ),
        ("ycsb.ops", ops),
        ("ycsb.host_us_per_op", drive_s / ops * 1e6),
        ("sqlengine.hit_rate", mean(&|o| o.hit_rate)),
        ("docstore.write_lock_frac", mean(&|o| o.write_lock_frac)),
        ("obs.probe_events", sum(&|o| Some(o.probe_events as f64))),
        ("obs.trace_overhead_s", probed_wall - timed_wall),
    ]);
    totals.record(&mut m);
    Ok((m, rec.spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated counts repeat exactly from pass to pass, probed or not,
    /// and the timed pass reproduces the `sweep` entry point.
    #[test]
    fn simulated_counts_repeat_across_passes() {
        let cfg = ServingConfig {
            k: 20_000.0,
            warmup_secs: 0.5,
            measure_secs: 1.0,
            threads: 50,
            seed: 9,
        };
        let mut rec = Recorder::new(Instant::now(), 1);
        let targets = [2_000.0];
        let entry = sweep(&cfg, Mix::A, &targets);
        let (_, a) = run_pass(&cfg, Mix::A, &targets, false, &mut rec);
        let (_, b) = run_pass(&cfg, Mix::A, &targets, true, &mut rec);
        assert_eq!(a.len(), 3);
        for ((e, a), b) in entry.iter().zip(&a).zip(&b) {
            assert_eq!(format!("{e:?}"), format!("{:?}", a.point));
            assert_eq!(format!("{:?}", a.point), format!("{:?}", b.point));
            assert_eq!((a.events, a.arena_peak), (b.events, b.arena_peak));
            assert_eq!(
                (a.hit_rate, a.write_lock_frac),
                (b.hit_rate, b.write_lock_frac)
            );
            assert_eq!(a.totals, b.totals);
            assert!(a.events > 0 && b.probe_events > 0 && a.probe_events == 0);
        }
    }

    #[test]
    fn figure_rows_render_as_committed() {
        let spec = spec(Workload::YcsbC);
        let p = SweepPoint {
            system: SystemKind::SqlCs,
            workload: Mix::C,
            target_ops: 5e3,
            achieved_ops: 5001.2,
            latency_ms: [(OpType::Read, 1.46)].into(),
            latency_stderr_ms: [(OpType::Read, 0.05)].into(),
            crashed: false,
        };
        let rows = table_rows(&artifact(spec.figure).unwrap());
        let want = rows
            .iter()
            .find(|r| r[0] == "SQL-CS" && r[1] == "5000")
            .unwrap();
        assert_eq!(&render(&spec, &p), want);
    }
}
