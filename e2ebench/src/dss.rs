//! `dss_tpch`: one `elephants_core::dss::run_dss` call running all 22
//! TPC-H queries on Hive (RCFile) and PDW at sim SF 0.02 for paper scales
//! 250 GB and 16 TB, with the paper's per-node disk capacity, on two
//! threads (one per scale). 250 GB keeps PDW in memory; 16 TB exercises the
//! disk path and Hive Q9's out-of-disk failure. The TPC-H data has no seed
//! argument: `run_dss` fixes seed 19920101 through `GenConfig::new`.

use crate::check::{artifact, median, table_rows, Checker};
use crate::trace::{Recorder, Span, WallProbe};
use crate::{ClusterTotals, Metrics};
use cluster::Params;
use elephants_core::dss::{paper_disk_capacity, peak_queue, run_dss, DssConfig, DssResults};
use elephants_core::QueryCell;
use hive::{load_warehouse, HiveEngine};
use pdw::{load_pdw, PdwEngine};
use relational::testing::{rows_approx_eq, DEFAULT_TOLERANCE};
use relational::{Catalog, Row};
use simkit::probe::Probe;
use simkit::UtilSummary;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use tpch::{generate, GenConfig};

const SIM_SCALE: f64 = 0.02;
const PAPER_SCALES: [f64; 2] = [250.0, 16_000.0];
/// Query executions per `run_dss` call: 22 queries × 2 engines × 2 scales.
const UNITS: f64 = (tpch::QUERY_COUNT * 2 * PAPER_SCALES.len()) as f64;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Per-engine metrics of the traced run, Hive then PDW.
const ENGINE_METRICS: [[&str; 7]; 2] = [
    [
        "hive.load_s",
        "hive.query_s",
        "hive.query_p50_s",
        "hive.query_max_s",
        "hive.kernel_s",
        "hive.plane_s",
        "hive.events",
    ],
    [
        "pdw.load_s",
        "pdw.query_s",
        "pdw.query_p50_s",
        "pdw.query_max_s",
        "pdw.kernel_s",
        "pdw.plane_s",
        "pdw.events",
    ],
];

fn config() -> DssConfig {
    DssConfig {
        sim_scale: SIM_SCALE,
        paper_scales: PAPER_SCALES.to_vec(),
        queries: Vec::new(),
        disk_capacity_per_node: Some(paper_disk_capacity()),
    }
}

/// The untraced run: `setup_s` from the public set-up calls, then
/// `run_dss` repeated for `seconds`.
pub fn measure(seconds: f64, checker: &mut Checker) -> Result<Metrics, String> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let catalog = generate(&GenConfig::new(SIM_SCALE));
        for ps in PAPER_SCALES {
            let (params, capacity) = scale_params(SIM_SCALE, ps);
            let warehouse =
                load_warehouse(&catalog, &params, Some(capacity)).expect("base data fits on disk");
            let pdw = load_pdw(&catalog, &params);
            drop((warehouse, pdw));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let reference = reference_answers(&generate(&GenConfig::new(SIM_SCALE)));

    let mut first: Option<String> = None;
    let walls = crate::repeat_for(seconds, || {
        let t = Instant::now();
        let res = run_dss(&config());
        let wall = t.elapsed().as_secs_f64();
        let cells = format!(
            "{:?}",
            res.runs.iter().map(|r| &r.cells).collect::<Vec<_>>()
        );
        match &first {
            None => {
                check_artifacts(&res, checker)?;
                check_hive_answers(&res, &reference, checker);
                first = Some(cells);
            }
            Some(want) => checker.expect(cells == *want, || {
                "a repeated run_dss call rendered different cells".to_string()
            }),
        }
        Ok(wall)
    })?;
    eprintln!("dss_tpch: run_dss walls {walls:?}, set-ups {setups:?}");
    let wall = median(&walls);
    Ok(Metrics::from([
        ("wall_s", wall),
        ("units_per_s", UNITS / wall),
        ("setup_s", median(&setups)),
    ]))
}

fn scale_params(sim_scale: f64, paper_scale: f64) -> (Params, u64) {
    let k = paper_scale / sim_scale;
    let capacity = ((paper_disk_capacity() as f64 / k).round() as u64).max(1);
    (Params::paper_dss().scaled(k), capacity)
}

fn reference_answers(catalog: &Catalog) -> Vec<Vec<Row>> {
    (1..=tpch::QUERY_COUNT)
        .map(|q| relational::execute(&tpch::query(q), catalog).1)
        .collect()
}

/// Each cell as `compare_paper` renders it must equal the committed
/// `results/compare_paper_{250,16000}.txt`, cluster totals included. Hive
/// Q9 at 16 TB renders `--` there: the paper's out-of-disk failure.
fn check_artifacts(res: &DssResults, checker: &mut Checker) -> Result<(), String> {
    for run in &res.runs {
        let scale = run.paper_scale;
        let text = artifact(&format!("compare_paper_{scale:.0}.txt"))?;
        let rows = table_rows(&text);
        let (mut hive_u, mut pdw_u) = (UtilSummary::default(), UtilSummary::default());
        for cell in &run.cells {
            let label = format!("Q{}", cell.query);
            let row = rows.iter().find(|r| r[0] == label);
            let hive = cell
                .hive_secs
                .map_or("--".to_string(), |v| format!("{v:.0}"));
            let pdw = format!("{:.0}", cell.pdw_secs);
            checker.expect_eq(
                &format!("{label} @ {scale} GB (Hive, PDW)"),
                row.map(|r| (r[1].as_str(), r[4].as_str())),
                Some((&hive, &pdw)),
            );
            pdw_u.merge(&cell.pdw_util);
            if let Some(u) = &cell.hive_util {
                hive_u.merge(u);
            }
        }
        for (engine, u) in [("HIVE ", &hive_u), ("PDW  ", &pdw_u)] {
            let want = format!(
                "cluster totals @ {scale:.0} GB: {engine}{}",
                elephants_core::report::util_line(u)
            );
            checker.expect(text.lines().any(|l| l == want), || {
                format!("no line {want:?} in compare_paper_{scale:.0}.txt")
            });
        }
    }
    Ok(())
}

fn check_hive_answers(res: &DssResults, reference: &[Vec<Row>], checker: &mut Checker) {
    for run in &res.runs {
        for (q, hive_run) in &run.hive_runs {
            if let Some(r) = hive_run {
                checker.expect(
                    rows_approx_eq(&r.rows, &reference[q - 1], DEFAULT_TOLERANCE),
                    || {
                        format!(
                            "Hive Q{q} @ {} GB answer differs from the reference",
                            run.paper_scale
                        )
                    },
                );
            }
        }
    }
}

type DynProbe = Rc<RefCell<dyn Probe>>;

/// One scale's share of a pass.
struct ScaleOut {
    cells: Vec<QueryCell>,
    load_s: [f64; 2],
    query_s: [Vec<f64>; 2],
    kernel_s: [f64; 2],
    events: [Vec<u64>; 2],
    hive_rows: Vec<Option<Vec<Row>>>,
    pdw_rows: Vec<Vec<Row>>,
    totals: ClusterTotals,
    probe_events: u64,
    spans: Vec<Span>,
}

/// `run_dss`'s work for one scale, made through the public per-layer
/// calls so each can be timed, with a [`WallProbe`] on every query when
/// `probed`. Builds its cells exactly as `run_dss` does.
fn run_scale(
    catalog: &Catalog,
    sim_scale: f64,
    paper_scale: f64,
    queries: &[usize],
    probed: bool,
    mut rec: Recorder,
    parent: u64,
) -> ScaleOut {
    let (params, capacity) = scale_params(sim_scale, paper_scale);
    let at = format!("{paper_scale} GB");
    let ((warehouse, _), _, hive_load) = rec.time("hive.load_warehouse", &at, Some(parent), || {
        load_warehouse(catalog, &params, Some(capacity)).expect("base data fits on disk")
    });
    let hive = HiveEngine::new(warehouse);
    let ((pdw_catalog, _), _, pdw_load) = rec.time("pdw.load_pdw", &at, Some(parent), || {
        load_pdw(catalog, &params)
    });
    let pdw = PdwEngine::new(pdw_catalog);

    let mut out = ScaleOut {
        cells: Vec::new(),
        load_s: [hive_load, pdw_load],
        query_s: Default::default(),
        kernel_s: [0.0; 2],
        events: Default::default(),
        hive_rows: Vec::new(),
        pdw_rows: Vec::new(),
        totals: ClusterTotals::default(),
        probe_events: 0,
        spans: Vec::new(),
    };
    for &q in queries {
        let plan = tpch::query(q);
        let detail = format!("Q{q} @ {at}");
        let mut call = |engine: usize, name: &str, f: &mut dyn FnMut(Option<DynProbe>)| {
            let probe = probed.then(|| Rc::new(RefCell::new(WallProbe::default())));
            let dyn_probe = probe.clone().map(|p| p as DynProbe);
            let ((), id, secs) = rec.time(name, detail.as_str(), Some(parent), || f(dyn_probe));
            out.query_s[engine].push(secs);
            if let Some(p) = probe {
                let mut p = p.borrow_mut();
                out.kernel_s[engine] += p.inside.as_secs_f64();
                out.probe_events += p.events;
                rec.adopt(&mut p, id);
            }
        };
        let mut hive_run = None;
        call(0, "hive.run_query_probed", &mut |p| {
            hive_run = hive.run_query_probed(&plan, p).ok()
        });
        let mut pdw_run = None;
        call(1, "pdw.run_query_probed", &mut |p| {
            pdw_run = Some(pdw.run_query_probed(&plan, p))
        });
        let pdw_run = pdw_run.expect("the PDW call ran");
        out.cells.push(QueryCell {
            query: q,
            hive_secs: hive_run.as_ref().map(|r| r.total_secs),
            pdw_secs: pdw_run.total_secs,
            hive_util: hive_run.as_ref().map(|r| r.util()),
            pdw_util: pdw_run.trace.util(),
            hive_peak_queue: hive_run.as_ref().map(|r| peak_queue(&r.resources)),
            pdw_peak_queue: peak_queue(&pdw_run.resources),
        });
        if let Some(r) = &hive_run {
            out.events[0].push(r.events_executed);
            out.totals.add(&r.resources);
        }
        out.events[1].push(pdw_run.events_executed);
        out.totals.add(&pdw_run.resources);
        out.hive_rows.push(hive_run.map(|r| r.rows));
        out.pdw_rows.push(pdw_run.rows);
    }
    out.spans = rec.spans;
    out
}

/// One pass over both scales on two threads, as `run_dss` runs them.
fn run_pass(
    catalog: &Catalog,
    sim_scale: f64,
    queries: &[usize],
    probed: bool,
    epoch: Instant,
    rec: &mut Recorder,
) -> (f64, Vec<ScaleOut>) {
    let pass = rec.open(
        "dss.pass",
        if probed { "probed" } else { "timers only" },
        None,
    );
    let parent = pass.id;
    let thread_base = if probed { 20 } else { 10 };
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = PAPER_SCALES
            .iter()
            .enumerate()
            .map(|(i, &ps)| {
                let rec = Recorder::new(epoch, thread_base + i as u64);
                s.spawn(move || run_scale(catalog, sim_scale, ps, queries, probed, rec, parent))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scale worker panicked"))
            .collect::<Vec<_>>()
    });
    (rec.close(pass), outs)
}

/// The traced run: the `run_dss` entry point once untraced, then a pass
/// with per-call timers only and a pass with the wall-clock probe too.
/// Both passes must reproduce the entry point's cells and each other's
/// kernel event counts exactly; the probed pass gives the per-layer split.
pub fn trace(epoch: Instant, checker: &mut Checker) -> Result<(Metrics, Vec<Span>), String> {
    let mut rec = Recorder::new(epoch, 1);
    let (entry, _, _) = rec.time("core.run_dss", "untraced", None, || run_dss(&config()));
    check_artifacts(&entry, checker)?;
    let (catalog, _, generate_s) = rec.time("tpch.generate", "SF 0.02", None, || {
        generate(&GenConfig::new(SIM_SCALE))
    });
    let queries: Vec<usize> = (1..=tpch::QUERY_COUNT).collect();
    let (timed_wall, timed) = run_pass(&catalog, SIM_SCALE, &queries, false, epoch, &mut rec);
    let (probed_wall, probed) = run_pass(&catalog, SIM_SCALE, &queries, true, epoch, &mut rec);
    let (reference, _, reference_s) = rec.time("relational.execute", "22 plans", None, || {
        reference_answers(&catalog)
    });

    for ((run, t), p) in entry.runs.iter().zip(&timed).zip(&probed) {
        let at = run.paper_scale;
        let hive_events: Vec<u64> = run
            .hive_runs
            .iter()
            .filter_map(|(_, r)| r.as_ref().map(|r| r.events_executed))
            .collect();
        checker.expect_eq(
            &format!("timed cells @ {at} GB"),
            format!("{:?}", t.cells),
            format!("{:?}", run.cells),
        );
        checker.expect_eq(
            &format!("probed cells @ {at} GB"),
            format!("{:?}", p.cells),
            format!("{:?}", run.cells),
        );
        checker.expect_eq(
            &format!("timed Hive events @ {at} GB"),
            &t.events[0],
            &hive_events,
        );
        checker.expect_eq(
            &format!("probed Hive events @ {at} GB"),
            &p.events[0],
            &hive_events,
        );
        checker.expect_eq(
            &format!("probed PDW events @ {at} GB"),
            &p.events[1],
            &t.events[1],
        );
        checker.expect_eq(
            &format!("probed resource totals @ {at} GB"),
            p.totals,
            t.totals,
        );
        for (i, want) in reference.iter().enumerate() {
            let q = i + 1;
            if let Some(rows) = &p.hive_rows[i] {
                checker.expect(rows_approx_eq(rows, want, DEFAULT_TOLERANCE), || {
                    format!("Hive Q{q} @ {at} GB answer differs from the reference")
                });
            }
            checker.expect(
                rows_approx_eq(&p.pdw_rows[i], want, DEFAULT_TOLERANCE),
                || format!("PDW Q{q} @ {at} GB answer differs from the reference"),
            );
        }
    }

    let mut m = Metrics::new();
    m.insert("tpch.generate_s", generate_s);
    m.insert("relational.reference_s", reference_s);
    m.insert("obs.trace_overhead_s", probed_wall - timed_wall);
    let mut totals = ClusterTotals::default();
    let mut kernel_s = 0.0;
    let mut events = 0;
    for (e, [load, query, p50, max, kernel, plane, count]) in ENGINE_METRICS.into_iter().enumerate()
    {
        let calls: Vec<f64> = probed
            .iter()
            .flat_map(|s| s.query_s[e].iter().copied())
            .collect();
        let query_s: f64 = calls.iter().sum();
        let in_spans: f64 = probed.iter().map(|s| s.kernel_s[e]).sum();
        let n: u64 = probed.iter().flat_map(|s| &s.events[e]).sum();
        m.insert(load, probed.iter().map(|s| s.load_s[e]).sum());
        m.insert(query, query_s);
        m.insert(p50, median(&calls));
        m.insert(max, calls.iter().copied().fold(0.0, f64::max));
        m.insert(kernel, in_spans);
        m.insert(plane, query_s - in_spans);
        m.insert(count, n as f64);
        kernel_s += in_spans;
        events += n;
    }
    for s in &probed {
        totals.merge(&s.totals);
    }
    totals.record(&mut m);
    m.insert("simkit.events", events as f64);
    m.insert("simkit.ns_per_event", kernel_s / events as f64 * 1e9);
    m.insert(
        "obs.probe_events",
        probed.iter().map(|s| s.probe_events).sum::<u64>() as f64,
    );

    let mut spans = rec.spans;
    for s in timed.into_iter().chain(probed) {
        spans.extend(s.spans);
    }
    Ok((m, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated counts repeat exactly from pass to pass, probed or not.
    #[test]
    fn simulated_counts_repeat_across_passes() {
        let catalog = generate(&GenConfig::new(0.002));
        let epoch = Instant::now();
        let queries = [1, 6, 9];
        let mut rec = Recorder::new(epoch, 1);
        let (_, a) = run_pass(&catalog, 0.002, &queries, false, epoch, &mut rec);
        let (_, b) = run_pass(&catalog, 0.002, &queries, true, epoch, &mut rec);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", a.cells), format!("{:?}", b.cells));
            assert_eq!(a.events, b.events);
            assert_eq!(a.totals, b.totals);
            assert!(b.probe_events > 0 && a.probe_events == 0);
            assert!(b.kernel_s.iter().all(|&k| k > 0.0));
        }
        // Hive Q9 runs out of disk at 16 TB, so that scale has one Hive
        // event count fewer.
        assert_eq!(a[0].events[0].len(), 3);
        assert_eq!(a[1].events[0].len(), 2);
    }
}
