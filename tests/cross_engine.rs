//! The central correctness property of the reproduction: for every one of
//! the 22 TPC-H queries, the Hive engine, the PDW engine, and the
//! single-node reference executor produce identical answers on the same
//! generated data — so the performance comparison compares equals.

use elephants::cluster::Params;
use elephants::hive::{load_warehouse, HiveEngine};
use elephants::pdw::{load_pdw, PdwEngine};
use elephants::relational::execute;
use elephants::relational::testing::assert_rows_match;
use elephants::tpch::{generate, GenConfig};

const SIM_SCALE: f64 = 0.008;
const K: f64 = 250.0 / 0.008;

fn engines() -> (HiveEngine, PdwEngine, elephants::relational::Catalog) {
    let catalog = generate(&GenConfig::new(SIM_SCALE));
    let params = Params::paper_dss().scaled(K);
    let (warehouse, _) = load_warehouse(&catalog, &params, None).expect("hive load");
    let (pdw_cat, _) = load_pdw(&catalog, &params);
    (HiveEngine::new(warehouse), PdwEngine::new(pdw_cat), catalog)
}

#[test]
fn all_22_queries_agree_across_engines() {
    let (hive, pdw, catalog) = engines();
    for q in 1..=elephants::tpch::QUERY_COUNT {
        let plan = elephants::tpch::query(q);
        let (_, reference) = execute(&plan, &catalog);
        let hive_run = hive.run_query(&plan).unwrap_or_else(|e| {
            panic!("hive failed Q{q}: {e}");
        });
        assert_rows_match(&format!("hive Q{q}"), &hive_run.rows, &reference);
        let pdw_run = pdw.run_query(&plan);
        assert_rows_match(&format!("pdw Q{q}"), &pdw_run.rows, &reference);
        // And the headline: PDW is faster on every query (Table 3 shows no
        // exception at any scale factor).
        assert!(
            pdw_run.total_secs < hive_run.total_secs,
            "Q{q}: pdw {:.0}s must beat hive {:.0}s",
            pdw_run.total_secs,
            hive_run.total_secs
        );
    }
}

/// The engines' strategy choices are data-dependent (map-join thresholds,
/// bucketing, chain ordering); equality must hold at other sim scales too,
/// not just the one the main test uses.
#[test]
fn representative_queries_agree_at_a_second_scale() {
    let catalog = generate(&GenConfig::new(0.02));
    let params = Params::paper_dss().scaled(16000.0 / 0.02);
    let (warehouse, _) = load_warehouse(&catalog, &params, None).expect("hive load");
    let (pdw_cat, _) = load_pdw(&catalog, &params);
    let hive = HiveEngine::new(warehouse);
    let pdw = PdwEngine::new(pdw_cat);
    for q in [1usize, 5, 12, 17, 21, 22] {
        let plan = elephants::tpch::query(q);
        let (_, reference) = execute(&plan, &catalog);
        let h = hive.run_query(&plan).expect("hive");
        assert_rows_match(&format!("hive Q{q} @0.02"), &h.rows, &reference);
        let p = pdw.run_query(&plan);
        assert_rows_match(&format!("pdw Q{q} @0.02"), &p.rows, &reference);
    }
}

/// The DES port moved PDW's step makespans from closed-form arithmetic
/// into `cluster::exec` phases on the simkit event loop. Timing is allowed
/// to change; answers are not: rows must be byte-identical run-to-run and
/// match the reference executor, and the span trace must be consistent
/// with the reported totals.
#[test]
fn pdw_answers_unchanged_by_des_port() {
    let (_, pdw, catalog) = engines();
    for q in [1usize, 5, 6, 19] {
        let plan = elephants::tpch::query(q);
        let (_, reference) = execute(&plan, &catalog);
        let a = pdw.run_query(&plan);
        let b = pdw.run_query(&plan);
        // Byte-identical rows across runs: execution on the DES is
        // deterministic and never perturbs the data path.
        assert_eq!(
            format!("{:?}", a.rows),
            format!("{:?}", b.rows),
            "Q{q}: PDW rows must be byte-identical across runs"
        );
        assert_eq!(a.total_secs, b.total_secs, "Q{q}: timing is deterministic");
        assert_rows_match(&format!("pdw Q{q} (DES path)"), &a.rows, &reference);
        // StepReport is a derived view over the trace: same count, same
        // durations, and the step sum is the query total (steps serial).
        assert_eq!(a.steps.len(), a.trace.spans.len());
        let step_sum: f64 = a.steps.iter().map(|s| s.secs).sum();
        assert!(
            (step_sum - a.total_secs).abs() < 1e-6 * a.total_secs.max(1.0),
            "Q{q}: serial steps must sum to the total ({step_sum} vs {})",
            a.total_secs
        );
        assert!(
            !a.resources.is_empty() && a.resources.iter().any(|r| r.busy_secs > 0.0),
            "Q{q}: resource reports must show work"
        );
    }
}

/// The substrate port moved MapReduce's map/shuffle/reduce timing from
/// engine-private resource bookkeeping onto `cluster::exec` phases — the
/// same code path PDW uses. As with the PDW port, timing may shift; Hive
/// answers may not: rows must be byte-identical run-to-run and match the
/// reference executor for every query the repro binaries emit, and every
/// job's span trace must carry the canonical map/shuffle/reduce phases
/// consistent with the reported phase boundaries.
#[test]
fn hive_answers_unchanged_by_substrate_port() {
    let (hive, _, catalog) = engines();
    for q in 1..=elephants::tpch::QUERY_COUNT {
        let plan = elephants::tpch::query(q);
        let (_, reference) = execute(&plan, &catalog);
        let a = hive.run_query(&plan).expect("hive");
        let b = hive.run_query(&plan).expect("hive");
        assert_eq!(
            format!("{:?}", a.rows),
            format!("{:?}", b.rows),
            "Q{q}: Hive rows must be byte-identical across runs"
        );
        assert_eq!(a.total_secs, b.total_secs, "Q{q}: timing is deterministic");
        assert_rows_match(&format!("hive Q{q} (substrate path)"), &a.rows, &reference);
        let mut real_jobs = 0;
        for job in &a.jobs {
            if job.report.spans.is_empty() {
                // Fixed-cost charges (fs-merge, planner overhead) are not MR
                // jobs and carry no trace.
                continue;
            }
            real_jobs += 1;
            let names: Vec<&str> = job.report.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                ["map", "shuffle", "reduce"],
                "Q{q} job {}: every job reports the three phases",
                job.label
            );
            // Spans carry the shared executor's absolute time; the report's
            // phase boundaries are job-relative. `start_secs` reconciles.
            assert!(
                (elephants::simkit::as_secs(job.report.spans[0].end)
                    - (job.report.start_secs + job.report.map_done))
                    .abs()
                    < 1e-9
                    && (elephants::simkit::as_secs(job.report.spans[2].end)
                        - (job.report.start_secs + job.report.total))
                        .abs()
                        < 1e-9,
                "Q{q} job {}: span ends must match the phase boundaries",
                job.label
            );
        }
        assert!(real_jobs > 0, "Q{q}: at least one traced MR job");
        let util = a.util();
        assert!(
            util.disk_busy > 0.0 || util.cpu_busy > 0.0,
            "Q{q}: the shared substrate must report resource time"
        );
    }
}

#[test]
fn ordered_outputs_respect_order_by() {
    // Q1's ORDER BY (returnflag, linestatus) must hold row-for-row on
    // every engine, not just as a set.
    let (hive, pdw, catalog) = engines();
    let plan = elephants::tpch::query(1);
    let (_, reference) = execute(&plan, &catalog);
    let h = hive.run_query(&plan).expect("hive");
    let p = pdw.run_query(&plan);
    assert!(elephants::relational::testing::rows_approx_eq_ordered(
        &h.rows, &reference, 1e-9
    ));
    assert!(elephants::relational::testing::rows_approx_eq_ordered(
        &p.rows, &reference, 1e-9
    ));
}

/// Both engines on colblock storage answer every query identically to the
/// reference executor, and block-level min/max pruning demonstrably skips
/// blocks where the predicates allow it. Hive prunes only predicates
/// written against the clustered column (it derives no implied
/// predicates — the paper's §3.3.4.1 gap), so Q19 prunes there only via
/// PDW's optimizer, which pushes the implied `p_size` bound into the part
/// scan.
#[test]
fn colblock_engines_agree_and_prune() {
    let catalog = generate(&GenConfig::new(SIM_SCALE));
    let params = Params::paper_dss().scaled(K);
    let (warehouse, _) = elephants::hive::load_warehouse_fmt(
        &catalog,
        &params,
        None,
        elephants::hive::StorageFormat::ColBlock,
    )
    .expect("hive colblock load");
    let hive = HiveEngine::new(warehouse);
    let (pdw_cat, _) = load_pdw(&catalog, &params);
    let pdw = PdwEngine::with_colblock(pdw_cat);
    for q in 1..=elephants::tpch::QUERY_COUNT {
        let plan = elephants::tpch::query(q);
        let (_, reference) = execute(&plan, &catalog);
        let h = hive.run_query(&plan).unwrap_or_else(|e| {
            panic!("hive colblock failed Q{q}: {e}");
        });
        assert_rows_match(&format!("hive colblock Q{q}"), &h.rows, &reference);
        let p = pdw.run_query(&plan);
        assert_rows_match(&format!("pdw colblock Q{q}"), &p.rows, &reference);
        let (hs, ps) = (h.scan_stats, p.scan_stats);
        assert!(
            hs.blocks_pruned < hs.blocks_total && ps.blocks_pruned < ps.blocks_total,
            "Q{q}: pruning must never eat the whole table"
        );
        if [6usize, 12].contains(&q) {
            assert!(hs.blocks_pruned > 0, "hive Q{q} should skip blocks: {hs:?}");
        }
        if [6usize, 12, 19].contains(&q) {
            assert!(ps.blocks_pruned > 0, "pdw Q{q} should skip blocks: {ps:?}");
        }
    }
}
