//! Same-seed replay at engine level: real engine workloads — a PDW TPC-H
//! Q5 phase replay on `ClusterExec` and YCSB serving mixes across several
//! seeds — run twice must produce bit-identical results, probe streams
//! and event counts. Every byte-diffed artifact in `results/` rests on
//! this; if some engine path picks up an order that is not fixed by
//! `(time, scheduling order)` (a hash-map walk, a pointer compare), the
//! two runs of a pair diverge here first, named by the stream that moved.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{ClusterExec, Params};
use docstore::{MongoCluster, Sharding};
use elephants_core::serving::ServingConfig;
use pdw::{load_pdw, PdwEngine};
use simkit::probe::{Probe, ProbeEvent};
use simkit::Sim;
use tpch::{generate, GenConfig};
use ycsb::driver::{run_workload, RunConfig};
use ycsb::workload::Workload;

/// Probe that renders every event to a line; streams compare with `==`.
#[derive(Default)]
struct RecordingProbe(Vec<String>);

impl Probe for RecordingProbe {
    fn on_event(&mut self, ev: &ProbeEvent<'_>) {
        self.0.push(format!("{ev:?}"));
    }
}

/// TPC-H Q5 on the PDW engine: record the resolved plan, then replay its
/// phases on a probed `ClusterExec`. Returns the full probe stream plus
/// every scalar observable of the run.
fn q5_replay() -> (Vec<String>, Vec<u64>, u64, u64) {
    let sf = 0.01;
    let cat = generate(&GenConfig::new(sf));
    let params = Params::paper_dss().scaled(250.0 / sf);
    let (pdwcat, _) = load_pdw(&cat, &params);
    let engine = PdwEngine::new(pdwcat);
    let (_, phases) = engine.run_query_recorded(&tpch::query(5));
    assert!(!phases.is_empty(), "Q5 must resolve to at least one phase");

    let mut exec = ClusterExec::new(Params::paper_dss().scaled(250.0 / sf));
    let probe = Rc::new(RefCell::new(RecordingProbe::default()));
    exec.set_probe(Some(probe.clone()));
    let mut makespans = Vec::new();
    for ph in &phases {
        // Makespans in integer nanoseconds: exact comparison, no float slop.
        makespans.push((exec.run(ph.clone()) * 1e9).round() as u64);
    }
    let lines = std::mem::take(&mut probe.borrow_mut().0);
    (lines, makespans, exec.now(), exec.events_executed())
}

#[test]
fn q5_phase_replay_is_identical_run_to_run() {
    let first = q5_replay();
    let second = q5_replay();
    assert_eq!(first.1, second.1, "phase makespans diverged");
    assert_eq!(first.2, second.2, "final clock diverged");
    assert_eq!(first.3, second.3, "event count diverged");
    assert_eq!(
        first.0.len(),
        second.0.len(),
        "probe stream length diverged"
    );
    assert_eq!(first.0, second.0, "probe stream diverged");
}

/// One YCSB serving mix on a sharded Mongo cluster, probed. Returns the
/// probe stream and a digest of the run result (latency summaries in
/// `OpType` order).
fn ycsb_mix(seed: u64) -> (Vec<String>, String, u64, u64) {
    let cfg = ServingConfig::default();
    let params = cfg.params();
    let mut sim: Sim<()> = Sim::new();
    let probe = Rc::new(RefCell::new(RecordingProbe::default()));
    sim.set_probe(Some(probe.clone()));
    let m = MongoCluster::build(&mut sim, &params, Sharding::Hash);
    m.load(cfg.n_records());
    let rc = RunConfig {
        target_ops_per_sec: 5_000.0,
        threads: cfg.threads,
        warmup_secs: 0.5,
        measure_secs: 1.5,
        seed,
        n_records: cfg.n_records(),
        max_scan_len: 100,
    };
    let res = run_workload(&mut sim, m, Workload::A, &rc);
    let mut digest = format!(
        "target={} achieved_bits={} crashed={}",
        res.target_ops,
        res.achieved_ops.to_bits(),
        res.crashed
    );
    for (k, l) in &res.latencies {
        digest.push_str(&format!(" {k:?}={l:?}"));
    }
    let lines = std::mem::take(&mut probe.borrow_mut().0);
    (lines, digest, sim.now(), sim.events_executed())
}

#[test]
fn ycsb_mix_is_identical_run_to_run_across_seeds() {
    for seed in [1, 42, 20_120_827] {
        let first = ycsb_mix(seed);
        let second = ycsb_mix(seed);
        assert_eq!(first.1, second.1, "run digest diverged (seed {seed})");
        assert_eq!(first.2, second.2, "final clock diverged (seed {seed})");
        assert_eq!(first.3, second.3, "event count diverged (seed {seed})");
        assert_eq!(first.0, second.0, "probe stream diverged (seed {seed})");
    }
}
