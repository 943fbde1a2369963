//! End-to-end and per-layer host-time benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <dss_tpch|ycsb_a|ycsb_c> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload calls the same `elephants_core` entry point the committed
//! `results/` artifacts come from, checks every output against its
//! reference, and prints one JSON object as its last line of stdout.
//! `--trace 0` repeats the entry-point call for `--seconds` and reports the
//! end-to-end metrics (medians over the repetitions). `--trace 1` re-runs
//! the call's work through the public per-layer calls with host-time spans
//! and a wall-clock probe attached, reports the per-layer metrics, checks
//! that tracing left every simulated number unchanged, and writes the
//! spans to `e2ebench/out/`. See `e2ebench/README.md` for which layer each
//! metric belongs to and which end-to-end metric it should move.

mod check;
mod dss;
mod serving;
mod trace;

use check::Checker;
use simkit::resource::ResourceReport;
use simkit::ResKind;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// Metrics of the untraced run: what a user of the reproduction waits for.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of the traced run. Every workload reports every one; a layer
/// the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("tpch.generate_s", "s"),
    ("hive.load_s", "s"),
    ("pdw.load_s", "s"),
    ("hive.query_s", "s"),
    ("hive.query_p50_s", "s"),
    ("hive.query_max_s", "s"),
    ("pdw.query_s", "s"),
    ("pdw.query_p50_s", "s"),
    ("pdw.query_max_s", "s"),
    ("hive.plane_s", "s"),
    ("pdw.plane_s", "s"),
    ("hive.kernel_s", "s"),
    ("pdw.kernel_s", "s"),
    ("hive.events", "count"),
    ("pdw.events", "count"),
    ("relational.reference_s", "s"),
    ("sqlengine.setup_s", "s"),
    ("docstore.setup_s", "s"),
    ("sqlengine.drive_s", "s"),
    ("docstore.drive_s", "s"),
    ("simkit.events", "count"),
    ("simkit.ns_per_event", "ns"),
    ("simkit.arena_peak", "count"),
    ("ycsb.ops", "count"),
    ("ycsb.host_us_per_op", "us"),
    ("sqlengine.hit_rate", "ratio"),
    ("docstore.write_lock_frac", "ratio"),
    ("cluster.disk_busy_s", "sim_s"),
    ("cluster.cpu_busy_s", "sim_s"),
    ("cluster.net_busy_s", "sim_s"),
    ("cluster.queue_wait_s", "sim_s"),
    ("obs.probe_events", "count"),
    ("obs.trace_overhead_s", "s"),
];

/// Simulated resource totals from a run's `ResourceReport`s.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusterTotals {
    pub disk_busy: f64,
    pub cpu_busy: f64,
    pub net_busy: f64,
    pub queue_wait: f64,
}

impl ClusterTotals {
    pub fn add(&mut self, reports: &[ResourceReport]) {
        for r in reports {
            match r.kind {
                Some(ResKind::Disk) => self.disk_busy += r.busy_secs,
                Some(ResKind::Cpu) => self.cpu_busy += r.busy_secs,
                Some(ResKind::Net) => self.net_busy += r.busy_secs,
                None => {}
            }
            self.queue_wait += r.mean_queue_wait_secs * r.completions as f64 + r.pending_wait_secs;
        }
    }

    pub fn merge(&mut self, o: &ClusterTotals) {
        self.disk_busy += o.disk_busy;
        self.cpu_busy += o.cpu_busy;
        self.net_busy += o.net_busy;
        self.queue_wait += o.queue_wait;
    }

    pub fn record(&self, m: &mut Metrics) {
        m.insert("cluster.disk_busy_s", self.disk_busy);
        m.insert("cluster.cpu_busy_s", self.cpu_busy);
        m.insert("cluster.net_busy_s", self.net_busy);
        m.insert("cluster.queue_wait_s", self.queue_wait);
    }
}

/// Runs `rep`, which returns the host seconds of one entry-point call,
/// until the next call would end past `seconds`; always at least once.
pub fn repeat_for(
    seconds: f64,
    mut rep: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(rep()?);
        if start.elapsed().as_secs_f64() + check::median(&walls) > seconds {
            return Ok(walls);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    DssTpch,
    YcsbA,
    YcsbC,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::DssTpch,
        seed: serving::FIGURE_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "dss_tpch" => Workload::DssTpch,
                    "ycsb_a" => Workload::YcsbA,
                    "ycsb_c" => Workload::YcsbC,
                    _ => return Err(bad("dss_tpch, ycsb_a or ycsb_c")),
                })
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

fn run(
    args: &Args,
    checker: &mut Checker,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (metrics, names): (Metrics, &[(&str, &str)]) = if args.trace {
        let epoch = Instant::now();
        let (metrics, spans) = match args.workload {
            Workload::DssTpch => dss::trace(epoch, checker)?,
            wl => serving::trace(wl, args.seed, epoch, checker)?,
        };
        let path = std::path::PathBuf::from(format!(
            "{}/out/{}-seed{}.trace.json",
            env!("CARGO_MANIFEST_DIR"),
            name(args.workload),
            args.seed
        ));
        trace::write_chrome(&path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", spans.len(), path.display());
        (metrics, &PER_LAYER)
    } else {
        let mut metrics = match args.workload {
            Workload::DssTpch => dss::measure(args.seconds, checker)?,
            wl => serving::measure(wl, args.seed, args.seconds, checker)?,
        };
        metrics.insert("peak_rss_mb", trace::peak_rss_mb()?);
        (metrics, &END_TO_END)
    };
    if let Some(extra) = metrics.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    names
        .iter()
        .map(|&(n, unit)| {
            let v = metrics.get(n).copied().unwrap_or(0.0);
            if v.is_finite() {
                Ok((n, v, unit))
            } else {
                Err(format!("metric {n} is {v}"))
            }
        })
        .collect()
}

fn name(w: Workload) -> &'static str {
    match w {
        Workload::DssTpch => "dss_tpch",
        Workload::YcsbA => "ycsb_a",
        Workload::YcsbC => "ycsb_c",
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::default();
    let metrics = match run(&args, &mut checker) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = name(args.workload);
    for (n, v, unit) in &metrics {
        println!("{wl} {n} = {v} {unit}");
    }
    println!(
        "{wl} failed_frac = {} ({} of {} outputs disagree with their reference)",
        checker.failed as f64 / checker.attempted.max(1) as f64,
        checker.failed,
        checker.attempted
    );
    let correct = checker.failed == 0 && checker.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, unit)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload ycsb_c --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::YcsbC);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(args("--workload dss_tpch").unwrap().seed, 42);
        for bad in [
            "",
            "--workload tpcc",
            "--workload ycsb_a --trace 2",
            "--workload ycsb_a --seconds 0",
            "--workload ycsb_a --seed -1",
            "--workload ycsb_a --seed",
            "--workload ycsb_a --verbose 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
