#!/usr/bin/env bash
# The CI gate, runnable locally: formatting, lints (warnings are errors),
# the full test suite, and the committed-artifact diffs. The workflow in
# .github/workflows/ci.yml runs this script as its only gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== simlint"
# The determinism lint must pass on the tree (JSON diagnostics, one per
# line, feed the workflow's problem matcher so violations annotate PRs)...
cargo run -q -p simlint -- --format json
# ...every inline suppression must still suppress something (a stale allow
# is dead policy and rots silently otherwise)...
cargo run -q -p simlint -- --list-allows --strict >/dev/null
# ...and the gate must still *bite*: a deliberately seeded violation tree
# has to make it exit nonzero, or the gates above are vacuous.
if cargo run -q -p simlint -- --root crates/simlint/tests/fixtures/selftest \
    >/dev/null 2>&1; then
  echo "simlint self-test FAILED: expected violations in the selftest tree" >&2
  exit 1
fi

echo "== cargo doc (-D warnings)"
# Doc rot (broken intra-doc links, malformed rustdoc) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test"
cargo test -q --workspace

echo "== benchmark self-tests (e2ebench)"
# The reproduction benchmark is a package of its own; its tests hold the
# steadiness self-check and the comparisons of its outputs against the
# committed artifacts, so a kernel or engine change that breaks what the
# benchmark checks fails here rather than in a benchmark run.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "== observability (trace export + passive-probe artifact diff)"
# The probe layer must stay passive and deterministic: regenerating the
# committed profile artifact — with a Chrome trace export riding along —
# must reproduce it byte-for-byte, and the trace must parse as well-formed
# Trace Event JSON with both engine processes present.
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
cargo run -q --release -p bench --bin explain -- 5 --sf 0.02 --timeline \
  --trace "$obs_tmp/q5.json" > "$obs_tmp/profile_q5.txt"
cargo run -q --release -p bench --bin validate_trace -- "$obs_tmp/q5.json" hive pdw
diff -u results/profile_q5.txt "$obs_tmp/profile_q5.txt"

echo "== critical-path blame (deterministic blame artifact + annotated trace)"
# The blame layer sits on the same passive probe stream: the per-phase
# critical-path attribution must regenerate byte-for-byte, and the
# blame-annotated trace export must satisfy the structural validator
# (balanced lanes, nested spans) like every other trace.
cargo run -q --release -p bench --bin critpath -- 5 --sf 0.02 \
  --trace "$obs_tmp/critpath_q5.json" > "$obs_tmp/critpath_q5.txt"
cargo run -q --release -p bench --bin validate_trace -- "$obs_tmp/critpath_q5.json" hive pdw
diff -u results/critpath_q5.txt "$obs_tmp/critpath_q5.txt"

echo "== per-tenant SLO report (streaming registry + burn-rate artifact diff)"
# The streaming metric registry and burn-rate evaluation are deterministic
# end to end — same windows, same verdicts, same bytes.
cargo run -q --release -p bench --bin slo_report > "$obs_tmp/slo_report_a.txt"
diff -u results/slo_report_a.txt "$obs_tmp/slo_report_a.txt"

echo "== obs overhead smoke (probe passivity at the kernel's own counters)"
# bench_obs asserts probed == unprobed kernel event counts and simulated
# times internally; the smoke run proves that holds on this tree, and the
# schema gate below re-checks the committed artifact's embedded proof.
cargo run -q --release -p bench --bin bench_obs -- --iters 1 > "$obs_tmp/BENCH_obs_smoke.json"

echo "== concurrent mix (admission determinism + feedback-flip artifact diff)"
# The concurrent-mix artifact is the determinism contract for run_mix and
# the measured-wait feedback loop: regenerating it (with a Chrome trace of
# both mixes riding along) must be byte-identical, and the trace must parse.
cargo run -q --release -p bench --bin concurrent_mix -- \
  --trace "$obs_tmp/mix.json" > "$obs_tmp/concurrent_mix.txt"
cargo run -q --release -p bench --bin validate_trace -- "$obs_tmp/mix.json" mix mix-feedback
diff -u results/concurrent_mix.txt "$obs_tmp/concurrent_mix.txt"

echo "== adaptive mix (mid-flight re-planning artifact diff + equivalence assert)"
# The adaptive-mix artifact is the determinism contract for boundary
# re-planning: the bin itself asserts that identity re-planners reproduce
# the fixed run bitwise, and the recorded swaps (with their blame
# evidence) must regenerate byte-for-byte.
cargo run -q --release -p bench --bin adaptive_mix > "$obs_tmp/adaptive_mix.txt"
diff -u results/adaptive_mix.txt "$obs_tmp/adaptive_mix.txt"

echo "== DSS grid (PDW step trace + paper calibration artifact diffs)"
# The PDW host data plane (fused row scans, one hash build per replicated
# join side, per-query table statistics) must not move a simulated number
# or an answer: the step trace and both calibration tables regenerate
# byte-for-byte, with the commands reproduce_all.sh writes them with.
cargo run -q --release -p bench --bin pdw_steps -- --queries 1,5,19 > "$obs_tmp/pdw_steps.txt"
diff -u results/pdw_steps.txt "$obs_tmp/pdw_steps.txt"
cargo run -q --release -p bench --bin compare_paper -- --sf 0.02 --scale 250 \
  > "$obs_tmp/compare_paper_250.txt"
diff -u results/compare_paper_250.txt "$obs_tmp/compare_paper_250.txt"
cargo run -q --release -p bench --bin compare_paper -- --sf 0.02 --scale 16000 \
  > "$obs_tmp/compare_paper_16000.txt"
diff -u results/compare_paper_16000.txt "$obs_tmp/compare_paper_16000.txt"

echo "== columnar ablation (three-way storage artifact diff)"
# The colblock scan path (block pruning order, vectorized decode, shared
# format-cost table) is deterministic by construction; regenerating the
# three-way text/RCFile/colblock ablation must be byte-identical.
cargo run -q --release -p bench --bin ablation_columnar > "$obs_tmp/ablation_columnar.txt"
diff -u results/ablation_columnar.txt "$obs_tmp/ablation_columnar.txt"

echo "== kernel bench smoke (runs end-to-end + schema gate over BENCH_*.json)"
# BENCH_*.json artifacts are host-dependent timings, exempt from the
# byte-diff gates above; the schema gate keeps them honest instead. The
# smoke run proves the harness (synthetic loads, engine points, fan-out)
# still executes; validate_bench then checks the smoke output AND every
# committed trajectory artifact for the machine/config annotations and
# per-bench fields the docs read.
cargo run -q --release -p bench --bin bench_kernel -- --smoke > "$obs_tmp/BENCH_kernel_smoke.json"
cargo run -q --release -p bench --bin validate_bench -- \
  "$obs_tmp/BENCH_kernel_smoke.json" "$obs_tmp/BENCH_obs_smoke.json" results/BENCH_*.json

echo "== stale-fixture check (every results/ file named in EXPERIMENTS.md exists)"
# EXPERIMENTS.md is the map of the results/ directory; a renamed or
# deleted artifact must not leave a dangling reference behind.
missing=0
for f in $(grep -o 'results/[A-Za-z0-9_.-]*\.[a-z]*' EXPERIMENTS.md | sort -u); do
  if [ ! -f "$f" ]; then
    echo "EXPERIMENTS.md names $f but it does not exist" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ]

echo "ci: all green"
