#!/bin/sh
# The full local gate: build, test, lint. Mirrors what tier-1 CI runs.
# Usage: scripts/check.sh           full gate (from anywhere inside the repo)
#        scripts/check.sh --fast    pre-commit variant: warnings-clean debug
#                                   build + simlint on files changed vs HEAD
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fast" ]; then
    echo "==> cargo build (fast, -D warnings)"
    RUSTFLAGS="-D warnings" cargo build -q
    echo "==> cargo run -p simlint -- --deny-all --changed"
    cargo run -p simlint -q -- --deny-all --changed
    echo "==> fast checks passed"
    exit 0
fi

echo "==> cargo build --release (-D warnings)"
RUSTFLAGS="-D warnings" cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark package tests (traced replica, workload purity, metric tables)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo run -p simlint -- --deny-all"
cargo run -p simlint -q -- --deny-all

echo "==> hcapp sanitize smoke (permuted reply orders vs serial bytes)"
cargo run --release -p hcapp-cli -q -- sanitize \
    --combo Low-Low --ms 1 --orderings 8 > /dev/null

echo "==> hcapp trace smoke (Table-3 combo, JSONL validated)"
smoke=results/trace_smoke.jsonl
rm -f "$smoke"
cargo run --release -p hcapp-cli -q -- trace \
    --combo Hi-Hi --scheme hcapp --ms 2 --out "$smoke" > /dev/null
# The validator re-parses every line, checks the schema header and
# enforces time-ordering; then make sure all five event kinds fired.
cargo run --release -p hcapp-cli -q -- trace --check "$smoke" > /dev/null
for kind in retarget global_pid vr_slew domain_scale local_decision; do
    grep -q "\"kind\":\"$kind\"" "$smoke" \
        || { echo "missing $kind events in $smoke" >&2; exit 1; }
done
rm -f "$smoke"

echo "==> hcapp analyze smoke (report vs committed baseline + bounds)"
smoke=results/analyze_smoke.json
rm -f "$smoke"
cargo run --release -p hcapp-cli -q -- analyze \
    --combo Hi-Hi --scheme hcapp --ms 2 --retarget 1:70 \
    --out "$smoke" > /dev/null
# The run is fully deterministic, so the fresh report must match the
# committed baseline within a tight tolerance (re-baseline deliberately
# with the command in README.md's Observability section)...
cargo run --release -p hcapp-cli -q -- analyze \
    --diff results/REPORT_baseline.json --against "$smoke" \
    --tolerance 0.01 > /dev/null
# ...and satisfy the absolute control-quality bounds.
cargo run --release -p hcapp-cli -q -- analyze \
    --assert results/REPORT_checks.json --report "$smoke" > /dev/null
rm -f "$smoke"

echo "==> hcapp faults smoke (executor determinism + cap bound)"
cargo run --release -p hcapp-cli -q -- faults --seed 7 --check

echo "==> scaling bench smoke (executors + stepper-kernel {3,64} floors)"
# Fast variant of scripts/bench_smoke.sh: the kernel sweep runs only the
# 3- and 64-domain points and must clear the committed throughput floors
# in results/BENCH_thresholds.json (including kernel >= legacy-stepper
# headroom). The full 4-point sweep that refreshes the committed
# results/BENCH_kernel.json is the script's default mode.
HCAPP_BENCH_POINTS=3,64 scripts/bench_smoke.sh

echo "==> hcapp soak smoke (kill-and-resume vs uninterrupted oracle, tolerance 0)"
# A short chaos campaign: the run is killed twice at seeded quanta and
# resumed from hcapp.ckpt; outcome, stitched JSONL trace and replayed
# report must be byte-identical to the never-interrupted oracle, and the
# over-budget bound from the fault contract must still hold.
cargo run --release -p hcapp-cli -q -- soak \
    --combo Hi-Hi --ms 2 --kills 2 --every 64 --seed 7 \
    --dir results/soak_smoke > /dev/null
rmdir results/soak_smoke 2>/dev/null || true

echo "==> hcapp fuzz smoke (differential + metamorphic oracles, byte-stable)"
# A fixed-seed bounded corpus through all six differential legs plus the
# metamorphic invariants. Run twice: the campaign log itself must be
# byte-identical across invocations, so the gate covers determinism of the
# fuzzer as well as correctness of the executors.
fuzz_a=results/fuzz_smoke_a.log
fuzz_b=results/fuzz_smoke_b.log
rm -f "$fuzz_a" "$fuzz_b"
cargo run --release -p hcapp-cli -q -- fuzz --smoke > "$fuzz_a"
cargo run --release -p hcapp-cli -q -- fuzz --smoke > "$fuzz_b"
cmp "$fuzz_a" "$fuzz_b" \
    || { echo "fuzz smoke log is not byte-stable across invocations" >&2; exit 1; }
rm -f "$fuzz_a" "$fuzz_b"
# The self-test: plant a known executor divergence, require the oracle to
# catch it, shrink it, and reproduce it from the emitted hcapp.fuzzcase.
fuzz_case=results/fuzz_smoke_planted.fuzzcase
rm -f "$fuzz_case"
cargo run --release -p hcapp-cli -q -- fuzz \
    --plant pooled --out "$fuzz_case" > /dev/null
if cargo run --release -p hcapp-cli -q -- fuzz --replay "$fuzz_case" > /dev/null 2>&1; then
    echo "planted fuzzcase replay did not reproduce the failure" >&2
    exit 1
fi
rm -f "$fuzz_case"

echo "==> all checks passed"
