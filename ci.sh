#!/usr/bin/env bash
# Local CI: what must be green before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> detcheck: threads 2/7 and provenance/forensics/telemetry capture match the plain run (standard + adversarial)"
check_default="$(cargo run --release -q -p bench-suite --bin detcheck)"
echo "$check_default"

echo "==> detcheck: the same matrix with telemetry compiled out"
check_nodefault="$(cargo run --release -q -p bench-suite --bin detcheck --no-default-features)"
echo "$check_nodefault"
# The per-world dataset/report hashes must also agree ACROSS the two builds:
# capture on, off, or compiled down to stubs — one world, byte for byte.
hashes_default="$(echo "$check_default" | grep -o 'dataset hash [0-9a-f]*, report hash [0-9a-f]*')"
hashes_nodefault="$(echo "$check_nodefault" | grep -o 'dataset hash [0-9a-f]*, report hash [0-9a-f]*')"
[ "$(echo "$hashes_default" | wc -l)" -eq 2 ] || { echo "FAIL: detcheck emitted no per-world hashes"; exit 1; }
[ "$hashes_default" = "$hashes_nodefault" ] || {
    echo "FAIL: determinism broken across feature builds ($hashes_default vs $hashes_nodefault)"; exit 1; }

echo "==> oracle_diff: columnar sharded scans match the naive row-layout oracle (audit diff included)"
cargo run --release -q -p bench-suite --bin oracle_diff

echo "==> baseline --sweep --scale stress: columnar pipeline smoke at ~3.5 M transactions"
cargo run --release -q -p bench-suite --bin baseline -- --sweep --scale stress --threads 2 --out /tmp/BENCH_stress.json > /dev/null
reduction="$(grep -o '"memory_reduction": [0-9.]*' /tmp/BENCH_stress.json | awk '{print $2}')"
awk -v r="$reduction" 'BEGIN { exit !(r >= 2.0) }' || { echo "FAIL: memory_reduction $reduction < 2.0"; exit 1; }

echo "==> audit: blame agreement, pair detection, and client-episode precision clear the floor"
cargo run --release -q -p bench-suite --bin audit -- --out /tmp/BENCH_audit.json > /dev/null

echo "==> audit --scenario: per-archetype detection clears the recall floors (censorship/brownout included)"
cargo run --release -q -p bench-suite --bin audit -- --scenario --out /tmp/BENCH_scenarios.json > /dev/null

echo "==> explain --audit-misses: a causal timeline exists for every below-recall archetype"
misses="$(cargo run --release -q -p bench-suite --bin explain -- --audit-misses)"
echo "$misses" | grep -q 'exemplar (' || { echo "FAIL: no miss exemplars dumped"; exit 1; }
# Every archetype header below 1.0 recall must be followed by an exemplar.
if [ "$(echo "$misses" | grep -c '^== ')" -ne "$(echo "$misses" | grep -c '^exemplar (')" ]; then
    echo "FAIL: some below-recall archetype has no exemplar"; exit 1
fi

echo "==> reproduce --html: self-contained page smoke test"
html_dir="$(mktemp -d)"
trap 'rm -rf "$html_dir"' EXIT
cargo run --release -q -p bench-suite --bin reproduce -- --scale quick --html "$html_dir/report.html" > /dev/null
test -s "$html_dir/report.html" || { echo "FAIL: report.html empty"; exit 1; }
test -s "$html_dir/manifest.json" || { echo "FAIL: manifest.json missing"; exit 1; }
iconv -f UTF-8 -t UTF-8 "$html_dir/report.html" > /dev/null || { echo "FAIL: report.html not valid UTF-8"; exit 1; }
for anchor in manifest paper compare audit waterfalls quarantine telemetry trajectory; do
    grep -q "id=\"$anchor\"" "$html_dir/report.html" || { echo "FAIL: missing section anchor $anchor"; exit 1; }
done
if [ "$(grep -c 'http[s]*://' "$html_dir/report.html")" -ne 0 ]; then
    echo "FAIL: report.html references external URLs"; exit 1
fi

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test perfbench: the benchmark still compiles against the crate APIs"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> telemetry-disabled build stays deterministic"
cargo test -q --no-default-features --test determinism

echo "==> telemetry-disabled build matches the oracle"
cargo test -q --no-default-features --test differential

echo "==> examples build and run"
cargo build --release --examples
for ex in quickstart custom_world blame_attribution bgp_correlation degraded_run proxy_failover profiled_run; do
    echo "   -> example: $ex"
    cargo run --release --example "$ex" > /dev/null
done

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "CI green."
