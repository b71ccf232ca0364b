#!/usr/bin/env bash
# CI for cxl-gpu-graph: tier-1 verification plus docs, the benchmark's
# counter gates, and end-to-end campaigns. Everything runs offline (dependencies are vendored under
# vendor/; see README.md "Offline dependency policy").
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (tier-1, LTO baseline)"
cargo build --release

echo "==> cargo clippy: determinism & unsafety lints (rules D1, D2, D5, D6) and clippy's default groups"
# The cheap early gate, over library and binary targets (test code is
# exempt): no hash-order iteration, no wall-clock, environment or
# pool-size reads outside the escapes, and SAFETY-commented unsafe.
# The lints are denied in Cargo.toml's [workspace.lints]; the banned
# methods are listed in clippy.toml. A stale #[expect] is an error
# (unfulfilled_lint_expectations). Every other lint of clippy's default
# groups (clippy::all) is denied as well. clippy only warns about a
# clippy.toml path that names no function, which would silently drop
# that rule, so that warning fails the gate too. The vendored crates
# opt out of the workspace lints: their warnings never fail the gate.
CLIPPY_OUT=$(cargo clippy --workspace --lib --bins 2>&1) \
    || { echo "$CLIPPY_OUT"; echo "clippy denied a lint"; exit 1; }
if grep -q "does not refer to a reachable function" <<<"$CLIPPY_OUT"; then
    echo "$CLIPPY_OUT"; echo "clippy.toml names a function that does not exist"; exit 1
fi

echo "==> cargo build --workspace --all-targets: no rustc warning in the project's own code"
# clippy above skips test code; rustc's warnings cover every target.
# Cargo replays a fresh crate's cached warnings, rendered as when they
# were first printed, so both the short (`path: warning:`) and the
# human (`warning:` then ` --> path`) forms are matched. Vendored
# crates are exempt, as they are for clippy.
BUILD_OUT=$(cargo build --workspace --all-targets 2>&1) \
    || { echo "$BUILD_OUT"; echo "the all-targets build failed"; exit 1; }
if awk '/^(crates|src|tests|examples)\/[^ ]*: warning:/ { print; bad = 1 }
        /^[a-z]+(\[[A-Za-z0-9]+\])?:/ { w = /^warning/ }
        w && /^ *--> (crates|src|tests|examples)\// { print; bad = 1; w = 0 }
        END { exit !bad }' <<<"$BUILD_OUT"; then
    echo "$BUILD_OUT"; echo "rustc warned about the code above"; exit 1
fi

echo "==> cargo test -q (tier-1, all workspace members, 1-thread and 4-thread pools)"
# The vendored rayon promises bit-identical results at any pool size;
# run the whole suite at both extremes so thread-count nondeterminism
# (not just crashes) fails the gate.
RAYON_NUM_THREADS=1 cargo test -q
RAYON_NUM_THREADS=4 cargo test -q

echo "==> engine exactness gates on the release (LTO) build"
# The engine golden hash, the sharded-vs-coupled differential suite, the
# differential test of the closed-form credit hand-offs against the
# fully evented oracle loop, and the test that a batch fed in windows
# equals it fed at once, run on the build whose speed perfbench measures
# (the tier-1 runs above are debug builds).
cargo test -q --release -p cxlg-core --test engine_golden --test parallel_differential
cargo test -q --release -p cxlg-core --lib -- engine::tests::closed_form_hand_offs_equal_the_evented_oracle \
    engine::tests::windowed_feeds_equal_one_shot_batches

echo "==> cargo doc --no-deps with rustdoc warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> quickstart example runs"
cargo run --release --example quickstart >/dev/null

echo "==> latency_sweep example runs (one sweep_systems call: DRAM baseline + 13 CXL latency points)"
cargo run --release --example latency_sweep >/dev/null

echo "==> alignment_study example runs (the public RAF sweep API over the three datasets)"
cargo run --release --example alignment_study >/dev/null

echo "==> perfbench counter-drift gate: every workload keeps its seed-1 baseline sim_digest; peak-RSS ceilings"
# A simulator speed-up must not move a single simulated statistic. The
# digest is FNV over every traversal's requests, fetched bytes, runtime
# in ps, reached count and per-level bytes (for campaign, over the
# result JSON files); the values are the seed-1 digests recorded in
# perfbench/BASELINE.json. campaign is the only workload that runs the
# out-of-order latency bridge and flash-social the only one on the
# coupled flash path. The benchmark is used read-only and built under
# target/ like everything else.
for PB in latency-sweep:0x3b4f05e0897e93a6 flash-social:0x66a03ccf6e21b61c \
          spill-sequential:0x40563a0750ec88a2 campaign:0xe42e2f94f2913bed; do
    PB_WORKLOAD=${PB%%:*}
    PB_OUT=$(CARGO_TARGET_DIR=target/perfbench cargo run --quiet --release \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$PB_WORKLOAD" --seed 1 --seconds 1 --trace 0 2>/dev/null)
    PB_DIGEST_LINE=$(tail -2 <<<"$PB_OUT" | head -1)
    echo "    $PB_DIGEST_LINE"
    grep -q "sim_digest=${PB#*:}\$" <<<"$PB_DIGEST_LINE" \
        || { echo "$PB_WORKLOAD sim_digest drifted from perfbench/BASELINE.json"; exit 1; }
    tail -1 <<<"$PB_OUT" | grep -q '"correct": true' \
        || { echo "perfbench $PB_WORKLOAD reported incorrect results"; exit 1; }
    # Peak-RSS ceilings: the traversal driver feeds each level to the
    # engines in windows of at most 16 Ki requests, so no run holds a
    # level's whole request plan. spill-sequential measured 9.3-11.3 MB
    # that way against ~15 MB with each level's plan materialized (35.1 MB
    # with the whole run's), latency-sweep 7.9-9.7 MB against 12.0 MB; the
    # ceilings sit between, so a plan that is materialized again fails.
    # spill-sequential's ceiling also fails a spill build that reads whole
    # buckets back again (~18.7 MB).
    case "$PB_WORKLOAD" in
        spill-sequential) PB_RSS_CEIL=12 ;;
        latency-sweep) PB_RSS_CEIL=11 ;;
        *) PB_RSS_CEIL= ;;
    esac
    if [ -n "$PB_RSS_CEIL" ]; then
        PB_RSS=$(tail -1 <<<"$PB_OUT" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
        awk -v r="$PB_RSS" -v c="$PB_RSS_CEIL" 'BEGIN { exit !(r != "" && r + 0 <= c + 0) }' \
            || { echo "$PB_WORKLOAD peak_rss_mb=${PB_RSS:-missing} exceeds the ${PB_RSS_CEIL} MB ceiling"; exit 1; }
        echo "    $PB_WORKLOAD peak_rss_mb=$PB_RSS (ceiling $PB_RSS_CEIL MB)"
    fi
done

echo "==> perfbench traced counters: trace and request counts equal the seed-1 baseline exactly"
# The traced pass (--trace 1) recomposes Traversal::run from its layers
# and reports deterministic per-layer counts; "correct": true includes
# its check that the recomposed pipeline agrees with Traversal::run.
# The expected counts are traced_seed_1 in perfbench/BASELINE.json:
# levels, frontier vertices, planned requests, simulated requests. The
# digest gate above covers them only through a hash; this names the
# layer that drifted.
for PB in flash-social:28:413842:250353:250353 spill-sequential:9:655359:1558217:1558217; do
    IFS=: read -r PB_WORKLOAD PB_LEVELS PB_VERTICES PB_PLANNED PB_SIMULATED <<<"$PB"
    PB_JSON=$(CARGO_TARGET_DIR=target/perfbench cargo run --quiet --release \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$PB_WORKLOAD" --seed 1 --seconds 1 --trace 1 2>/dev/null | tail -1)
    grep -q '"correct": true' <<<"$PB_JSON" \
        || { echo "perfbench $PB_WORKLOAD --trace 1 reported incorrect results"; exit 1; }
    for KV in trace.levels:$PB_LEVELS trace.frontier_vertices:$PB_VERTICES \
              plan.requests:$PB_PLANNED engine.requests:$PB_SIMULATED; do
        grep -qF "\"${KV%%:*}\": {\"value\": ${KV#*:}," <<<"$PB_JSON" \
            || { echo "$PB_WORKLOAD ${KV%%:*} drifted from perfbench/BASELINE.json (want ${KV#*:})"; exit 1; }
    done
    echo "    $PB_WORKLOAD: trace.levels=$PB_LEVELS trace.frontier_vertices=$PB_VERTICES plan.requests=$PB_PLANNED engine.requests=$PB_SIMULATED"
done

echo "==> streaming CSR builder stays within the peak-RSS budget (scale 18: urand <= 10, kron and social <= 7 B/arc)"
# The two-pass scatter builder promises ~4 B per directed arc plus the
# per-vertex offset/cursor arrays; 10 B/arc leaves slack for the process
# baseline while still failing loudly if arc materialization ever
# creeps back in (the sort-based path measured ~19-24 B/arc). kron and
# social dedup in place, so their peak is the scatter's 4 B per counted
# arc over fewer stored arcs (~5-6 B/arc measured); 7 B/arc fails if a
# second targets array comes back (~9-10 B/arc).
GM="cargo run --release -p cxlg-bench --bin cxlg -- graph-mem"
U18_MEM=$($GM urand 18 --max-bytes-per-arc=10);  echo "    $U18_MEM"
K18_MEM=$($GM kron 18 --max-bytes-per-arc=7);    echo "    $K18_MEM"
S18_MEM=$($GM social 18 --max-bytes-per-arc=7);  echo "    $S18_MEM"
U20_MEM=$($GM urand 20 --max-bytes-per-arc=10);  echo "    $U20_MEM"

echo "==> a scale-22 urand graph (134M arcs) builds to completion"
U22_MEM=$($GM urand 22 --max-bytes-per-arc=10);  echo "    $U22_MEM"

echo "==> out-of-core spill backend: tighter peak-RSS budgets up the scale ladder"
# Spill mode keeps only the offsets and a bounded page cache resident
# and streams the build through fixed-size segments, so its peak RSS
# must land *under* the resident mem CSR (4.25 B/arc of offsets +
# targets alone) at scale 18 and keep falling as scale grows — the
# demonstration that the builder, not the graph, bounds memory.
# Measured at 2 threads: scale 18 1.3 / 1.6 / 1.3 (urand / kron /
# social; urand lands near 1.8 in some runs), urand 20 0.52,
# urand 22 0.37 B/arc. Reading whole buckets
# back beside a second offsets array measured 3.0 / 3.5 / 2.1, 1.13 and
# 0.63, and fails every budget below.
U18_SPILL=$($GM urand 18 --storage=spill --max-bytes-per-arc=2.5);  echo "    $U18_SPILL"
K18_SPILL=$($GM kron 18 --storage=spill --max-bytes-per-arc=2.5);   echo "    $K18_SPILL"
S18_SPILL=$($GM social 18 --storage=spill --max-bytes-per-arc=1.6); echo "    $S18_SPILL"
U20_SPILL=$($GM urand 20 --storage=spill --max-bytes-per-arc=0.8);  echo "    $U20_SPILL"
U22_SPILL=$($GM urand 22 --storage=spill --max-bytes-per-arc=0.5);  echo "    $U22_SPILL"

echo "==> spill fingerprints are byte-identical to mem at every ladder rung"
fp() { grep -o 'fingerprint=0x[0-9a-f]*' <<<"$1"; }
[ "$(fp "$U18_MEM")" = "$(fp "$U18_SPILL")" ] || { echo "urand18 fingerprint diverges across backends"; exit 1; }
[ "$(fp "$K18_MEM")" = "$(fp "$K18_SPILL")" ] || { echo "kron18 fingerprint diverges across backends"; exit 1; }
[ "$(fp "$S18_MEM")" = "$(fp "$S18_SPILL")" ] || { echo "social18 fingerprint diverges across backends"; exit 1; }
[ "$(fp "$U20_MEM")" = "$(fp "$U20_SPILL")" ] || { echo "urand20 fingerprint diverges across backends"; exit 1; }
[ "$(fp "$U22_MEM")" = "$(fp "$U22_SPILL")" ] || { echo "urand22 fingerprint diverges across backends"; exit 1; }

echo "==> cxlg lists the full experiment registry"
LISTED=$(cargo run --release -p cxlg-bench --bin cxlg -- list | grep -c '^[a-z]')
[ "$LISTED" -ge 17 ] || { echo "cxlg list shows only $LISTED experiments"; exit 1; }

echo "==> full campaign via cxlg run --all at 1-, 2- and 4-thread pools (small scale)"
# Three pool sizes, not two: with PR 6 the worker count also drives the
# within-run round shards, so an intermediate pool catches shard-merge
# bugs that only show between the 1-thread and saturated extremes.
rm -rf target/ci-results-t1 target/ci-results-t2 target/ci-results-t4
for T in 1 2 4; do
    CXLG_SCALE=10 RAYON_NUM_THREADS=$T CXLG_RESULTS_DIR=target/ci-results-t$T \
        cargo run --release -p cxlg-bench --bin cxlg -- run --all --json-manifest >/dev/null
done

echo "==> result JSON is byte-identical across thread counts (all experiments)"
# Every result file must match across all pool sizes except the
# "threads" header line (which records the pool by design). The
# manifest is telemetry (wall-clock), not a result, so it is excluded.
CHECKED=0
for f in target/ci-results-t1/*.json; do
    b="$(basename "$f")"
    [ "$b" = manifest.json ] && continue
    for T in 2 4; do
        cmp <(sed '/"threads"/d' "$f") <(sed '/"threads"/d' "target/ci-results-t$T/$b") \
            || { echo "$b differs between RAYON_NUM_THREADS=1 and $T"; exit 1; }
    done
    CHECKED=$((CHECKED + 1))
done
[ "$CHECKED" -ge 16 ] || { echo "only $CHECKED result files diffed; campaign incomplete"; exit 1; }
echo "    $CHECKED result files byte-identical across pools 1/2/4"

echo "==> cxlg validate — paper-fidelity gate over the captured campaign"
# Every series is checked against the paper's reported numbers
# (crates/bench/src/fidelity/reference.rs); any FLAG verdict fails CI.
# At this small scale the near-parity checks are scale-gated to SKIP
# (still reported with residuals); the golden-file test in
# crates/bench/tests/fidelity_golden.rs enforces zero FLAGs at scale 20
# on the checked-in campaign.
cargo run --release -p cxlg-bench --bin cxlg -- validate \
    --campaign-dir=target/ci-results-t1 --write-report=target/ci-results-t1/FIDELITY.md

echo "==> manifest proves each dataset was built exactly once"
grep -Eq '"builds": 1$|"builds": 1,' target/ci-results-t1/manifest.json \
    || { echo "manifest lacks per-spec build counts"; exit 1; }
if grep -E '"builds": ([2-9]|[0-9]{2,})' target/ci-results-t1/manifest.json; then
    echo "a dataset was built more than once per campaign"; exit 1
fi

echo "==> paper-scale gate: the committed scale-20 results and FIDELITY.md regenerate byte for byte"
# FIDELITY.md is generated from crates/bench/tests/data/campaign-scale20/,
# and the small campaigns above cannot see a change that moves results
# only at larger scales (a cache geometry, a level-size threshold). So
# rerun the 9 committed experiments at scale 20 on 2 threads, diff every
# file against the committed one (threads header exempt), and regenerate
# the report from the fresh results. ~2 min and ~1 GB peak RSS on 2 cores.
S20_START=$SECONDS
S20_DIR=target/ci-results-s20
S20_DATA=crates/bench/tests/data/campaign-scale20
rm -rf "$S20_DIR"
CXLG_SCALE=20 RAYON_NUM_THREADS=2 CXLG_RESULTS_DIR="$S20_DIR" \
    cargo run --release -p cxlg-bench --bin cxlg -- \
    run table1 table2 fig3 fig4 fig5 fig6 fig9 fig10 fig11 >/dev/null
S20_DIFFS=
S20_FILES=0
for f in "$S20_DATA"/*.json; do
    b="$(basename "$f")"
    [ "$b" = manifest.json ] && continue
    cmp -s <(sed '/"threads"/d' "$f") <(sed '/"threads"/d' "$S20_DIR/$b") \
        || S20_DIFFS="$S20_DIFFS $b"
    S20_FILES=$((S20_FILES + 1))
done
[ -z "$S20_DIFFS" ] || { echo "scale-20 results differ from $S20_DATA:$S20_DIFFS"; exit 1; }
[ "$S20_FILES" -eq 9 ] || { echo "expected 9 committed scale-20 result files, found $S20_FILES"; exit 1; }
cargo run --release -p cxlg-bench --bin cxlg -- validate \
    --campaign-dir="$S20_DIR" --write-report="$S20_DIR/FIDELITY.md" >/dev/null
cmp FIDELITY.md "$S20_DIR/FIDELITY.md" \
    || { echo "FIDELITY.md regenerated from the scale-20 run differs from the committed one"; exit 1; }
echo "    $S20_FILES scale-20 result files and FIDELITY.md unchanged ($((SECONDS - S20_START)) s)"

echo "==> spill-storage campaign: byte-identical results, green validate, no litter"
# The whole campaign with every graph demand-paged from spill files.
# Result JSON must match the mem-mode campaigns byte for byte (threads
# header exempt, as above) — storage is an execution strategy, not a
# result input — and the evicted graphs must leave no spill files
# behind.
rm -rf target/ci-results-spill
CXLG_SCALE=10 RAYON_NUM_THREADS=2 CXLG_RESULTS_DIR=target/ci-results-spill \
    cargo run --release -p cxlg-bench --bin cxlg -- \
    run --all --graph-storage=spill --json-manifest >/dev/null
SPILLED=0
for f in target/ci-results-spill/*.json; do
    b="$(basename "$f")"
    [ "$b" = manifest.json ] && continue
    for T in 1 2; do
        cmp <(sed '/"threads"/d' "$f") <(sed '/"threads"/d' "target/ci-results-t$T/$b") \
            || { echo "$b differs between the spill and mem (t$T) campaigns"; exit 1; }
    done
    SPILLED=$((SPILLED + 1))
done
[ "$SPILLED" -ge 16 ] || { echo "only $SPILLED spill result files diffed; campaign incomplete"; exit 1; }
echo "    $SPILLED spill result files byte-identical to both mem campaigns"
grep -q '"graph_storage": "spill"' target/ci-results-spill/manifest.json \
    || { echo "spill manifest does not record its storage mode"; exit 1; }
[ -z "$(ls -A target/ci-results-spill/graph-spill 2>/dev/null)" ] \
    || { echo "the spill campaign leaked spill files"; exit 1; }

echo "==> cxlg validate stays green over the spill campaign, FIDELITY.md unchanged"
cargo run --release -p cxlg-bench --bin cxlg -- validate \
    --campaign-dir=target/ci-results-spill \
    --write-report=target/ci-results-spill/FIDELITY.md >/dev/null
cmp target/ci-results-spill/FIDELITY.md target/ci-results-t1/FIDELITY.md \
    || { echo "FIDELITY.md differs between spill and mem campaigns"; exit 1; }

echo "CI OK"
