#!/usr/bin/env sh
# Tier-1 CI gate. Fails on the first broken step.
#
#   1. release build + full test suite (the hard acceptance floor);
#   2. every workspace crate's test suite in release (`cargo test
#      --workspace`): the root package's suite alone skips the crate
#      suites, among them the flow's determinism, fault, batch and
#      trace-tree oracles;
#   3. every bench binary builds in release (table/figure regeneration
#      and the obs_report smoke binary);
#   4. bmbe-obs, bmbe-par, bmbe-trace, bmbe-balsa, bmbe-core, bmbe-bm,
#      bmbe-logic, bmbe-gates, bmbe-hsnet, bmbe-sim, bmbe-flow,
#      bmbe-designs, bmbe-bench (its library and every binary under
#      crates/bench/src/bin) and the root bmbe package (its library and
#      binary) build clean under -D warnings (zero-warning policy: a
#      leftover helper fails the gate), and the same packages are
#      rustfmt-clean (`cargo fmt -p <crate> --check`);
#   5. obs_report --check: runs a traced Stack flow + sim + verification
#      and validates the emitted Chrome trace / JSONL / span coverage;
#   6. fault smoke: an injected fault (BMBE_FAULT=synth:0, then one
#      inside prime generation, BMBE_FAULT=prime_gen:0:err) must fail
#      perf_report with a structured error line and a nonzero exit, and
#      the same binary must then pass clean; a simulation-compile fault
#      (BMBE_FAULT=sim_compile:0) must likewise fail sim_report;
#   7. perf smoke: in the clean pass's report, the Microprocessor core's
#      cold prime generation under the default backend must be at least
#      5x faster than under the exact prime-enumerating backend (the
#      seed behaviour; its recorded cold baseline was 0.0804 s);
#   8. sim perf smoke: in a fresh sim_report, the compiled backend's
#      batched 64-scenario Microprocessor-core run must beat the event
#      engine's aggregate events/s by at least 5x (per-lane parity with
#      the event engine is asserted inside sim_report itself);
#   9. batch + persistent cache: five batch_report fleets, each over a
#      fresh temporary BMBE_CACHE_DIR, must each emit pure-JSON stdout,
#      synthesize each distinct shape exactly once and compile merges
#      (a positive "merge_misses"); five more *processes* over the first
#      cache directory, each run right after one cold process (cold k,
#      then warm k), must each synthesize nothing and compile no merge
#      ("merge_misses": 0, every merge state count served from the
#      directory's merge log), and the median of their
#      Microprocessor-core wall times must be at least 3x below the
#      median of the cold processes';
#  10. cache_io fault smoke: with BMBE_FAULT=cache_io:0:err (disk op 0
#      is the merge log read as the cache opens) the disk layer degrades
#      to a merge memo that starts empty and the same fleet must still
#      succeed;
#  11. fleet trace correlation: two traced batch_report processes (cold,
#      then warm over the same scratch cache) each leave a
#      self-describing JSONL stream; trace_report --check parses every
#      line and must find a non-empty critical path rooted at batch.run
#      in the merged cold+warm trace, and two damaged copies of the cold
#      stream (one line cut short, one line of 100,000 nested '[') must
#      each fail it with a structured error line, not a crash;
#  12. perf-regression sentinel: bench_trend comparing the fresh
#      BENCH_flow.json / BENCH_sim.json from step 6/8 against the
#      committed baselines must pass, an injected structural
#      regression (controllers count bumped on a copy of
#      BENCH_flow.json, then a minimizer work count bumped by one on
#      another copy, then a verification row's otf_states bumped on a
#      copy of BENCH_sim.json) must fail it, and an empty baseline
#      must produce the structured no-baseline verdict (nonzero exit,
#      explicit reason) instead of a vacuous pass or a parse error;
#  13. differential gauntlet: a fixed-seed corpus slice of >= 200
#      generated designs (parametric families + random mini-Balsa
#      programs) must run clean through all four oracle pairs (compiled
#      vs event, on-the-fly vs materialized verification, serial vs
#      parallel, faulted vs clean) with a nonzero "merge_hits" count, so
#      serial vs parallel re-checked merge verdicts the shared merge memo
#      served; and an injected divergence must be caught and reported as
#      a structured finding carrying its replay seed;
#  14. panic-site ceiling (ROADMAP item 4): the lines of library source
#      holding `unwrap()`, `expect(` or `panic!(` must not exceed their
#      committed ceilings, so the counts can only fall. The scope is
#      crates/*/src without the bench crate and the criterion/proptest
#      stand-ins, plus src/, inline test modules included;
#  15. clippy correctness: every workspace target (tests, benches and
#      examples included) must pass clippy's `correctness` and
#      `suspicious` groups as errors, with every other lint allowed, so
#      a deny-by-default bug lint such as `never_loop` fails CI instead
#      of only stopping a developer's clippy run.
set -eu
cd "$(dirname "$0")/.."

echo "== tier1: build =="
cargo build --release

echo "== tier1: tests =="
cargo test -q

echo "== tier1: workspace tests =="
cargo test -q --release --workspace

echo "== tier1: bench binaries =="
cargo build --release -p bmbe-bench --bins

echo "== tier1: deny-warnings + rustfmt (every workspace crate but the criterion/proptest stand-ins) =="
for crate in bmbe-obs bmbe-par bmbe-trace bmbe-balsa bmbe-core bmbe-bm bmbe-logic bmbe-gates \
    bmbe-hsnet bmbe-sim bmbe-flow bmbe-designs; do
    cargo rustc -p "$crate" --release -- -D warnings
done
# Packages with several targets take the flag one target at a time.
cargo rustc -p bmbe-bench --release --lib -- -D warnings
for bin in crates/bench/src/bin/*.rs; do
    cargo rustc -p bmbe-bench --release --bin "$(basename "$bin" .rs)" -- -D warnings
done
cargo rustc -p bmbe --release --lib -- -D warnings
cargo rustc -p bmbe --release --bin bmbe -- -D warnings
cargo fmt -p bmbe-obs -p bmbe-par -p bmbe-trace -p bmbe-balsa -p bmbe-core -p bmbe-bm \
    -p bmbe-logic -p bmbe-gates -p bmbe-hsnet -p bmbe-sim -p bmbe-flow -p bmbe-designs \
    -p bmbe-bench -p bmbe --check

echo "== tier1: obs_report --check =="
BMBE_TRACE_OUT="${TMPDIR:-/tmp}/bmbe_tier1_trace.json" \
    cargo run --release -p bmbe-bench --bin obs_report -- --check >/dev/null

echo "== tier1: fault smoke =="
fault_err="${TMPDIR:-/tmp}/bmbe_tier1_fault.err"
for plan in synth:0 prime_gen:0:err; do
    if BMBE_FAULT="$plan" cargo run --release -p bmbe-bench --bin perf_report \
        >/dev/null 2>"$fault_err"; then
        echo "tier1: FAIL: perf_report succeeded under BMBE_FAULT=$plan" >&2
        exit 1
    fi
    if ! grep -q '^error: perf_report: ' "$fault_err"; then
        echo "tier1: FAIL: no structured error line under BMBE_FAULT=$plan" >&2
        cat "$fault_err" >&2
        exit 1
    fi
done
if BMBE_FAULT=sim_compile:0 cargo run --release -p bmbe-bench --bin sim_report \
    >/dev/null 2>"$fault_err"; then
    echo "tier1: FAIL: sim_report succeeded under BMBE_FAULT=sim_compile:0" >&2
    exit 1
fi
if ! grep -q '^error: sim_report: ' "$fault_err"; then
    echo "tier1: FAIL: no structured error line under BMBE_FAULT=sim_compile:0" >&2
    cat "$fault_err" >&2
    exit 1
fi
# The clean pass runs in a scratch directory so the checked-in
# BENCH_flow.json is not overwritten with this machine's timings.
fault_dir="$(mktemp -d)"
repo_root="$(pwd)"
(cd "$fault_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin perf_report >/dev/null)

echo "== tier1: perf smoke (minimizer backend) =="
# Ratio gate, measured in one fresh report on this host (robust on slow
# machines, unlike an absolute wall-time bound): the default backend's
# cold prime_gen on the Microprocessor core must beat the exact backend
# by at least 5x.
micro_line="$(grep '"design": "Microprocessor' "$fault_dir/BENCH_flow.json")" || {
    echo "tier1: FAIL: no Microprocessor row in the fresh BENCH_flow.json" >&2
    exit 1
}
auto_s="$(printf '%s' "$micro_line" | sed 's/.*"auto_prime_gen_s": \([0-9.]*\).*/\1/')"
exact_s="$(printf '%s' "$micro_line" | sed 's/.*"exact_prime_gen_s": \([0-9.]*\).*/\1/')"
if ! awk -v a="$auto_s" -v e="$exact_s" \
    'BEGIN { exit !(a > 0 && e / a >= 5) }'; then
    echo "tier1: FAIL: Microprocessor cold prime_gen: default backend ${auto_s}s vs exact ${exact_s}s (< 5x)" >&2
    exit 1
fi
echo "tier1: Microprocessor cold prime_gen ${auto_s}s (default) vs ${exact_s}s (exact)"

echo "== tier1: sim perf smoke (compiled backend) =="
# Ratio gate on a fresh sim_report (same scratch directory): the compiled
# backend's batched 64-scenario Microprocessor run must clear 5x the
# event engine's aggregate events/s. sim_report asserts per-lane parity
# with the event engine before timing, so this pass also re-proves the
# differential property on this host.
(cd "$fault_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin sim_report >/dev/null)
micro_sim_line="$(grep '"compiled_vs_event"' "$fault_dir/BENCH_sim.json" \
    | grep '"design": "Microprocessor')" || {
    echo "tier1: FAIL: no Microprocessor backends row in the fresh BENCH_sim.json" >&2
    exit 1
}
ratio="$(printf '%s' "$micro_sim_line" | sed 's/.*"compiled_vs_event": \([0-9.]*\).*/\1/')"
if ! awk -v r="$ratio" 'BEGIN { exit !(r >= 5) }'; then
    echo "tier1: FAIL: Microprocessor batched compiled_vs_event ${ratio}x (< 5x)" >&2
    exit 1
fi
echo "tier1: Microprocessor batched compiled backend ${ratio}x the event engine"
# $fault_dir keeps its fresh BENCH_flow.json / BENCH_sim.json for the
# bench_trend gate below.

echo "== tier1: batch driver + persistent disk cache =="
# Scratch cache directories: the gate must never read or pollute a real
# BMBE_CACHE_DIR the developer has configured. Each cold process fills a
# fresh cache; the warm process after it reads the first one. Interleaving
# the pairs spreads a host-speed swing over both sides of the gate.
batch_dir="$(mktemp -d)"
for k in 1 2 3 4 5; do
    BMBE_CACHE_DIR="$batch_dir/cache$k" cargo run --release -p bmbe-bench --bin batch_report -- \
        --replicas 1 --sim-batch 0 >"$batch_dir/cold$k.jsonl"
    BMBE_CACHE_DIR="$batch_dir/cache1" cargo run --release -p bmbe-bench --bin batch_report -- \
        --replicas 1 --sim-batch 0 >"$batch_dir/warm$k.jsonl"
done
for run in cold1 cold2 cold3 cold4 cold5 warm1 warm2 warm3 warm4 warm5; do
    out="$batch_dir/$run.jsonl"
    # Pure-JSON stdout: every line is one JSON object.
    if grep -qv '^{' "$out"; then
        echo "tier1: FAIL: batch_report stdout ($run) is not pure JSON:" >&2
        grep -v '^{' "$out" >&2
        exit 1
    fi
    summary="$(grep '"summary": true' "$out")"
    synth="$(printf '%s' "$summary" | sed 's/.*"synthesized": \([0-9]*\).*/\1/')"
    merge_misses="$(printf '%s' "$summary" | sed 's/.*"merge_misses": \([0-9]*\).*/\1/')"
    case "$run" in
    cold*)
        # Exactly-once: a cold fleet synthesizes each distinct shape once.
        distinct="$(printf '%s' "$summary" | sed 's/.*"distinct_shapes": \([0-9]*\).*/\1/')"
        if [ "$distinct" != "$synth" ] || [ "$synth" = "0" ]; then
            echo "tier1: FAIL: $run batch synthesized $synth of $distinct distinct shapes (must be all, exactly once)" >&2
            exit 1
        fi
        # A fresh directory has no merge log: clustering compiles.
        case "$merge_misses" in
        '' | *[!0-9]* | 0)
            echo "tier1: FAIL: $run batch over a fresh cache reads merge_misses '$merge_misses' (must be positive)" >&2
            exit 1
            ;;
        esac
        ;;
    warm*)
        # Second process, same cache directory: every shape resolves from
        # disk, and every merge state count from the merge log.
        if [ "$synth" != "0" ]; then
            echo "tier1: FAIL: $run cross-process batch re-synthesized $synth shapes" >&2
            exit 1
        fi
        if [ "$merge_misses" != "0" ]; then
            echo "tier1: FAIL: $run cross-process batch compiled $merge_misses merges" >&2
            exit 1
        fi
        ;;
    esac
done
# The warm processes' Microprocessor job must be at least 3x faster than
# the cold ones' (disk decode vs full synthesis; measured ~8x here).
# Medians of five processes each, because one sample of a job that takes
# a few milliseconds moves by a host hiccup.
micro_median() {
    for k in 1 2 3 4 5; do
        grep '"job": "Microprocessor core#0"' "$batch_dir/$1$k.jsonl" \
            | sed 's/.*"wall_s": \([0-9.]*\).*/\1/'
    done | sort -g | sed -n 3p
}
cold_s="$(micro_median cold)"
warm_s="$(micro_median warm)"
if ! awk -v c="$cold_s" -v w="$warm_s" 'BEGIN { exit !(w > 0 && c / w >= 3) }'; then
    echo "tier1: FAIL: Microprocessor warm disk-cache run ${warm_s}s vs cold ${cold_s}s (medians of 5, < 3x)" >&2
    exit 1
fi
echo "tier1: Microprocessor cold ${cold_s}s vs warm-disk ${warm_s}s (cross-process medians of 5)"

echo "== tier1: cache_io fault smoke =="
# A faulted disk layer degrades to cache misses (op 0, the merge log
# read, to a memo that starts empty); the fleet must succeed.
fault_cache_dir="$(mktemp -d)"
if ! BMBE_FAULT=cache_io:0:err BMBE_CACHE_DIR="$fault_cache_dir" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 1 --sim-batch 0 >/dev/null; then
    echo "tier1: FAIL: batch_report failed under BMBE_FAULT=cache_io:0:err" >&2
    exit 1
fi
rm -rf "$batch_dir" "$fault_cache_dir"

echo "== tier1: fleet trace correlation + critical path =="
# A cold and a warm traced fleet over one scratch cache: each process
# leaves a self-describing JSONL stream (meta line carries its run ID),
# and the merged stream must analyze as one logical trace.
trace_dir="$(mktemp -d)"
BMBE_TRACE=1 BMBE_TRACE_OUT="$trace_dir/cold.json" BMBE_CACHE_DIR="$trace_dir/cache" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 2 --sim-batch 4 >/dev/null
BMBE_TRACE=1 BMBE_TRACE_OUT="$trace_dir/warm.json" BMBE_CACHE_DIR="$trace_dir/cache" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 2 --sim-batch 4 >/dev/null
for stream in "$trace_dir/cold.jsonl" "$trace_dir/warm.jsonl"; do
    if [ ! -s "$stream" ]; then
        echo "tier1: FAIL: traced batch_report left no JSONL stream at $stream" >&2
        exit 1
    fi
done
# Every JSONL line parses, and --check requires a non-empty critical
# path; the report must root that path at the fleet's batch.run span.
trace_report_out="$trace_dir/trace_report.json"
cargo run --release -p bmbe-bench --bin trace_report -- --check \
    "$trace_dir/cold.jsonl" "$trace_dir/warm.jsonl" >"$trace_report_out"
if ! grep -q '"name": "batch.run"' "$trace_report_out"; then
    echo "tier1: FAIL: merged fleet critical path does not include batch.run" >&2
    cat "$trace_report_out" >&2
    exit 1
fi
echo "tier1: merged cold+warm fleet trace has a batch.run critical path"
# A damaged stream is a typed, positioned error: a line cut short, then a
# line nested deeper than the parser's limit.
damaged="$trace_dir/damaged.jsonl"
for damage in truncated nested; do
    case "$damage" in
    truncated) sed '2s/.\{10\}$//' "$trace_dir/cold.jsonl" >"$damaged" ;;
    nested) { cat "$trace_dir/cold.jsonl"; printf '%100000s\n' '' | tr ' ' '['; } >"$damaged" ;;
    esac
    if cargo run --release -p bmbe-bench --bin trace_report -- --check "$damaged" \
        >/dev/null 2>"$trace_dir/damaged.err"; then
        echo "tier1: FAIL: trace_report --check passed a stream with a $damage line" >&2
        exit 1
    fi
    if ! grep -q '^error: trace_report: ' "$trace_dir/damaged.err"; then
        echo "tier1: FAIL: no structured error line for a $damage line" >&2
        cat "$trace_dir/damaged.err" >&2
        exit 1
    fi
done
echo "tier1: trace_report rejects a truncated and a deeply nested line with an error line"

echo "== tier1: perf-regression sentinel (bench_trend) =="
# The fresh reports generated by the perf smokes above must clear the
# committed baselines...
cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$fault_dir/BENCH_flow.json" --baseline-flow BENCH_flow.json \
    --sim "$fault_dir/BENCH_sim.json" --baseline-sim BENCH_sim.json >/dev/null
# ...and an injected structural regression on a copy must be caught.
sed 's/"controllers": 12/"controllers": 15/' BENCH_flow.json >"$trace_dir/regressed.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$trace_dir/regressed.json" --baseline-flow BENCH_flow.json \
    --sim BENCH_sim.json --baseline-sim BENCH_sim.json >/dev/null; then
    echo "tier1: FAIL: bench_trend passed an injected controllers regression" >&2
    exit 1
fi
# One more unit of minimizer work (the first row's traced count) is a
# regression too.
explored="$(grep -o '"hfmin.worklist.explored": [0-9]*' BENCH_flow.json | head -n 1 | sed 's/.*: //')"
sed "s/\"hfmin.worklist.explored\": $explored\([,}]\)/\"hfmin.worklist.explored\": $((explored + 1))\1/" \
    BENCH_flow.json >"$trace_dir/regressed_counter.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$trace_dir/regressed_counter.json" --baseline-flow BENCH_flow.json \
    --sim BENCH_sim.json --baseline-sim BENCH_sim.json >/dev/null; then
    echo "tier1: FAIL: bench_trend passed an injected hfmin.worklist.explored regression" >&2
    exit 1
fi
sed 's/"otf_states": 123/"otf_states": 124/' BENCH_sim.json >"$trace_dir/regressed_sim.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow BENCH_flow.json --baseline-flow BENCH_flow.json \
    --sim "$trace_dir/regressed_sim.json" --baseline-sim BENCH_sim.json >/dev/null; then
    echo "tier1: FAIL: bench_trend passed an injected otf_states regression" >&2
    exit 1
fi
echo "tier1: bench_trend passes the committed baselines and catches the injected regressions"
# An empty baseline is a structured no-baseline verdict, not a vacuous
# pass or a parse error.
printf '{}' >"$trace_dir/empty.json"
trend_out="$trace_dir/trend_no_baseline.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$fault_dir/BENCH_flow.json" --baseline-flow "$trace_dir/empty.json" \
    --sim BENCH_sim.json --baseline-sim BENCH_sim.json >"$trend_out"; then
    echo "tier1: FAIL: bench_trend passed against an empty baseline" >&2
    exit 1
fi
if ! grep -q '"no_baseline": \[$' "$trend_out" || ! grep -q 'no comparable metric entries' "$trend_out"; then
    echo "tier1: FAIL: empty baseline did not produce a structured no_baseline verdict" >&2
    cat "$trend_out" >&2
    exit 1
fi
echo "tier1: bench_trend reports an empty baseline as a structured no-baseline verdict"
rm -rf "$fault_dir" "$trace_dir"

echo "== tier1: differential gauntlet (generated corpus) =="
# A fixed-seed corpus slice through all four oracle pairs, routed through
# a scratch disk cache (the realistic hit distribution ROADMAP item 3
# asks for). The report must be clean: zero findings, every pair
# exercised.
gauntlet_dir="$(mktemp -d)"
(cd "$gauntlet_dir" && BMBE_CACHE_DIR="$gauntlet_dir/cache" cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin gauntlet_report -- --seed 1 --designs 200 >/dev/null)
gauntlet_json="$gauntlet_dir/BENCH_gauntlet.json"
if ! grep -q '"designs": 200' "$gauntlet_json" \
    || ! grep -q '"all_pairs_exercised": true' "$gauntlet_json" \
    || ! grep -q '"findings": \[\]' "$gauntlet_json"; then
    echo "tier1: FAIL: gauntlet slice was not clean:" >&2
    cat "$gauntlet_json" >&2
    exit 1
fi
# The registry flows cluster through the cache's shared merge memo and the
# reference flows over fresh ones: without a memo hit, serial vs parallel
# compared no verdict the memo served.
if grep -q '"merge_hits": 0,' "$gauntlet_json" || ! grep -q '"merge_hits": [0-9]' "$gauntlet_json"; then
    echo "tier1: FAIL: gauntlet slice served no merge from the shared merge memo:" >&2
    cat "$gauntlet_json" >&2
    exit 1
fi
echo "tier1: 200-design gauntlet clean across all four oracle pairs, with shared merge-memo hits"
# Injected-divergence smoke: a perturbed compiled outcome must be caught
# by the real detection path and reported with its replay seed.
if (cd "$gauntlet_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin gauntlet_report -- --seed 1 --designs 20 --inject 7 >/dev/null 2>&1); then
    echo "tier1: FAIL: gauntlet_report passed with an injected divergence" >&2
    exit 1
fi
if ! grep -q '"oracle": "compiled_vs_event"' "$gauntlet_json" \
    || ! grep -q '"replay": "bmbe gauntlet --seed 1 --designs 20 --only ' "$gauntlet_json" \
    || ! grep -q '"seed": [0-9]' "$gauntlet_json"; then
    echo "tier1: FAIL: injected divergence not reported with a replay seed:" >&2
    cat "$gauntlet_json" >&2
    exit 1
fi
echo "tier1: injected divergence caught and reported with its replay seed"
rm -rf "$gauntlet_dir"

echo "== tier1: panic-site ceiling =="
# A change that removes sites lowers the ceiling here in the same change.
for gate in 'unwrap() 321' 'expect( 63' 'panic!( 34'; do
    set -- $gate
    count="$(grep -rF --include='*.rs' "$1" crates/*/src src \
        | grep -v '^crates/\(bench\|criterion\|proptest\)/' | wc -l)"
    if [ "$count" -gt "$2" ]; then
        echo "tier1: FAIL: $count library source lines hold '$1' (ceiling $2)" >&2
        exit 1
    fi
    echo "tier1: $count library source lines hold '$1' (ceiling $2)"
done

echo "== tier1: clippy correctness and suspicious lints =="
cargo clippy --workspace --all-targets --release -- \
    -A clippy::all -D clippy::correctness -D clippy::suspicious

echo "tier1: all gates passed"
