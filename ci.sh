#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite, and a smoke
# run of the serving experiment. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== one parallel engine (worker threads only through mocha-engine)"
# Every host-parallel loop runs on mocha_engine::Engine, so `--threads` is
# honoured everywhere. The perf binary may read the core count as a host
# fact; nothing else spawns scoped threads or sizes itself from the host.
if grep -rnE --include='*.rs' --exclude-dir=target \
        'thread::scope|available_parallelism' crates/*/src \
    | grep -v -e '^crates/engine/src/lib\.rs:' -e '^crates/bench/src/bin/perf/'; then
    echo "thread::scope/available_parallelism outside crates/engine/src/lib.rs"
    exit 1
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== golden oracle on the benchmark networks' real shapes (release, ignored in debug)"
# Every conv, depthwise and pointwise layer of AlexNet and MobileNet against
# the per-tap scalar oracles; too slow for the debug test run above.
cargo test --release -q -p mocha-model -- --ignored

echo "== benchmark tests (the perf package is its own workspace)"
cargo test -q --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "== obs smoke (stream parses, non-empty, deterministic)"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    runtime --jobs 3 --load 2.0 --seed 7 --obs "$obs_tmp/a.jsonl" > /dev/null
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    runtime --jobs 3 --load 2.0 --seed 7 --obs "$obs_tmp/b.jsonl" > /dev/null
test -s "$obs_tmp/a.jsonl" || { echo "obs stream is empty"; exit 1; }
if grep -qv '^{.*}$' "$obs_tmp/a.jsonl"; then
    echo "obs stream has a non-JSON-object line"; exit 1
fi
cmp "$obs_tmp/a.jsonl" "$obs_tmp/b.jsonl" || {
    echo "obs streams differ between identical seeded runs"; exit 1
}

echo "== determinism matrix (--threads 1/2/8: obs + profiles + r1-r5 tables + faulted + evicting + open-loop + fleet + cached runs)"
for t in 1 2 8; do
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        runtime --jobs 3 --load 2.0 --seed 7 --threads "$t" \
        --obs "$obs_tmp/mat$t.jsonl" \
        --metrics-window 200000 --metrics "$obs_tmp/mat$t.metrics.jsonl" \
        > "$obs_tmp/mat$t.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        trace summary "$obs_tmp/mat$t.jsonl" --json > "$obs_tmp/mat$t.profile"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r1 --quick --threads "$t" > "$obs_tmp/mat$t.r1"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        runtime --jobs 8 --load 2.0 --seed 42 --faults rate=15,seed=9 \
        --json --threads "$t" --obs "$obs_tmp/mat$t.fault.jsonl" \
        > "$obs_tmp/mat$t.fault.report"
    # The eviction row: quarantines evict mid-group residents, which resume
    # and redo the interrupted group; jobs fail on a one-retry budget.
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        runtime --jobs 8 --load 2.0 --seed 42 --faults rate=40,seed=3,retries=1 \
        --json --threads "$t" --obs "$obs_tmp/mat$t.evict.jsonl" \
        > "$obs_tmp/mat$t.evict.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r2 --quick --threads "$t" > "$obs_tmp/mat$t.r2"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
        --slo 400000 --shed-policy deadline --json --threads "$t" \
        --obs "$obs_tmp/mat$t.openloop.jsonl" > "$obs_tmp/mat$t.openloop.report"
    # The windowed export runs separately from the --obs row above: with an
    # SLO in play it also records slo.* alert events into the obs stream,
    # which would shift the committed r3-smoke baseline.
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
        --slo 400000 --shed-policy deadline --json --threads "$t" \
        --metrics-window 100000 --metrics "$obs_tmp/mat$t.openloop.metrics.jsonl" \
        > /dev/null
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r3 --quick --threads "$t" > "$obs_tmp/mat$t.r3"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r4 --quick --threads "$t" > "$obs_tmp/mat$t.r4"
    # Fleet rows: the batch router over a heterogeneous fleet, the fleet
    # open-loop engine with per-shard faults and re-balancing in play, and
    # the R5 table — all byte-identical at every worker count.
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        fleet --jobs 3 --load 2.0 --seed 7 --threads "$t" \
        --fleet preset=quad/preset=mocha,count=2 --route p2c \
        --obs "$obs_tmp/mat$t.fleet.jsonl" > "$obs_tmp/mat$t.fleet.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        fleet --open-loop --fleet preset=quad/preset=mocha --route locality \
        --requests 2000 --tenants 100 --load 3.0 --seed 7 --slo 2000000 \
        --faults rate=0.5,seed=9 --cold-penalty 20000 --json --threads "$t" \
        --obs "$obs_tmp/mat$t.openfleet.jsonl" > "$obs_tmp/mat$t.openfleet.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r5 --quick --threads "$t" > "$obs_tmp/mat$t.r5"
    # Cache-enabled rows: the same seeded runs with the morph-decision
    # cache on must also be byte-identical at every worker count.
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        runtime --jobs 3 --load 2.0 --seed 7 --threads "$t" --cache \
        --obs "$obs_tmp/mat$t.cache.jsonl" \
        --metrics-window 200000 --metrics "$obs_tmp/mat$t.cache.metrics.jsonl" \
        > "$obs_tmp/mat$t.cache.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
        --slo 400000 --shed-policy deadline --json --threads "$t" --cache \
        --metrics-window 100000 --metrics "$obs_tmp/mat$t.cache.openloop.metrics.jsonl" \
        > "$obs_tmp/mat$t.cache.openloop"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r1 --quick --threads "$t" --cache > "$obs_tmp/mat$t.cache.r1"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r2 --quick --threads "$t" --cache > "$obs_tmp/mat$t.cache.r2"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r3 --quick --threads "$t" --cache > "$obs_tmp/mat$t.cache.r3"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r4 --quick --threads "$t" --cache > "$obs_tmp/mat$t.cache.r4"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        fleet --jobs 3 --load 2.0 --seed 7 --threads "$t" --cache \
        --fleet preset=quad/preset=mocha,count=2 --route p2c \
        --obs "$obs_tmp/mat$t.cache.fleet.jsonl" > "$obs_tmp/mat$t.cache.fleet.report"
    cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        repro r5 --quick --threads "$t" --cache > "$obs_tmp/mat$t.cache.r5"
done
for t in 2 8; do
    for kind in jsonl report profile r1 fault.jsonl fault.report \
                evict.jsonl evict.report r2 \
                openloop.jsonl openloop.report r3 r4 \
                fleet.jsonl fleet.report openfleet.jsonl openfleet.report r5 \
                metrics.jsonl openloop.metrics.jsonl \
                cache.jsonl cache.report cache.openloop \
                cache.metrics.jsonl cache.openloop.metrics.jsonl \
                cache.r1 cache.r2 cache.r3 cache.r4 \
                cache.fleet.jsonl cache.fleet.report cache.r5; do
        cmp "$obs_tmp/mat1.$kind" "$obs_tmp/mat$t.$kind" || {
            echo "--threads $t $kind output differs from --threads 1"; exit 1
        }
    done
done

echo "== repro claims (the matrix's r2-r5 quick tables)"
# The r4/r5 smoke counters are pinned by crates/bench/tests/baselines.rs.
claim() { # claim <id> <phrase> <what broke>
    grep -q "$2" "$obs_tmp/mat1.$1" || { echo "$1: $3"; exit 1; }
}
claim r2 "beats fail-stop on goodput AND p99" \
    "quarantine-and-remorph no longer beats fail-stop"
claim r3 "beats unbounded queueing on goodput AND p99" \
    "deadline shedding no longer beats unbounded queueing"
claim r3 "fires before the goodput knee" \
    "windowed burn-rate alert no longer leads the goodput knee"
claim r4 "tracks the healthy window" \
    "morph controller no longer tracks the shrinking window"
claim r4 "at least as large as the fixed-tiling baseline" \
    "morphing no longer matches the fixed-tiling baseline's variant"
claim r5 "p2c beats round-robin and locality beats round-robin" \
    "state-aware routing no longer beats round-robin under faults"
claim r5 "re-balancing is visible at every nonzero rate" \
    "quarantine-triggered re-balancing is no longer visible"
claim r5 "amplifies the morph-decision cache at fleet scale" \
    "locality routing no longer amplifies the decision cache"

echo "== histogram exactness pin (vs committed baselines/hist-smoke.txt)"
# The histogram summaries of the matrix's open-loop and faulted --obs rows,
# and a digest of the whist rows of both windowed --metrics exports, must
# stay byte-identical to the baseline generated before the histogram store
# changed. Regenerate with (from the repo root, after the release build):
#   sim=target/release/mocha-sim; d="$(mktemp -d)"
#   $sim serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
#       --slo 400000 --shed-policy deadline --json --threads 1 \
#       --obs "$d/mat1.openloop.jsonl" > /dev/null
#   $sim runtime --jobs 8 --load 2.0 --seed 42 --faults rate=15,seed=9 \
#       --json --threads 1 --obs "$d/mat1.fault.jsonl" > /dev/null
#   $sim serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
#       --slo 400000 --shed-policy deadline --json --threads 1 \
#       --metrics-window 100000 --metrics "$d/mat1.openloop.metrics.jsonl" > /dev/null
#   $sim runtime --jobs 3 --load 2.0 --seed 7 --threads 1 \
#       --metrics-window 200000 --metrics "$d/mat1.metrics.jsonl" > /dev/null
#   hist_smoke "$d" > baselines/hist-smoke.txt    # hist_smoke: defined below
hist_smoke() {
    grep '"event":"hist"' "$1/mat1.openloop.jsonl"
    grep '"event":"hist"' "$1/mat1.fault.jsonl"
    grep '"event":"whist"' "$1/mat1.openloop.metrics.jsonl" | sha256sum
    grep '"event":"whist"' "$1/mat1.metrics.jsonl" | sha256sum
}
hist_smoke "$obs_tmp" | cmp - baselines/hist-smoke.txt || {
    echo "histogram summaries differ from baselines/hist-smoke.txt"; exit 1
}

echo "== open-loop report pin (vs committed baselines/openloop-report.txt)"
# Both open-loop report shapes, text and --json, with faults, deadline
# shedding and routing in play so every report field is nonzero, must stay
# byte-identical to the baseline generated before the fleet report folded
# into the single-fabric one. Regenerate with (from the repo root, after
# the release build):
#   openloop_pin target/release/mocha-sim > baselines/openloop-report.txt
openloop_pin() {
    local common=(--requests 2000 --tenants 100 --load 3.0 --seed 7
        --faults rate=40,seed=5,transient=0.3 --shed-policy deadline --slo 400000)
    local fleet=(fleet --open-loop --fleet preset=quad/preset=mocha,count=2 --route p2c)
    "$1" serve --open-loop "${common[@]}"
    "$1" serve --open-loop "${common[@]}" --json
    "$1" "${fleet[@]}" "${common[@]}"
    "$1" "${fleet[@]}" "${common[@]}" --json
}
openloop_pin target/release/mocha-sim | cmp - baselines/openloop-report.txt || {
    echo "open-loop reports differ from baselines/openloop-report.txt"; exit 1
}

echo "== runtime pin (vs committed baselines/runtime-pin.txt)"
# The seeded runtime under five fault settings must stay byte-identical to
# the baseline: fault-free; quarantine with evictions, redo and failed jobs;
# fail-stop; and the static policy under both modes. Each run records its
# --json report, the trace summary of its --obs stream and the stream's
# cksum. Regenerate with (from the repo root, after the release build):
#   runtime_pin target/release/mocha-sim "$(mktemp -d)" > baselines/runtime-pin.txt
runtime_pin() {
    local faults
    for faults in "" "--faults rate=40,seed=3,retries=1" \
            "--faults rate=15,seed=9,mode=failstop" \
            "--policy static --faults rate=15,seed=9" \
            "--policy static --faults rate=15,seed=9,mode=failstop"; do
        echo "# runtime --jobs 8 --load 2.0 --seed 42 --threads 1${faults:+ $faults}"
        # $faults is an option list: split it into words.
        # shellcheck disable=SC2086
        "$1" runtime --jobs 8 --load 2.0 --seed 42 --threads 1 $faults \
            --json --obs "$2/pin.jsonl"
        "$1" trace summary "$2/pin.jsonl" --json
        cksum < "$2/pin.jsonl"
    done
}
runtime_pin target/release/mocha-sim "$obs_tmp" | cmp - baselines/runtime-pin.txt || {
    echo "runtime output differs from baselines/runtime-pin.txt"; exit 1
}

echo "== simulate pin (vs committed baselines/sim-zoo.txt)"
# `simulate --json` for three zoo networks under every accelerator policy
# and two sparsity profiles must stay byte-identical to the baseline.
# Regenerate with (from the repo root, after the release build):
#   sim_zoo target/release/mocha-sim > baselines/sim-zoo.txt
sim_zoo() {
    for net in tiny lenet5 mobilenet; do
        for acc in mocha mocha-nc tiling fusion parallel; do
            for prof in dense sparse; do
                "$1" simulate "$net" --accelerator "$acc" --profile "$prof" --json --threads 1
            done
        done
    done
}
sim_zoo target/release/mocha-sim | cmp - baselines/sim-zoo.txt || {
    echo "simulate output differs from baselines/sim-zoo.txt"; exit 1
}

echo "== simulate pin for the benchmark network (vs committed baselines/sim-alexnet.txt)"
# The benchmark's AlexNet under both MOCHA policies and two sparsity
# profiles must stay byte-identical to the baseline. Regenerate with (from
# the repo root, after the release build):
#   sim_alexnet target/release/mocha-sim > baselines/sim-alexnet.txt
sim_alexnet() {
    for acc in mocha mocha-nc; do
        for prof in dense sparse; do
            "$1" simulate alexnet --accelerator "$acc" --profile "$prof" --json --threads 1
        done
    done
}
sim_alexnet target/release/mocha-sim | cmp - baselines/sim-alexnet.txt || {
    echo "simulate output differs from baselines/sim-alexnet.txt"; exit 1
}

echo "== one open-loop front end (serve --open-loop --fleet == fleet --open-loop)"
# Both entry points run the same open-loop path in fleet mode, so the
# matrix's fleet open-loop row must replay byte-for-byte through `serve`.
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    serve --open-loop --fleet preset=quad/preset=mocha --route locality \
    --requests 2000 --tenants 100 --load 3.0 --seed 7 --slo 2000000 \
    --faults rate=0.5,seed=9 --cold-penalty 20000 --json --threads 1 \
    --obs "$obs_tmp/serve.openfleet.jsonl" > "$obs_tmp/serve.openfleet.report"
cmp "$obs_tmp/mat1.openfleet.report" "$obs_tmp/serve.openfleet.report" || {
    echo "serve --open-loop --fleet report differs from fleet --open-loop"; exit 1
}
cmp "$obs_tmp/mat1.openfleet.jsonl" "$obs_tmp/serve.openfleet.jsonl" || {
    echo "serve --open-loop --fleet obs stream differs from fleet --open-loop"; exit 1
}

echo "== cache differential (cache-on replays cache-off byte-for-byte)"
# Reports, tables and obs streams must be unchanged by the cache; the only
# permitted stream delta is the cache.* counter lines themselves.
cmp "$obs_tmp/mat1.report" "$obs_tmp/mat1.cache.report" || {
    echo "cache-on runtime report differs from cache-off"; exit 1
}
grep -q '"cache\.' "$obs_tmp/mat1.cache.jsonl" || {
    echo "cache-on run recorded no cache.* counters"; exit 1
}
grep -v '"cache\.' "$obs_tmp/mat1.cache.jsonl" | cmp - "$obs_tmp/mat1.jsonl" || {
    echo "cache-on obs stream differs beyond cache.* lines"; exit 1
}
cmp "$obs_tmp/mat1.openloop.report" "$obs_tmp/mat1.cache.openloop" || {
    echo "cache-on open-loop report differs from cache-off"; exit 1
}
for r in r1 r2 r3 r4 r5; do
    cmp "$obs_tmp/mat1.$r" "$obs_tmp/mat1.cache.$r" || {
        echo "cache-on repro $r table differs from cache-off"; exit 1
    }
done
# Fleet runs honour the same contract: cache-on replays cache-off except
# for the cache.* counter lines in the obs stream.
cmp "$obs_tmp/mat1.fleet.report" "$obs_tmp/mat1.cache.fleet.report" || {
    echo "cache-on fleet report differs from cache-off"; exit 1
}
grep -v '"cache\.' "$obs_tmp/mat1.cache.fleet.jsonl" | cmp - "$obs_tmp/mat1.fleet.jsonl" || {
    echo "cache-on fleet obs stream differs beyond cache.* lines"; exit 1
}
# The windowed metrics exports are pure functions of the reports, so the
# cache cannot change a byte of them either.
cmp "$obs_tmp/mat1.metrics.jsonl" "$obs_tmp/mat1.cache.metrics.jsonl" || {
    echo "cache-on runtime metrics export differs from cache-off"; exit 1
}
cmp "$obs_tmp/mat1.openloop.metrics.jsonl" \
    "$obs_tmp/mat1.cache.openloop.metrics.jsonl" || {
    echo "cache-on open-loop metrics export differs from cache-off"; exit 1
}

echo "== fleet-of-1 differential (zero faults: fleet wraps runtime byte-for-byte)"
# A one-shard fleet must be the single-fabric runtime path plus fleet.*
# telemetry and nothing else: stripping the fleet lines from its obs stream
# recovers the solo stream byte-for-byte.
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    runtime --jobs 3 --load 2.0 --seed 7 \
    --obs "$obs_tmp/solo.jsonl" > "$obs_tmp/solo.report"
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    fleet --jobs 3 --load 2.0 --seed 7 \
    --obs "$obs_tmp/fleet1.jsonl" > /dev/null
grep -q '"fleet' "$obs_tmp/fleet1.jsonl" || {
    echo "fleet-of-1 run recorded no fleet.* telemetry"; exit 1
}
grep -v '"fleet' "$obs_tmp/fleet1.jsonl" | cmp - "$obs_tmp/solo.jsonl" || {
    echo "fleet-of-1 obs stream differs from solo runtime beyond fleet lines"; exit 1
}

echo "== trace perf-regression gate (r1 smoke vs committed baseline)"
# The committed baseline profile was produced from this exact seeded run;
# regenerate it with:
#   cargo run --release -p mocha-cli --bin mocha-sim -- \
#       runtime --jobs 3 --load 2.0 --seed 7 --obs - 2>/dev/null \
#   | cargo run --release -p mocha-cli --bin mocha-sim -- \
#       trace summary - --json > baselines/r1-smoke.json
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    trace diff baselines/r1-smoke.json "$obs_tmp/a.jsonl" --fail-on-regression 5

echo "== trace perf-regression gate (faulted r2 smoke vs committed baseline)"
# Same contract for the fault-recovery path: the committed baseline profile
# covers a seeded faulted run (retries, quarantines and re-morphs in play);
# regenerate it with:
#   cargo run --release -p mocha-cli --bin mocha-sim -- \
#       runtime --jobs 8 --load 2.0 --seed 42 --faults rate=15,seed=9 \
#       --obs - 2>/dev/null \
#   | cargo run --release -p mocha-cli --bin mocha-sim -- \
#       trace summary - --json > baselines/r2-smoke.json
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    trace diff baselines/r2-smoke.json "$obs_tmp/mat1.fault.jsonl" --fail-on-regression 5

echo "== trace perf-regression gate (open-loop r3 smoke vs committed baseline)"
# Same contract for the serving path: the committed baseline profile covers
# a seeded overloaded open-loop run with deadline shedding in play (job
# spans only — no group/tile nesting, so energy attribution is zero by
# construction and the latency percentiles carry the gate);
# regenerate it with:
#   cargo run --release -p mocha-cli --bin mocha-sim -- \
#       serve --open-loop --requests 2000 --tenants 100 --load 3.0 --seed 7 \
#       --slo 400000 --shed-policy deadline --obs - 2>/dev/null \
#   | cargo run --release -p mocha-cli --bin mocha-sim -- \
#       trace summary - --json > baselines/r3-smoke.json
cargo run --release -q -p mocha-cli --bin mocha-sim -- \
    trace diff baselines/r3-smoke.json "$obs_tmp/mat1.openloop.jsonl" --fail-on-regression 5

echo "== serve metrics exposition (byte-identical at --threads 1/2/8)"
# A scripted stdin serve session: one three-request batch (one doomed
# request sheds), then a live `metrics` query. The exposition + snapshot
# must be byte-identical at --threads 1/2/8. The cli_e2e test
# serve_metrics_snapshot_matches_the_committed_baseline replays the same
# session and gates the snapshot's name set (exact) and burn-rate fields
# (within 5%) against baselines/metrics-smoke.json. Regenerate it with:
#   printf '%s\n' \
#       '{"network": "tiny", "profile": "sparse", "seed": 3}' \
#       '{"network": "tiny", "arrival_cycle": 4000}' \
#       '{"network": "tiny", "arrival_cycle": 8000, "deadline_cycles": 1}' \
#       '' metrics \
#   | cargo run --release -p mocha-cli --bin mocha-sim -- \
#       serve --shed-policy deadline --slo 400000 --metrics-window 100000 \
#   | grep '"metrics":true' > baselines/metrics-smoke.json
serve_metrics_smoke() {
    printf '%s\n' \
        '{"network": "tiny", "profile": "sparse", "seed": 3}' \
        '{"network": "tiny", "arrival_cycle": 4000}' \
        '{"network": "tiny", "arrival_cycle": 8000, "deadline_cycles": 1}' \
        '' metrics \
    | cargo run --release -q -p mocha-cli --bin mocha-sim -- \
        serve --shed-policy deadline --slo 400000 --metrics-window 100000 \
        --threads "$1"
}
for t in 1 2 8; do
    serve_metrics_smoke "$t" > "$obs_tmp/metrics$t.out"
done
for t in 2 8; do
    cmp "$obs_tmp/metrics1.out" "$obs_tmp/metrics$t.out" || {
        echo "--threads $t serve metrics output differs from --threads 1"; exit 1
    }
done
grep -q '^# TYPE mocha_' "$obs_tmp/metrics1.out" || {
    echo "metrics query produced no exposition TYPE lines"; exit 1
}

echo "== warm-cache smoke (gated vs committed baselines/cache-smoke.json)"
# Exact hit/miss counters, the warm-DSE speedup floor and the serve-path
# batch speedup bound are checked by the binary itself.
cargo run --release -q -p mocha-bench --bin cache_smoke

echo "CI OK"
