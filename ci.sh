#!/bin/sh
# Tier-1 CI gate: everything here runs offline (no network, no external
# crates; property tests use the in-repo harness).
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace
# The benchmark package links the program's crates through their public
# APIs; its tests catch an API change that would break it here rather
# than only in the benchmark pipeline.
cargo test -q --manifest-path perfbench/Cargo.toml
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Lint gate: every shipped model must be free of deny-level (error)
# diagnostics. Warnings are allowed — some shipped models demonstrate
# them on purpose; models/lints/* are deliberately buggy fixtures and are
# covered by the golden tests instead.
for model in models/*.xtuml; do
    marks="${model%.xtuml}.marks"
    if [ -f "$marks" ]; then
        cargo run --quiet --release -- lint "$model" "$marks"
    else
        cargo run --quiet --release -- lint "$model"
    fi
done

# Effect-analysis gate: `xtuml analyze` must run clean on every shipped
# model (the analyze goldens pin the fixture outputs; this proves the
# CLI surface itself on real models), and the deliberately racy fixture
# must be rejected with the X0017 two-action witness.
for model in models/*.xtuml; do
    cargo run --quiet --release -- analyze "$model" > /dev/null
done
cargo run --quiet --release -- analyze models/lints/shardrace.xtuml \
    | grep -q 'race on `Cell.v`'

# Fuzz-smoke gate: a fixed seed range of the conformance fuzzer must run
# clean — the differential (reference interpreter, model interpreter,
# partitioned cosim; the last two both on the bytecode VM, plus sharded
# legs) agrees on every generated model — and the report must be
# byte-identical across two runs (the whole pipeline is
# seed-deterministic). A non-zero divergence count
# already fails via the exit code; the cmp catches any nondeterminism
# that happens to produce the same verdict.
mkdir -p target
cargo run --quiet --release -- fuzz --seeds 200 > target/fuzz-smoke-1.txt
cargo run --quiet --release -- fuzz --seeds 200 > target/fuzz-smoke-2.txt
cmp target/fuzz-smoke-1.txt target/fuzz-smoke-2.txt
grep -q 'divergences      : 0' target/fuzz-smoke-1.txt

# Admission gate: the effect analysis must keep admitting a healthy
# share of the generated models to real sharded execution (each such
# case already ran the sharded differential at 2, 4 and 8 shards inside
# the sweep above). A drop below 40/200 newly admitted models means the
# admission rules regressed to the old syntactic reject-list.
awk '
    /newly admitted   :/ { n = $4 + 0 }
    END {
        if (n < 40) { printf "FAIL: only %d/200 newly admitted\n", n; exit 1 }
        printf "fuzz admission: %d/200 newly admitted\n", n
    }' target/fuzz-smoke-1.txt

# Parallel-determinism gate: the sharded engine's contract is that the
# worker count never changes the output. The dedicated suites prove it
# at the engine and CLI layers; the smoke below re-proves it end to end
# on a shipped model (`--shards` pins the schedule while `--jobs`
# varies), and the fuzz sweep must render the same report parallel as
# serial.
cargo test -q --release -p xtuml-pool
cargo test -q --release -p xtuml-exec --test parallel
cargo test -q --release --test parallel_determinism
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --jobs 1 > target/run-par-1.txt
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --jobs 2 > target/run-par-2.txt
cmp target/run-par-1.txt target/run-par-2.txt
cargo run --quiet --release -- fuzz --seeds 200 --jobs 4 > target/fuzz-smoke-par.txt
cmp target/fuzz-smoke-1.txt target/fuzz-smoke-par.txt

# Telemetry gates (DESIGN §12). First the determinism contract: metric
# snapshots must be byte-identical across worker counts and against the
# plain sequential engine, and `xtuml stats` must match its goldens.
cargo test -q --release --test metrics_determinism

# The profile surface must emit a well-formed Chrome trace-event document
# (the shape Perfetto loads); `stats --check-profile` validates it with
# the in-repo JSON parser, so a malformed profile fails CI, not the
# first person to open it in a viewer.
cargo run --quiet --release -- run models/doorbell.xtuml models/doorbell.stim \
    --shards 4 --profile target/ci-profile.json > /dev/null
cargo run --quiet --release -- stats --check-profile target/ci-profile.json

# Interp regression + zero-cost-when-disabled gate: one fresh
# measurement (telemetry compiled in but off — the default) is checked
# against the blessed VM-era baseline at a 2% threshold, which subsumes
# the 10% hard-regression bar the parallel bench uses. The bench binary
# checks each configuration's traced dispatch count against its closed
# form (feeds x stages) before any timing is trusted. The baseline is blessed
# from the minimum of several runs on the CI host, so the threshold
# absorbs scheduler noise rather than re-measuring it.
( cd target && cargo run --quiet --release -p xtuml-bench --bin throughput )
cp BENCH_interp.baseline.json target/
awk '
    FNR == 1 { file++ }
    /"aggregate_signals_per_sec"/ { rate[file] = $2 + 0 }
    END {
        if (rate[2] <= 0) { print "no interp baseline rate parsed"; exit 1 }
        ratio = rate[1] / rate[2]
        printf "interp bench (telemetry off): %.0f vs baseline %.0f (%.2fx)\n", rate[1], rate[2], ratio
        if (ratio < 0.98) { print "FAIL: disabled telemetry costs >2%"; exit 1 }
    }' target/BENCH_interp.json target/BENCH_interp.baseline.json

# Null-dispatch gate: the dispatch microbench measures pure per-signal
# engine overhead (every action body is empty), which is exactly the
# surface the dispatch superloop optimizes — regressions here are
# invisible in the pipeline bench, whose real action work dominates.
# The binary checks the traced dispatch count (instances x pings) on a
# scaled-down pass before timing, and interleaves its timed columns so
# heap and frequency drift cannot masquerade as a trace-mode difference. Gate at
# 0.9x of the blessed baseline; like the interp baseline it is
# host-specific and must be re-blessed when the CI host changes.
( cd target && cargo run --quiet --release -p xtuml-bench --bin dispatch )
cp BENCH_dispatch.baseline.json target/
awk '
    FNR == 1 { file++ }
    /"aggregate_signals_per_sec"/ { rate[file] = $2 + 0 }
    END {
        if (rate[2] <= 0) { print "no dispatch baseline rate parsed"; exit 1 }
        ratio = rate[1] / rate[2]
        printf "dispatch bench: %.0f vs baseline %.0f (%.2fx)\n", rate[1], rate[2], ratio
        if (ratio < 0.9) { print "FAIL: >10% dispatch overhead regression"; exit 1 }
    }' target/BENCH_dispatch.json target/BENCH_dispatch.baseline.json

# Scaling-bench gate: smoke-run the jobs sweep at 1 and 2 workers (the
# binary itself byte-compares the traces before trusting any timing),
# then fail on a >10% aggregate throughput regression against the
# checked-in baseline.
( cd target && BENCH_ITERS=1 BENCH_JOBS=1,2 cargo run --quiet --release \
    -p xtuml-bench --bin scaling )
if [ -f BENCH_parallel.baseline.json ]; then
    cp BENCH_parallel.baseline.json target/
    ( cd target && BENCH_ITERS=3 cargo run --quiet --release \
        -p xtuml-bench --bin scaling )
    awk '
        /"aggregate_signals_per_sec"/  { cur = $2 + 0 }
        /"baseline_signals_per_sec"/   { base = $2 + 0 }
        END {
            if (base <= 0) { print "no baseline rate parsed"; exit 1 }
            ratio = cur / base
            printf "parallel bench: %.0f vs baseline %.0f (%.2fx)\n", cur, base, ratio
            if (ratio < 0.9) { print "FAIL: >10% regression"; exit 1 }
        }' target/BENCH_parallel.json
fi

# Snapshot/restore gates (DESIGN §15). The round-trip suite proves
# `restore(snapshot(sim))` continues byte-identically over the corpus
# and a generated sweep at shards {1,2,4}; the checkpointed fuzz smoke
# re-runs the interpreter leg with a snapshot/restore cycle every few
# dispatches across 200 generated models and must stay divergence-free.
cargo test -q --release --test snapshot_roundtrip
cargo run --quiet --release -- fuzz --seeds 200 --checkpoint \
    > target/fuzz-smoke-ckpt.txt
grep -q 'divergences      : 0' target/fuzz-smoke-ckpt.txt

# Serve smoke gate: the daemon's golden transcript — spawned server on
# loopback, every verb exercised including a restore-rewind whose
# continuation must equal the pre-restore run — compared byte-for-byte
# against the blessed golden. Any drift in the wire protocol, response
# field order, or session semantics fails here.
cargo run --quiet --release -- serve --smoke > target/serve-smoke.txt
cmp target/serve-smoke.txt tests/golden/serve_smoke.txt

# Serve load gate: the session-conformance suite, then one fresh
# measurement against the blessed baseline. The harness runs best-of-3
# to absorb scheduler noise; fail on a >10% regression or if the rate
# ever drops below the 1k sessions/s acceptance floor.
cargo test -q --release -p xtuml-serve
if [ -f BENCH_serve.baseline.json ]; then
    cp BENCH_serve.baseline.json target/
    ( cd target && cargo run --quiet --release -p xtuml-bench --bin serve_load )
    awk '
        /"aggregate_sessions_per_sec"/ { cur = $2 + 0 }
        /"baseline_sessions_per_sec"/  { base = $2 + 0 }
        END {
            if (base <= 0) { print "no serve baseline rate parsed"; exit 1 }
            ratio = cur / base
            printf "serve bench: %.0f vs baseline %.0f sessions/s (%.2fx)\n", cur, base, ratio
            if (cur < 1000) { print "FAIL: below the 1k sessions/s floor"; exit 1 }
            if (ratio < 0.9) { print "FAIL: >10% regression"; exit 1 }
        }' target/BENCH_serve.json
fi
