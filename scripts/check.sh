#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, tests — fully offline.
# Usage: scripts/check.sh [--no-clippy]
set -euo pipefail
cd "$(dirname "$0")/.."

run_clippy=1
for arg in "$@"; do
    case "$arg" in
    --no-clippy) run_clippy=0 ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [ "$run_clippy" = 1 ]; then
    echo "==> cargo clippy (deny warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> every bench target (each case once, release)"
# Runs every case of every cmvrp-bench bench target once in the release
# profile and writes no snapshot: among them the exact-ω* offline_bounds
# cases on the benchmark's uniform 120² and clusters 64² demands, and the
# online_sim flash-crowd cases with the inline monitors on and off.
cargo bench --offline -p cmvrp-bench --benches -- --test

echo "==> benchmark package (build + tests)"
# `benchmark/` is a package of its own (not a workspace member) that
# compiles against cmvrp-obs, cmvrp-bench and the engine crates; build and
# test it here so an API change to those crates cannot break it unnoticed.
CARGO_TARGET_DIR=target cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> trace check (golden trace)"
# End-to-end invariant sweep through the release CLI: the committed golden
# trace must satisfy every monitor, and a fresh run with --check must agree
# with itself online.
./target/release/cmvrp trace check tests/data/golden_point.jsonl
./target/release/cmvrp simulate point:grid=6,demand=200 --seed=3 --check >/dev/null

echo "==> sharded determinism + inline check (1, 2 and 3 workers)"
# The parallel-engine oracle: the streamed merged trace must be
# semantically identical across worker counts — 1, 2 and 3 workers own
# this grid's 3 shards in three different ways — with the inline
# monitors (per-shard + merge-time) clean on every run.
# `trace diff` replaces `cmp` here: on a regression it names the first
# divergent line, its time band, and whether the drift is payload,
# reordering, or a different event set — instead of a bare byte offset.
t1=$(mktemp)
t2=$(mktemp)
t3=$(mktemp)
m1=$(mktemp)
b1=$(mktemp)
b2=$(mktemp)
r1=$(mktemp)
r2=$(mktemp)
r3=$(mktemp)
ck=$(mktemp)
s1=$(mktemp)
s2=$(mktemp)
s3=$(mktemp)
sl=$(mktemp)
n1=$(mktemp)
n2=$(mktemp)
n3=$(mktemp)
n4=$(mktemp)
n5=$(mktemp)
n6=$(mktemp)
w1=$(mktemp)
w2=$(mktemp)
cd1=$(mktemp -d)
trap 'rm -f "$t1" "$t2" "$t3" "$m1" "$b1" "$b2" "$r1" "$r2" "$r3" "$ck" "$s1" "$s2" "$s3" "$sl" "$n1" "$n2" "$n3" "$n4" "$n5" "$n6" "$w1" "$w2"; rm -rf "$cd1"' EXIT
./target/release/cmvrp simulate point:grid=12,demand=250 --seed=3 \
    --threads=1 --check --trace-jsonl="$t1" >/dev/null
./target/release/cmvrp simulate point:grid=12,demand=250 --seed=3 \
    --threads=2 --check --trace-jsonl="$t2" >/dev/null
./target/release/cmvrp trace diff "$t1" "$t2" >/dev/null
./target/release/cmvrp simulate point:grid=12,demand=250 --seed=3 \
    --threads=3 --check --trace-jsonl="$t3" >/dev/null
./target/release/cmvrp trace diff "$t1" "$t3" >/dev/null
# The same oracle with the §3.2.5 heartbeat ring on: each shard ticks its
# own cubes, so the monitored trace must not move either.
./target/release/cmvrp simulate point:grid=12,demand=250 --seed=3 --monitored \
    --threads=1 --check --trace-jsonl="$w1" >/dev/null
./target/release/cmvrp simulate point:grid=12,demand=250 --seed=3 --monitored \
    --threads=3 --check --trace-jsonl="$w2" >/dev/null
./target/release/cmvrp trace diff "$w1" "$w2" >/dev/null

echo "==> trace diff self-test (golden self-diff, then a seeded mutation)"
# The differ itself is under test: the golden trace must diff identical
# against itself (exit 0), and a copy with one field flipped on line 3
# must diff divergent (exit 1) naming that exact line and field.
./target/release/cmvrp trace diff \
    tests/data/golden_point.jsonl tests/data/golden_point.jsonl >/dev/null
sed '3s/"vehicle":14/"vehicle":15/' tests/data/golden_point.jsonl >"$m1"
if diff_out=$(./target/release/cmvrp trace diff \
    tests/data/golden_point.jsonl "$m1"); then
    echo "trace diff missed a seeded mutation" >&2
    exit 1
fi
echo "$diff_out" | grep -q "first divergence at line 3" || {
    echo "trace diff mislocated the seeded mutation:" >&2
    echo "$diff_out" >&2
    exit 1
}
echo "$diff_out" | grep -q "vehicle: 14 (A) vs 15 (B)" || {
    echo "trace diff missed the mutated field:" >&2
    echo "$diff_out" >&2
    exit 1
}

echo "==> checkpoint/resume determinism (stop at round 4, resume, stitch)"
# The resume-equivalence oracle: a run stopped at round 4 with a CMVC
# checkpoint, then resumed from it, must emit exactly the trace suffix
# of an uninterrupted run — the stitched head+tail trace diffs clean
# against the full one (3 workers; the resumed run inherits the worker
# count from the checkpoint). The round-4 checkpoint must also equal the
# committed golden byte for byte, so a change to the CMVC layout fails
# here as well as in tests/checkpoint_golden.rs.
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 \
    --threads=3 --trace-jsonl="$r1" >/dev/null
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 \
    --threads=3 --checkpoint="$ck" --stop-at-round=4 \
    --trace-jsonl="$r2" >/dev/null
cmp "$ck" tests/data/golden_clusters_round4.cmvc
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 \
    --resume-from="$ck" --trace-jsonl="$r3" >/dev/null
cat "$r2" "$r3" >"$m1"
./target/release/cmvrp trace diff "$r1" "$m1" >/dev/null
./target/release/cmvrp ckpt inspect "$ck" | grep -q "round 4" || {
    echo "ckpt inspect did not report the stop round" >&2
    exit 1
}
# The same oracle in monitored mode: the checkpoint carries the ring's
# watch targets and heartbeat clocks, so the resumed tail still stitches.
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 --monitored \
    --threads=3 --trace-jsonl="$r1" >/dev/null
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 --monitored \
    --threads=3 --checkpoint="$ck" --stop-at-round=4 \
    --trace-jsonl="$r2" >/dev/null
cmp "$ck" tests/data/golden_clusters_round4_monitored.cmvc
./target/release/cmvrp simulate clusters:grid=12,k=3,jobs=180,seed=9 --monitored \
    --resume-from="$ck" --trace-jsonl="$r3" >/dev/null
cat "$r2" "$r3" >"$m1"
./target/release/cmvrp trace diff "$r1" "$m1" >/dev/null

echo "==> campaign smoke (fault-injected kill recovers; hopeless run -> DLQ)"
# The campaign runner must resume a SIGKILLed run from its last
# checkpoint and dead-letter a run whose every attempt fails; the dead
# run makes the whole campaign exit 1 (scriptable, like trace diff).
cat >"$cd1/panel.spec" <<'EOF'
backoff_ms = 10

[recovers]
workload = clusters:grid=12,k=3,jobs=180,seed=9
threads = 2
checkpoint_every = 2
retries = 2
inject_kill = 1

[doomed]
workload = blob:grid=4
retries = 1
EOF
if camp_out=$(./target/release/cmvrp campaign run "$cd1/panel.spec" \
    --dir="$cd1/state" --bin=./target/release/cmvrp); then
    echo "campaign with a doomed run should exit 1" >&2
    exit 1
fi
echo "$camp_out" | grep -q "recovers: done after 2 attempt(s)" || {
    echo "campaign did not recover the killed run from its checkpoint:" >&2
    echo "$camp_out" >&2
    exit 1
}
echo "$camp_out" | grep -q "dead-letter: 1 run(s)" || {
    echo "campaign did not dead-letter the hopeless run:" >&2
    echo "$camp_out" >&2
    exit 1
}
if ./target/release/cmvrp campaign status "$cd1/state" >/dev/null; then
    echo "campaign status should exit 1 while the DLQ is non-empty" >&2
    exit 1
fi

echo "==> binary trace roundtrip (golden trace JSONL -> bin -> JSONL)"
# The binary encoding must be lossless (byte-identical JSONL after a full
# roundtrip) and the monitors must accept the binary file directly.
./target/release/cmvrp trace convert tests/data/golden_point.jsonl "$b1" >/dev/null
./target/release/cmvrp trace convert "$b1" "$b2" >/dev/null
cmp tests/data/golden_point.jsonl "$b2"
./target/release/cmvrp trace check "$b1"

echo "==> serve smoke (wire-injected session vs offline run)"
# The serve oracle: a live session opened over the wire and fed the golden
# point workload job-by-job through `inject` must stream back a trace
# byte-identical to the offline one-shot run of the same schedule. The
# listener exits on its own after one connection; `trace diff` is the
# equivalence judge, as everywhere else.
./target/release/cmvrp simulate point:grid=11,demand=40 --threads=2 \
    --trace-jsonl="$s1" >/dev/null
./target/release/cmvrp serve listen --addr=127.0.0.1:0 --connections=1 \
    >"$sl" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving on //p' "$sl")
    [ -n "$addr" ] && break
    sleep 0.05
done
[ -n "$addr" ] || {
    echo "serve listen did not print its bound address:" >&2
    cat "$sl" >&2
    exit 1
}
{
    printf '{"op":"open","session":"smoke","workload":"point:grid=11,demand=40","threads":2,"preload":false}\n'
    for _ in $(seq 1 40); do
        printf '{"op":"inject","session":"smoke","job":[5,5]}\n'
    done
    printf '{"op":"advance","session":"smoke"}\n'
    printf '{"op":"trace","session":"smoke"}\n'
    printf '{"op":"close","session":"smoke"}\n'
} | ./target/release/cmvrp serve send "$addr" >"$s2"
wait "$serve_pid"
grep -q '"served":40,"unserved":0' "$s2" || {
    echo "serve session did not serve the injected demand:" >&2
    cat "$s2" >&2
    exit 1
}
grep '"ev":' "$s2" >"$s3"
./target/release/cmvrp trace diff "$s1" "$s3" >/dev/null

echo "==> scenario smoke (one file drives scenario run, simulate, campaign, serve)"
# The scenario oracle: the committed earthquake scenario is a default
# (batch, fault-free) workload, so every frontend that accepts it must
# produce a trace byte-identical to the equivalent flag spec — and the
# summary table `scenario run` prints must match the committed golden.
./target/release/cmvrp scenario check scenarios/earthquake.toml >/dev/null
./target/release/cmvrp scenario run scenarios/earthquake.toml >"$n1"
diff tests/data/golden_scenario_summary.txt "$n1" || {
    echo "scenario run summary drifted from the golden" >&2
    exit 1
}
# The million-vehicle point source: ω_c 6, ω* 10, W 182 and max energy 181
# on a 1024x1024 grid, pinned the same way.
./target/release/cmvrp scenario run scenarios/million_point.toml >"$n1"
diff tests/data/golden_million_point_summary.txt "$n1" || {
    echo "million-point scenario summary drifted from the golden" >&2
    exit 1
}
./target/release/cmvrp simulate point:grid=11,demand=40 --threads=2 \
    --trace-jsonl="$n2" >/dev/null
./target/release/cmvrp simulate @scenarios/earthquake.toml --threads=2 \
    --trace-jsonl="$n3" >/dev/null
./target/release/cmvrp trace diff "$n2" "$n3" >/dev/null
./target/release/cmvrp scenario run scenarios/earthquake.toml --threads=2 \
    --trace-jsonl="$n4" >/dev/null
./target/release/cmvrp trace diff "$n2" "$n4" >/dev/null
cat >"$cd1/quake.spec" <<'EOF'
[quake]
workload = @scenarios/earthquake.toml
threads = 2
EOF
./target/release/cmvrp campaign run "$cd1/quake.spec" \
    --dir="$cd1/quake-state" --bin=./target/release/cmvrp >/dev/null
./target/release/cmvrp serve listen --addr=127.0.0.1:0 --connections=1 \
    >"$n5" &
scen_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving on //p' "$n5")
    [ -n "$addr" ] && break
    sleep 0.05
done
[ -n "$addr" ] || {
    echo "serve listen did not print its bound address:" >&2
    cat "$n5" >&2
    exit 1
}
{
    printf '{"op":"open","session":"quake","workload":"@scenarios/earthquake.toml","threads":2}\n'
    printf '{"op":"advance","session":"quake"}\n'
    printf '{"op":"trace","session":"quake"}\n'
    printf '{"op":"close","session":"quake"}\n'
} | ./target/release/cmvrp serve send "$addr" >"$n6"
wait "$scen_pid"
grep -q '"served":40,"unserved":0' "$n6" || {
    echo "serve session did not serve the scenario demand:" >&2
    cat "$n6" >&2
    exit 1
}
grep '"ev":' "$n6" >"$n1"
./target/release/cmvrp trace diff "$n2" "$n1" >/dev/null
# The fault-bearing scenario: rejected by simulate, executed (crash +
# resume from snapshot) by scenario run.
if ./target/release/cmvrp simulate @scenarios/crashy.toml >/dev/null 2>&1; then
    echo "simulate must reject fault-bearing scenarios" >&2
    exit 1
fi
./target/release/cmvrp scenario run scenarios/crashy.toml |
    grep -q "recovery: crashed + resumed from snapshot at rounds 4, 9" || {
    echo "scenario run did not execute the crashy fault script" >&2
    exit 1
}

echo "==> all checks passed"
