#!/usr/bin/env bash
# Tier-1 verification: the workspace test suite, the release torture and
# differential suites, the recovery profiler's absolute assertions, a
# threaded and an event-loop ledgerd smoke, and one short benchmark run
# per workload.
# Every gate is structural; none compares a wall-clock figure to a bound
# (the benchmark, `bash benchmark/run.sh`, owns performance).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo test --workspace -q (every crate's unit tests + root suites) =="
cargo test --workspace -q

echo "== recorder seqlock torture (release, 200 runs) =="
# Writers start behind a barrier; the test asserts every writer recorded
# and some scan overlapped a write, and that no scan saw a torn slot.
RECORDER_TEST="$(cargo test --release -p ledgerdb-telemetry --lib --no-run 2>&1 \
  | sed -n 's/^ *Executable unittests src\/lib.rs (\(.*\))$/\1/p')"
[[ -x "$RECORDER_TEST" ]] || { echo "no ledgerdb-telemetry test binary"; exit 1; }
for RUN in $(seq 1 200); do
  OUT="$("$RECORDER_TEST" -q --exact recorder::tests::concurrent_writers_and_scanners_stay_consistent 2>&1)" \
    || { printf '%s\n' "$OUT"; echo "recorder torture failed on run $RUN"; exit 1; }
done

echo "== cargo build --release (workspace, every target) =="
# --workspace matters: the root Cargo.toml is a package + workspace, so a
# bare `cargo build` would skip the member crates' binaries (ledgerd,
# ledgerd-smoke, ledgerd-stats) that the smoke stages below execute.
# --all-targets adds the examples and `crates/bench/benches/*`, which no
# test compiles: an API change that breaks them fails here.
cargo build --release --workspace --all-targets

echo "== release suites (torture, crash points, differential oracles) =="
# torture_recovery: seeded fault sweep through the durability layer.
# crash_points: every checkpoint I/O site killed, recovered byte-identical.
# torture_snapshot: lock-free readers vs an occult/purge writer.
# differential_pipeline / _shard / _state / _servers: pinned fingerprints
# across admission, shard counts, state backends and transports;
# _state also gates the binary trie's >=4x witness ratio.
# integration_persistence: export = checkpoint, import = open_durable.
# event_loop: hostile slow clients and 4,096 simultaneous connections.
# trace_pipeline: the traced commit's stage skeleton, in order.
# prop_clue: the kernel's clue index against the skip-list oracle.
# block_hash_once: one header hash per block, with a snapshot hub too.
cargo test --release -q \
  --test torture_recovery --test crash_points --test torture_snapshot \
  --test differential_pipeline --test differential_shard \
  --test differential_state --test differential_servers \
  --test integration_persistence --test prop_bintrie \
  --test event_loop --test trace_pipeline --test sha256_counter \
  --test prop_clue --test block_hash_once

echo "== profiler assertions (checkpointed restart) =="
# The checkpointed reopen loads HEAD and replays at most the
# post-checkpoint tail, and agrees with full replay on the prefix root.
# (The lock-window check, zero ECDSA and at most 7 sha256 finalizes per
# request in the write lock, is tests/lock_window.rs, run above.)
./target/release/prof_recovery --checkpoint-ab

echo "== hash kernel (SHA-NI vs portable differential) =="
# On a CPU without SHA extensions the accelerated cases print "skipped".
KERNEL_OUT="$(cargo test --release -q --test prop_crypto -- --nocapture 2>&1)" \
  || { printf '%s\n' "$KERNEL_OUT"; exit 1; }
printf '%s\n' "$KERNEL_OUT" | grep -oE 'sha256 kernel: [a-z-]+|[^.]*skipped.*' \
  || { echo "prop_crypto did not name the sha256 kernel"; exit 1; }

echo "== server smoke (ledgerd + remote verify + kill -9 + recovery) =="
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ledgerd-smoke.XXXXXX")"
SMOKE_LOG="$SMOKE_DIR/ledgerd.log"
cleanup() {
  [[ -n "${LEDGERD_PID:-}" ]] && kill -9 "$LEDGERD_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
# A zero dump interval would spin the metrics and trace dumpers in a
# tight loop: ledgerd refuses it with the usage message and exit 2
# before it opens the directory or binds (the timeout only guards a
# regression that would start serving instead).
ZERO_STATUS=0
timeout 10 ./target/release/ledgerd --dir "$SMOKE_DIR/zero-interval" --bind 127.0.0.1:0 \
  --metrics-interval-ms 0 > /dev/null 2>&1 || ZERO_STATUS=$?
[[ "$ZERO_STATUS" -eq 2 ]] \
  || { echo "ledgerd --metrics-interval-ms 0 exited $ZERO_STATUS, want 2"; exit 1; }
# --checkpoint-every-n-seals 1: every seal commits a checkpoint, so the
# kill -9 recovery below exercises checkpoint-load + tail-replay, not
# just raw WAL replay (the torture suites cover that path).
./target/release/ledgerd --dir "$SMOKE_DIR/ledger" --bind 127.0.0.1:0 \
  --seed verify-smoke --checkpoint-every-n-seals 1 > "$SMOKE_LOG" 2>&1 &
LEDGERD_PID=$!
disown "$LEDGERD_PID" 2>/dev/null || true  # keep kill -9 quiet
# The server prints "ledgerd: listening on ADDR" once bound.
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's/^ledgerd: listening on //p' "$SMOKE_LOG" | head -n1)"
  [[ -n "$ADDR" ]] && break
  kill -0 "$LEDGERD_PID" 2>/dev/null || { cat "$SMOKE_LOG"; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "ledgerd never reported its address"; cat "$SMOKE_LOG"; exit 1; }
# Append -> prove -> verify over the wire, as a distrusting client; the
# client re-proves its sealed jsns, which the snapshot path serves.
./target/release/ledgerd-smoke client --addr "$ADDR" --seed verify-smoke --n 16

# 16 committed appends just happened: the kernel must have counted every
# one, served them without a single error frame, served the re-proofs
# lock-free, and the sticky durability gauge must be clear.
./target/release/ledgerd-stats --addr "$ADDR" --quiet \
  --min ledger_appends_total=16 \
  --min ledger_seals_total=1 \
  --min ledger_checkpoints_total=1 \
  --min server_req_append_committed_total=16 \
  --min batch_windows_total=1 \
  --min storage_fsync_total=1 \
  --min server_bytes_in_total=1 \
  --min server_bytes_out_total=1 \
  --min ledger_snapshot_publish_total=1 \
  --min ledger_snapshot_hit_total=1 \
  --zero server_error_frames_total \
  --zero ledger_durability_error \
  --zero batch_queue_depth

# Kill the server without ceremony; every acked append must survive.
kill -9 "$LEDGERD_PID"
wait "$LEDGERD_PID" 2>/dev/null || true
LEDGERD_PID=""
./target/release/ledgerd-smoke recover --dir "$SMOKE_DIR/ledger" \
  --seed verify-smoke --expect-journals 16

echo "== event loop smoke (ledgerd --event-loop + HTTP operator plane) =="
# Same smoke client as the threaded stage, but through the epoll server,
# with the HTTP endpoints curled while appends are in flight.
./target/release/ledgerd --dir "$SMOKE_DIR/ledger-ev" --bind 127.0.0.1:0 \
  --seed verify-smoke --event-loop --http-addr 127.0.0.1:0 \
  > "$SMOKE_DIR/ledgerd-ev.log" 2>&1 &
LEDGERD_PID=$!
disown "$LEDGERD_PID" 2>/dev/null || true
EV_ADDR="" ; EV_HTTP=""
for _ in $(seq 1 50); do
  EV_ADDR="$(sed -n 's/^ledgerd: listening on //p' "$SMOKE_DIR/ledgerd-ev.log" | head -n1)"
  EV_HTTP="$(sed -n 's/^ledgerd: http on //p' "$SMOKE_DIR/ledgerd-ev.log" | head -n1)"
  [[ -n "$EV_ADDR" && -n "$EV_HTTP" ]] && break
  kill -0 "$LEDGERD_PID" 2>/dev/null || { cat "$SMOKE_DIR/ledgerd-ev.log"; exit 1; }
  sleep 0.1
done
[[ -n "$EV_ADDR" && -n "$EV_HTTP" ]] \
  || { echo "event-loop ledgerd never reported its addresses"; cat "$SMOKE_DIR/ledgerd-ev.log"; exit 1; }
# Append storm in the background while the operator plane is probed: the
# HTTP listener shares the loop with the binary listener, so a valid
# /metrics mid-storm proves neither starves the other.
./target/release/ledgerd-smoke client --addr "$EV_ADDR" --seed verify-smoke --n 64 &
SMOKE_CLIENT_PID=$!
curl -fsS "http://$EV_HTTP/healthz" | grep -q '^ok$' \
  || { echo "/healthz did not answer ok"; exit 1; }
curl -fsS "http://$EV_HTTP/status" | grep -q '"journal_root"' \
  || { echo "/status is not the expected JSON"; exit 1; }
# (No `grep -q` here: the exposition is larger than one pipe write, and
# a grep that exits at its first match makes curl fail under pipefail.)
curl -fsS "http://$EV_HTTP/metrics" | grep '^# TYPE server_loop_iterations_total counter' > /dev/null \
  || { echo "/metrics is not a valid exposition during the append storm"; exit 1; }
curl -fsS "http://$EV_HTTP/trace/slow" | grep -q '"slow"' \
  || { echo "/trace/slow is not the expected JSON"; exit 1; }
curl -fsS "http://$EV_HTTP/status" | grep -q '"snapshot_hits"' \
  || { echo "/status lacks the snapshot read counters"; exit 1; }
wait "$SMOKE_CLIENT_PID" || { echo "smoke client failed against the event loop"; exit 1; }
# With the storm committed, a proof is servable over plain HTTP.
curl -fsS "http://$EV_HTTP/proof/0" | grep -q '"tx_hash"' \
  || { echo "/proof/0 did not return a proof"; exit 1; }
./target/release/ledgerd-stats --addr "$EV_ADDR" --quiet \
  --min ledger_appends_total=64 \
  --min server_loop_iterations_total=1 \
  --min server_http_requests_total=4 \
  --zero ledger_durability_error
kill -9 "$LEDGERD_PID" 2>/dev/null || true
wait "$LEDGERD_PID" 2>/dev/null || true
LEDGERD_PID=""

echo "== benchmark smoke (one second of every workload, every ack audited) =="
for WORKLOAD in ingest verify-read lineage mixed; do
  bash benchmark/run.sh --workload "$WORKLOAD" --seconds 1 --trace 0 | tail -n1 \
    | grep -q '"correct": *true' \
    || { echo "ledgerbench $WORKLOAD smoke did not report correct:true"; exit 1; }
done

echo "verify.sh: all green"
