#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and the recovery
# torture run (fault injection through the durability layer).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (workspace: root lib + server/bench binaries) =="
# --workspace matters: the root Cargo.toml is a package + workspace, so a
# bare `cargo build` would skip the member crates' binaries (ledgerd,
# ledgerd-smoke, ledgerd-stats) that the smoke stages below execute.
cargo build --release --workspace

echo "== cargo test -q (workspace + integration + property tests) =="
cargo test -q

echo "== recovery torture (release, seeded fault sweep) =="
cargo test --release -q --test torture_recovery

echo "== recovery chaos (exhaustive checkpoint crash-point injection) =="
# Every injected write/fsync/rename/dirsync kill on the checkpoint path
# (plus torn-write variants) must recover byte-identical to the
# never-crashed control, with HEAD valid-or-absent.
cargo test --release -q --test crash_points

echo "== checkpointed restart gate (O(tail) vs O(history) A/B) =="
# Hard-asserts inside the binary: the checkpointed reopen loads HEAD and
# replays at most the post-checkpoint tail, never the whole history.
./target/release/prof_recovery --checkpoint-ab --json results/BENCH_recovery.json

echo "== snapshot torture (release, readers vs occult/purge writer) =="
cargo test --release -q --test torture_snapshot

echo "== write-path (one append entry, one format: oracles + lock window + smoke) =="
# The single batched entry must reproduce the fingerprints pinned before
# the serial in-lock path was deleted, under every pool x admission and
# against the plain-append reference; pool-task panics stay typed
# per-item failures. K=1 must be byte-identical to the plain-ledger
# service, K=4 runs deterministic and interleaving-independent, and a
# failed shard must not cost the other shards their acks. Export/import
# is checkpoint + open_durable: round trip, tamper, truncation.
cargo test --release -q --test differential_pipeline
cargo test --release -q --test differential_shard
cargo test --release -q --test integration_persistence

# Lock-window contract: prof_append hard-asserts zero in-lock ECDSA and
# at most 7 sha256 finalizes per request inside the write lock.
./target/release/prof_append --n 512 --payload 256 --workers 2 > /dev/null

# Structural gate only (no wall-clock assertion here): one second each
# of the two write workloads against a real ledgerd, every ack audited.
for WORKLOAD in ingest mixed; do
  bash benchmark/run.sh --workload "$WORKLOAD" --seconds 1 --trace 0 | tail -n1 \
    | grep -q '"correct": *true' \
    || { echo "ledgerbench $WORKLOAD smoke did not report correct:true"; exit 1; }
done

# Interleaved A/B: loadgen itself asserts byte-identical roots across
# every rep and that ledger_pool_tasks_total moved on the pooled cells.
# (2>&1: the human-readable banner + speedup line go to stderr, the
# JSON rows to stdout — the asserts below need both.)
PIPE_OUT="$(./target/release/loadgen --pipeline --appends 1024 --workers 4 \
  --batch-size 64 --reps 2 2>&1)"
printf '%s\n' "$PIPE_OUT" | tail -n1
SPEEDUP="$(printf '%s\n' "$PIPE_OUT" \
  | sed -n 's/^loadgen: append-pipeline speedup: \([0-9.]*\)x.*/\1/p')"
[[ -n "$SPEEDUP" ]] || { echo "no speedup line from loadgen --pipeline"; exit 1; }
printf '%s\n' "$PIPE_OUT" | grep -Eq '"workers":4.*"pool_tasks":[1-9]' \
  || { echo "ledger_pool_tasks_total never moved on the pooled cells"; exit 1; }
CORES="$(nproc)"
if [[ "$CORES" -gt 1 ]]; then
  # Real cores available: the pooled path must not lose to serial.
  awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.0) }' \
    || { echo "pooled append slower than serial on $CORES cores (${SPEEDUP}x)"; exit 1; }
else
  # Single core: no parallelism to win with — gate on near-parity so a
  # coordination-overhead regression still fails the build.
  echo "note: single core — gating pooled/serial on parity (>=0.85x), not speedup"
  awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 0.85) }' \
    || { echo "pooled append overhead too high (${SPEEDUP}x < 0.85x)"; exit 1; }
fi

echo "== sharded scale-out (composed-proof sweep) =="
# (The differential suite ran in the write-path stage.)
# The sweep audits itself: a distrusting client syncs every shard
# replica, mirrors the epoch anchors against its own verified roots,
# and hard-asserts that every sampled cross-shard proof composes and
# verifies against its OWN top anchor root — at every K.
mkdir -p results
SHARD_OUT="$(./target/release/loadgen --shards 1,2,4 --appends 1024 \
  --batch-size 64 2>&1)"
printf '%s\n' "$SHARD_OUT" | grep '"bench"' > results/BENCH_shard.json
printf '%s\n' "$SHARD_OUT" | tail -n1
for K in 1 2 4; do
  grep -q "\"shards\":$K,.*\"composed_verified\":true" results/BENCH_shard.json \
    || { echo "no verified composed-proof row for K=$K"; exit 1; }
done
SCALE="$(printf '%s\n' "$SHARD_OUT" \
  | sed -n 's/^loadgen: shard scale-out at K=4: \([0-9.]*\)x.*/\1/p')"
[[ -n "$SCALE" ]] || { echo "no scale-out line from loadgen --shards"; exit 1; }
if [[ "$CORES" -gt 1 ]]; then
  # Real cores: K=4 must at least hold parity with K=1 (near-linear on
  # quiet many-core boxes; >=0.9 absorbs CI noise without letting a
  # real serialization regression through).
  awk -v s="$SCALE" 'BEGIN { exit !(s >= 0.9) }' \
    || { echo "K=4 sharded appends regressed vs K=1 on $CORES cores (${SCALE}x)"; exit 1; }
else
  echo "note: single core — composed-proof audit is the gate (no wall-clock claim)"
fi

echo "== state-ab (pluggable commitment: differential suites + witness A/B) =="
# The default backend must stay byte-identical to the pre-refactor
# ledger (pinned fingerprints), both backends must agree on every
# observable behavior, and the binary trie's proofs must survive the
# tamper sweep.
cargo test --release -q --test differential_state
cargo test --release -q --test prop_bintrie
# Witness-size A/B at 10^5 keys. loadgen itself hard-asserts the >=4x
# structural gate (trie shape, valid on any core count) and that the
# per-backend ledger_proof_bytes/ledger_verify_seconds histograms were
# scraped off the exposition.
mkdir -p results
STATE_OUT="$(./target/release/loadgen --state-ab --keys 100000 --appends 2048 2>&1)"
printf '%s\n' "$STATE_OUT" | grep '"bench"' > results/BENCH_state.json
printf '%s\n' "$STATE_OUT" | tail -n1
RATIO="$(sed -n 's/.*"witness_ratio":\([0-9.]*\).*/\1/p' results/BENCH_state.json | head -n1)"
[[ -n "$RATIO" ]] || { echo "no witness_ratio in BENCH_state.json"; exit 1; }
awk -v r="$RATIO" 'BEGIN { exit !(r >= 4.0) }' \
  || { echo "binary witnesses not >=4x smaller (${RATIO}x)"; exit 1; }
if [[ "$CORES" -gt 1 ]]; then
  # Real cores: the binary backend may not cost more than 5% append
  # throughput vs the MPT default (positive delta = bin slower).
  DELTA="$(sed -n 's/.*"append_delta_pct":\(-\{0,1\}[0-9.]*\).*/\1/p' \
    results/BENCH_state.json | head -n1)"
  [[ -n "$DELTA" ]] || { echo "no append_delta_pct in BENCH_state.json"; exit 1; }
  awk -v d="$DELTA" 'BEGIN { exit !(d <= 5.0) }' \
    || { echo "binary backend regresses appends by ${DELTA}% (> 5%) on $CORES cores"; exit 1; }
else
  echo "note: single core — witness-ratio gate only (append delta not gated)"
fi

echo "== server smoke (ledgerd + remote verify + kill -9 + recovery) =="
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/ledgerd-smoke.XXXXXX")"
SMOKE_LOG="$SMOKE_DIR/ledgerd.log"
cleanup() {
  [[ -n "${LEDGERD_PID:-}" ]] && kill -9 "$LEDGERD_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT
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
# Append -> prove -> verify over the wire, as a distrusting client.
./target/release/ledgerd-smoke client --addr "$ADDR" --seed verify-smoke --n 16

echo "== telemetry (Stats over the wire, counters consistent) =="
# 16 committed appends just happened: the kernel must have counted every
# one, served them without a single error frame, and the sticky
# durability gauge must be clear.
./target/release/ledgerd-stats --addr "$ADDR" --quiet \
  --min ledger_appends_total=16 \
  --min ledger_seals_total=1 \
  --min ledger_checkpoints_total=1 \
  --min server_req_append_committed_total=16 \
  --min batch_windows_total=1 \
  --min storage_fsync_total=1 \
  --min server_bytes_in_total=1 \
  --min server_bytes_out_total=1 \
  --zero server_error_frames_total \
  --zero ledger_durability_error \
  --zero batch_queue_depth

echo "== read mix (snapshot path serves concurrent proof reads) =="
# Pound GetProof/GetTx/Verify from 2 readers while 1 writer appends,
# then assert the lock-free snapshot path actually served: the hit
# counter must move and the hostile-input sweep's error counter must
# not.
./target/release/loadgen --read-mix --addr "$ADDR" --seed verify-smoke \
  --readers 2 --read-secs 1
./target/release/ledgerd-stats --addr "$ADDR" --quiet \
  --min ledger_snapshot_publish_total=1 \
  --min ledger_snapshot_hit_total=1 \
  --zero server_error_frames_total

# Kill the server without ceremony; every acked append must survive.
kill -9 "$LEDGERD_PID"
wait "$LEDGERD_PID" 2>/dev/null || true
LEDGERD_PID=""
./target/release/ledgerd-smoke recover --dir "$SMOKE_DIR/ledger" \
  --seed verify-smoke --expect-journals 16

echo "== event loop (differential transport + slow-client suites) =="
# Byte-identical responses across the threaded and epoll transports for
# the full request mix, and the hostile-slow-client suite (trickle,
# slowloris, half-close) against a 4-slot loop.
cargo test --release -q --test differential_servers
cargo test --release -q --test event_loop

echo "== event loop (ledgerd --event-loop smoke + HTTP operator plane) =="
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

echo "== event loop (concurrency sweep: 64 / 512 / 4096 connections) =="
# Each cell holds N sockets open SIMULTANEOUSLY and drives every one of
# them through its rounds; loadgen hard-asserts (structural gate, valid
# on any core count) that every connection was served, that the loop's
# own gauge saw all N at peak, and that /metrics answered mid-storm.
ulimit -n 20000 2>/dev/null \
  || echo "note: could not raise fd limit; current: $(ulimit -n)"
mkdir -p results
./target/release/loadgen --connections 64,512,4096 --rounds 3 \
  | tee results/BENCH_net.json
if [[ "$CORES" -gt 1 ]]; then
  # Real cores: gate client-observed tail latency at the 4096 cell.
  P99="$(sed -n 's/.*"connections":4096,.*"p99_ms":\([0-9.]*\).*/\1/p' \
    results/BENCH_net.json | head -n1)"
  [[ -n "$P99" ]] || { echo "no 4096-connection row in BENCH_net.json"; exit 1; }
  awk -v p="$P99" 'BEGIN { exit !(p <= 250.0) }' \
    || { echo "p99 at 4096 connections too high on $CORES cores (${P99}ms > 250ms)"; exit 1; }
else
  echo "note: single core — structural gates only (loadgen's internal asserts)"
fi

echo "== tracing (span-tree suites + stage breakdown + overhead A/B) =="
# Transport-differential span trees + hostile envelope rejection ran in
# differential_servers above; trace_pipeline pins stage presence, the
# queue→lock→seal→fsync ordering, the seal-leg spans vs ledger_seal_*
# histogram agreement, and the forced-slow pin-and-resolve round trip.
cargo test --release -q --test trace_pipeline
# loadgen --trace hard-asserts (any core count): every sampled traced
# commit yields the full stage skeleton in commit order, joined from a
# remote client by the id the call carried. Its JSON rows carry the
# per-stage p50/p99 table and the interleaved A/B overhead.
mkdir -p results
TRACE_OUT="$(./target/release/loadgen --trace --appends 512 --reps 3 2>&1)"
printf '%s\n' "$TRACE_OUT" | grep '"bench"' > results/BENCH_trace.json
printf '%s\n' "$TRACE_OUT" | tail -n1
grep -q '"seal_fam"' results/BENCH_trace.json \
  || { echo "stage table lacks the seal legs"; exit 1; }
OVERHEAD="$(sed -n 's/.*"overhead":\(-\{0,1\}[0-9.]*\).*/\1/p' \
  results/BENCH_trace.json | head -n1)"
[[ -n "$OVERHEAD" ]] || { echo "no overhead figure from loadgen --trace"; exit 1; }
if [[ "$CORES" -gt 1 ]]; then
  # Median traced throughput within 2% of median untraced.
  awk -v o="$OVERHEAD" 'BEGIN { exit !(o <= 0.02) }' \
    || { echo "tracing overhead above 2% of median throughput (${OVERHEAD})"; exit 1; }
else
  echo "note: single core — structural trace gates only (overhead not gated)"
fi

echo "== hash-kernel (SHA-NI vs portable differential + lineage smoke) =="
# Accelerated vs portable SHA-256 over every length, split point and
# source alignment, plus the NIST vectors on both kernels; on a CPU
# without SHA extensions the accelerated cases print "skipped".
KERNEL_OUT="$(cargo test --release -q --test prop_crypto -- --nocapture 2>&1)" \
  || { printf '%s\n' "$KERNEL_OUT"; exit 1; }
printf '%s\n' "$KERNEL_OUT" | grep -oE 'sha256 kernel: [a-z-]+|[^.]*skipped.*' \
  || { echo "prop_crypto did not name the sha256 kernel"; exit 1; }
# The counter contract the benchmark's per-append/per-prove counts and
# prof_append's in-lock assertions rest on.
cargo test --release -q --test sha256_counter
# Structural gate only (no wall-clock assertion here): one second of the
# lineage workload against a real ledgerd, every clue proof verified.
bash benchmark/run.sh --workload lineage --seconds 1 --trace 0 | tail -n1 \
  | grep -q '"correct": *true' \
  || { echo "ledgerbench lineage smoke did not report correct:true"; exit 1; }

echo "verify.sh: all green"
