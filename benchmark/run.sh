#!/usr/bin/env bash
# The one command: build ledgerd and ledgerbench from source, then run.
#
#   bash benchmark/run.sh                          every workload, untraced then
#                                                  traced; writes benchmark/out/result.json
#   bash benchmark/run.sh --workload ingest --seed 7 --seconds 10 --trace 0
#                                                  one run; the last line of stdout is
#                                                  the result object (what the driver calls)
#
# Flags (all optional): --workload NAME  --seed N  --seconds S  --trace 0|1
# Run from the root of a checkout. Exits non-zero if anything fails to build
# or a correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Build outputs go where the caller points CARGO_TARGET_DIR, else under target/.
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's chatter goes to stderr; stdout carries only results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p ledgerdb-server --bin ledgerd >&2
cargo build --release --offline --manifest-path "$root/benchmark/Cargo.toml" >&2

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/ledgerbench" run \
    --ledgerd "$target/release/ledgerd" \
    --out benchmark/out \
    --git-rev "$rev" \
    "$@"
