#!/usr/bin/env bash
# Offline release build, then the full run: every workload, five rounds
# each, one traced round each; results land in benchmark/out/results.json.
# Arguments are passed on to `ghba-benchmark run` (try --smoke).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
exec "${CARGO_TARGET_DIR:-target}/release/ghba-benchmark" run "$@"
