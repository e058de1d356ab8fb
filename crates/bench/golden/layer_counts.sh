#!/usr/bin/env bash
# Prints the count golden: `attempted`, `failed` and the count-type
# per-layer metrics of one short traced `ghba-benchmark` round (seed 1) of
# each deterministic workload, one `workload metric value` line each.
# Counts follow from the op stream and the seed alone, so unlike wall-clock
# metrics they are the same on any host: CI diffs this output against
# `layer_counts.txt`. `net_mixed` stays out: its background reconciler
# makes the level shares timing-dependent. Accept an intended change with
#   crates/bench/golden/layer_counts.sh > crates/bench/golden/layer_counts.txt
set -euo pipefail
cd "$(dirname "$0")/../../.."

counts='cluster\.level_(l2|l3|l4|miss)_share|cluster\.mask_hit_rate|cluster\.filter_bytes_per_file'
counts+='|sim\.msgs_per_lookup|sim\.lookup_latency_us|sim\.update_(msgs|bytes)_per_write'
counts+='|bloom\.slab_bytes|reconfig\.actions|concurrent\.records_per_drain'
counts+='|wal\.bytes_per_write_op|wal\.recover_records|wal\.checkpoint_bytes'

for workload in read_hot write_churn reconfig_reads; do
  result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --scale 0.05 --trace 1 | tail -n 1)
  grep -oE "\"(attempted|failed)\": [^,]+|\"($counts)\": \\{\"value\": [^,]+" <<<"$result" |
    sed -E -e 's/[":{]//g' -e 's/ value / /' -e "s/^/$workload /"
done
