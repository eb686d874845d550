#!/usr/bin/env bash
# Gates the core bench rollup (scripts/bench_core.sh) against the committed
# BENCH_core.json: every rate must stay above baseline/4 (shared hardware
# jitters; a 4x slide is a regression, not noise), and
# merge_tree_allocs_per_merge — an absolute count, not a rate — may not
# grow past 4x the committed value.
#
#   usage: scripts/bench_regression.sh <current.json> [baseline.json]
set -euo pipefail

field() { grep -o "\"$2\": *[0-9.]*" "$1" | head -1 | grep -o '[0-9.]*$'; }

ge_floor() { awk -v c="$1" -v b="$2" 'BEGIN { exit !(c >= b / 4) }'; }
le_ceiling() { awk -v c="$1" -v b="$2" 'BEGIN { exit !(c <= b * 4) }'; }

cur=${1:?usage: bench_regression.sh <current.json> [baseline.json]}
base=${2:-$(dirname "$0")/../BENCH_core.json}
fail=0
rates="ingest_keys_per_s sharded8_keys_per_s merge_tree_merges_per_s \
  codec_encode_mb_s codec_decode_mb_s merge_from_disk_mb_s \
  merge_from_disk_merges_per_s answer_batch_1d_qps answer_loop_1d_qps \
  answer_batch_2d_qps answer_loop_2d_qps store_hot_8t_ops_per_s \
  cold_query_view_qps cold_query_decode_qps interval_per_s"
for name in $rates; do
  c=$(field "$cur" "$name" || true)
  b=$(field "$base" "$name" || true)
  if [ -z "$c" ] || [ -z "$b" ]; then
    echo "FAIL: $name missing from $([ -z "$c" ] && echo "$cur" || echo "$base")"
    fail=1
    continue
  fi
  if ge_floor "$c" "$b"; then
    echo "OK:   $name $c >= floor $(awk -v b="$b" 'BEGIN{printf "%.1f", b/4}') (baseline $b / 4)"
  else
    echo "FAIL: $name $c fell below floor $(awk -v b="$b" 'BEGIN{printf "%.1f", b/4}') (baseline $b / 4)"
    fail=1
  fi
done
c=$(field "$cur" merge_tree_allocs_per_merge || true)
b=$(field "$base" merge_tree_allocs_per_merge || true)
if [ -n "$c" ] && [ -n "$b" ] && le_ceiling "$c" "$b"; then
  echo "OK:   merge_tree_allocs_per_merge $c <= ceiling $(awk -v b="$b" 'BEGIN{printf "%.1f", b*4}') (baseline $b * 4)"
else
  echo "FAIL: merge_tree_allocs_per_merge ${c:-missing} exceeded ceiling (baseline ${b:-missing} * 4)"
  fail=1
fi
exit "$fail"
