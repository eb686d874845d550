#!/usr/bin/env bash
# Runs the five core (non-store) bench bins — sharded, codec, query,
# one_dim, cold — and merges their headline fields into one flat JSON with
# the shape committed as BENCH_core.json, for scripts/bench_regression.sh
# to gate on.
#
#   usage: scripts/bench_core.sh <out.json> [bin-dir]
#
# Scale knobs pass through to the bins (SAS_SHARD_N, SAS_CODEC_N,
# SAS_QUERY_ITEMS, SAS_ONEDIM_N, SAS_COLD_WINDOWS, ...); with smaller
# inputs the rates only go up, so a bounded CI run stays safe against the
# committed floors. The one_dim error fields are recorded for the
# trajectory but not gated — they shift with N, and the accuracy envelopes
# are pinned by the test suite instead.
set -euo pipefail

out=${1:?usage: bench_core.sh <out.json> [bin-dir]}
bindir=${2:-$(dirname "$0")/../target/release}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bin in sharded codec query one_dim cold; do
  status=0
  "$bindir/$bin" --json "$tmp/$bin.json" >/dev/null || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: bench bin '$bin' crashed (exit $status); no JSON to merge" >&2
    exit 1
  fi
  if [ ! -s "$tmp/$bin.json" ]; then
    echo "FAIL: bench bin '$bin' exited 0 but wrote no JSON to $tmp/$bin.json" >&2
    exit 1
  fi
done

# Extracts a numeric field, failing loudly when it is absent — a silently
# empty value would render as invalid JSON and surface as a confusing
# parse error much later. Callers capture via `var=$(field ...)`, where
# `set -e` turns the inner exit into a script abort.
field() {
  v=$(grep -o "\"$2\": *[0-9.]*" "$1" | head -1 | grep -o '[0-9.]*$' || true)
  if [ -z "$v" ]; then
    echo "FAIL: field '$2' missing from $1 (did the bin change its JSON shape?)" >&2
    exit 1
  fi
  echo "$v"
}

ingest_keys_per_s=$(field "$tmp/sharded.json" ingest_keys_per_s)
sharded8_keys_per_s=$(field "$tmp/sharded.json" sharded8_keys_per_s)
merge_tree_merges_per_s=$(field "$tmp/sharded.json" merge_tree_merges_per_s)
merge_tree_allocs_per_merge=$(field "$tmp/sharded.json" merge_tree_allocs_per_merge)
codec_encode_mb_s=$(field "$tmp/codec.json" codec_encode_mb_s)
codec_decode_mb_s=$(field "$tmp/codec.json" codec_decode_mb_s)
merge_from_disk_mb_s=$(field "$tmp/codec.json" merge_from_disk_mb_s)
merge_from_disk_merges_per_s=$(field "$tmp/codec.json" merge_from_disk_merges_per_s)
answer_batch_1d_qps=$(field "$tmp/query.json" answer_batch_1d_qps)
answer_loop_1d_qps=$(field "$tmp/query.json" answer_loop_1d_qps)
answer_batch_2d_qps=$(field "$tmp/query.json" answer_batch_2d_qps)
answer_loop_2d_qps=$(field "$tmp/query.json" answer_loop_2d_qps)
store_hot_8t_ops_per_s=$(field "$tmp/query.json" store_hot_8t_ops_per_s)
interval_per_s=$(field "$tmp/query.json" interval_per_s)
cold_query_view_qps=$(field "$tmp/cold.json" cold_query_view_qps)
cold_query_decode_qps=$(field "$tmp/cold.json" cold_query_decode_qps)

{
  echo '{'
  echo '  "bench": "core",'
  printf '  "%s": %s,\n' \
    ingest_keys_per_s "$ingest_keys_per_s" \
    sharded8_keys_per_s "$sharded8_keys_per_s" \
    merge_tree_merges_per_s "$merge_tree_merges_per_s" \
    merge_tree_allocs_per_merge "$merge_tree_allocs_per_merge" \
    codec_encode_mb_s "$codec_encode_mb_s" \
    codec_decode_mb_s "$codec_decode_mb_s" \
    merge_from_disk_mb_s "$merge_from_disk_mb_s" \
    merge_from_disk_merges_per_s "$merge_from_disk_merges_per_s" \
    answer_batch_1d_qps "$answer_batch_1d_qps" \
    answer_loop_1d_qps "$answer_loop_1d_qps" \
    answer_batch_2d_qps "$answer_batch_2d_qps" \
    answer_loop_2d_qps "$answer_loop_2d_qps" \
    cold_query_view_qps "$cold_query_view_qps" \
    cold_query_decode_qps "$cold_query_decode_qps" \
    interval_per_s "$interval_per_s"
  printf '  "%s": %s\n' \
    store_hot_8t_ops_per_s "$store_hot_8t_ops_per_s"
  echo '}'
} > "$out"
echo "wrote $out"
