#!/usr/bin/env bash
# End-to-end CLI workflow: generate a trace, replay it through PrintQueue,
# save register records, and query them offline. Each stage must succeed
# and the outputs must be non-trivial.
#
# $1 is the directory holding the pq_* binaries; a build root (the ctest
# invocation passes $<TARGET_FILE_DIR:pq_gentrace>, but humans often pass
# `build`) is accepted too and resolved to its tools/ subdirectory.
set -euo pipefail

TOOLS_DIR="${1:?usage: cli_workflow_test.sh <tools-dir-or-build-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_gentrace" && -x "$TOOLS_DIR/tools/pq_gentrace" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
if [[ ! -x "$TOOLS_DIR/pq_gentrace" ]]; then
  echo "pq_gentrace not found under '$1'" >&2
  exit 2
fi
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$TOOLS_DIR/pq_gentrace" burst "$WORK/t.pqt" --ms 8 --seed 3 | tee "$WORK/gen.log"
grep -q "records" "$WORK/gen.log"

"$TOOLS_DIR/pq_replay" "$WORK/t.pqt" --top 3 --save-records "$WORK/t.pqr" \
  --metrics-out "$WORK/metrics.json" --metrics-prom "$WORK/metrics.prom" \
  | tee "$WORK/replay.log"
grep -q "direct culprits" "$WORK/replay.log"
grep -q "accuracy vs trace ground truth" "$WORK/replay.log"
grep -q "register records saved" "$WORK/replay.log"

# --metrics-out / --metrics-prom produce well-formed, populated exports.
grep -q '"metrics"' "$WORK/metrics.json"
test -f "$WORK/metrics.prom"
grep -q '"name"' "$WORK/metrics.json"
grep -q 'pq_core_packets_seen_total' "$WORK/metrics.json"
grep -q '# TYPE pq_core_packets_seen_total counter' "$WORK/metrics.prom"

"$TOOLS_DIR/pq_offline" "$WORK/t.pqr" windows 0 2000000 4000000 --top 3 \
  | tee "$WORK/offline.log"
grep -q "per-flow packet counts" "$WORK/offline.log"

"$TOOLS_DIR/pq_offline" "$WORK/t.pqr" monitor 0 3000000 \
  | tee "$WORK/monitor.log"
grep -q "original culprits" "$WORK/monitor.log"

# Corrupted input is rejected, not crashed on.
head -c 100 "$WORK/t.pqt" > "$WORK/broken.pqt"
if "$TOOLS_DIR/pq_replay" "$WORK/broken.pqt" 2>/dev/null; then
  echo "truncated trace was accepted" >&2
  exit 1
fi

echo "cli workflow ok"
