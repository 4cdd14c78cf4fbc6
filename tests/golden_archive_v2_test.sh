#!/usr/bin/env bash
# Archive v2 compatibility battery: the committed v1 golden archive
# (tests/data/golden_archive_v1/, written by a pinned older build), a
# mixed v1+v2 chain produced by compacting it, and a fresh v2-only archive
# must all answer the culprit queries byte-identically to pq_offline over
# records rebuilt from the same trace with the same parameters. On top of
# that: compaction must actually shrink the cold bytes, the indexed
# `--as-of` seek must byte-match the forced full scan, and `--strict` must
# still exit 3 when a v2 tail is torn. Step 0 pins the writer itself: the
# command below must reproduce both fixture segments byte for byte (the
# segment header and the window, monitor and calibration blocks).
#
# Regenerating the fixture (only after a deliberate v1 format change —
# which should never happen; v1 is frozen):
#   pq_replay tests/data/golden_burst.pqt --batch 256 \
#     --m0 8 --alpha 2 --k 8 --T 3 --archive-dir tests/data/golden_archive_v1 \
#     --archive-format 1 --archive-segment-bytes 196608 --archive-fsync segment
#
# $1 is the directory holding the pq_* binaries (a build root is accepted
# and resolved to its tools/ subdirectory); $2 is tests/data/.
set -euo pipefail

TOOLS_DIR="${1:?usage: golden_archive_v2_test.sh <tools-dir-or-build-dir> <data-dir>}"
DATA_DIR="${2:?usage: golden_archive_v2_test.sh <tools-dir-or-build-dir> <data-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_replay" && -x "$TOOLS_DIR/tools/pq_replay" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
for bin in pq_replay pq_offline pq_query pq_compact; do
  if [[ ! -x "$TOOLS_DIR/$bin" ]]; then
    echo "$bin not found under '$1'" >&2
    exit 2
  fi
done
TRACE="$DATA_DIR/golden_burst.pqt"
FIXTURE="$DATA_DIR/golden_archive_v1"
test -f "$TRACE" || { echo "missing fixture $TRACE" >&2; exit 2; }
test -d "$FIXTURE" || { echo "missing fixture $FIXTURE" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
PARAMS=(--m0 8 --alpha 2 --k 8 --T 3)

# The oracle: pq_offline over records rebuilt live with the fixture params.
"$TOOLS_DIR/pq_replay" "$TRACE" --batch 256 "${PARAMS[@]}" \
  --save-records "$WORK/g.pqr" > /dev/null
"$TOOLS_DIR/pq_offline" "$WORK/g.pqr" windows 0 500000 1500000 --top 5 \
  | sed 1d >  "$WORK/want.txt"
"$TOOLS_DIR/pq_offline" "$WORK/g.pqr" monitor 0 1000000 \
  | sed 1d >> "$WORK/want.txt"

ask() { # ask <archive-dir> <out-file> [extra pq_query args...]
  local dir="$1" out="$2"; shift 2
  "$TOOLS_DIR/pq_query" "$dir" windows 0 500000 1500000 --top 5 "$@" \
    | sed 1d >  "$out"
  "$TOOLS_DIR/pq_query" "$dir" monitor 0 1000000 "$@" \
    | sed 1d >> "$out"
}

# 0. Today's v1 writer reproduces the committed fixture byte for byte.
"$TOOLS_DIR/pq_replay" "$TRACE" --batch 256 "${PARAMS[@]}" \
  --archive-dir "$WORK/regen" --archive-format 1 \
  --archive-segment-bytes 196608 --archive-fsync segment > /dev/null
for seg in seg-000000.pqs seg-000001.pqs; do
  cmp "$FIXTURE/port-0/$seg" "$WORK/regen/port-0/$seg" \
    || { echo "regenerated v1 $seg differs from the fixture" >&2; exit 1; }
done
[[ "$(find "$WORK/regen" -name 'seg-*.pqs' | wc -l)" -eq 2 ]] \
  || { echo "regenerated v1 archive has extra segments" >&2; exit 1; }

# 1. The committed v1-only chain answers like pq_offline.
ask "$FIXTURE" "$WORK/v1.txt"
diff -u "$WORK/want.txt" "$WORK/v1.txt" \
  || { echo "v1 fixture answers diverged" >&2; exit 1; }

# 2. Compacting it yields a mixed chain (cold segments v2, newest still
#    v1), smaller on disk, answering identically.
cp -r "$FIXTURE" "$WORK/mixed"
BEFORE=$(du -sb "$WORK/mixed" | cut -f1)
"$TOOLS_DIR/pq_compact" "$WORK/mixed" | tee "$WORK/compact.txt" >&2
grep -q ' 1 rewritten' "$WORK/compact.txt" \
  || { echo "compaction rewrote nothing" >&2; exit 1; }
AFTER=$(du -sb "$WORK/mixed" | cut -f1)
[[ "$AFTER" -lt "$BEFORE" ]] \
  || { echo "compaction did not shrink the archive ($BEFORE -> $AFTER)" >&2; exit 1; }
"$TOOLS_DIR/pq_query" "$WORK/mixed" info | grep -q 'seg 000000 v2' \
  || { echo "compacted cold segment is not v2" >&2; exit 1; }
"$TOOLS_DIR/pq_query" "$WORK/mixed" info | grep -q 'seg 000001 v1' \
  || { echo "protected newest segment changed format" >&2; exit 1; }
ask "$WORK/mixed" "$WORK/mixed.txt"
diff -u "$WORK/want.txt" "$WORK/mixed.txt" \
  || { echo "mixed-chain answers diverged" >&2; exit 1; }

# 3. A fresh v2-only archive answers identically too.
"$TOOLS_DIR/pq_replay" "$TRACE" --batch 256 "${PARAMS[@]}" \
  --archive-dir "$WORK/v2" --archive-format 2 \
  --archive-segment-bytes 196608 --archive-fsync segment > /dev/null
ask "$WORK/v2" "$WORK/v2.txt"
diff -u "$WORK/want.txt" "$WORK/v2.txt" \
  || { echo "v2 archive answers diverged" >&2; exit 1; }

# 4. The indexed --as-of seek byte-matches the forced full scan, across
#    every chain flavour and horizons on/off block boundaries.
for dir in "$FIXTURE" "$WORK/mixed" "$WORK/v2"; do
  for t in 100 1376474 2500000 3757067 99999999; do
    ask "$dir" "$WORK/seek_a.txt" --as-of "$t"
    ask "$dir" "$WORK/seek_b.txt" --as-of "$t" --full-scan
    diff -u "$WORK/seek_a.txt" "$WORK/seek_b.txt" \
      || { echo "indexed seek diverged from full scan ($dir, t=$t)" >&2; exit 1; }
  done
done

# 5. --strict still turns a torn v2 tail into exit code 3.
LAST_SEG="$(find "$WORK/v2" -name 'seg-*.pqs' | sort | tail -1)"
SIZE="$(stat -c %s "$LAST_SEG")"
truncate -s "$((SIZE - SIZE / 3))" "$LAST_SEG"
set +e
"$TOOLS_DIR/pq_query" "$WORK/v2" info --strict > /dev/null 2>&1
RC=$?
set -e
[[ "$RC" -eq 3 ]] \
  || { echo "--strict on a torn v2 tail exited $RC, want 3" >&2; exit 1; }

echo "golden archive v2 ok"
