#!/usr/bin/env bash
# Archive v2 compatibility battery: the committed v1 golden archive
# (tests/data/golden_archive_v1/, written by a v1 writer; v1 is frozen and
# no longer written, so this fixture is the only v1 writer output) and a
# fresh v2-only archive must both answer the culprit queries
# byte-identically to pq_offline over records rebuilt from the same trace
# with the same parameters. On top of that: indexed `--as-of` answers must
# byte-match the full-materialization oracle (`--full-scan`), look-alike
# names must not change what the archive holds, and `--strict` must still
# exit 3 when a v2 tail is torn. Step 0 pins the bytes the v2 writer emits (segment headers; window,
# monitor and calibration blocks; footers with the sparse time index). The
# mixed chain a resumed writer makes of a v1 archive is covered by
# tests/store/archive_seek_test.cpp.
#
# $1 is the directory holding the pq_* binaries (a build root is accepted
# and resolved to its tools/ subdirectory); $2 is tests/data/.
set -euo pipefail

TOOLS_DIR="${1:?usage: golden_archive_v2_test.sh <tools-dir-or-build-dir> <data-dir>}"
DATA_DIR="${2:?usage: golden_archive_v2_test.sh <tools-dir-or-build-dir> <data-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_replay" && -x "$TOOLS_DIR/tools/pq_replay" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
for bin in pq_replay pq_offline pq_query; do
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

pin() { # pin <file> <sha256>
  local got
  got="$(sha256sum "$1" | cut -d' ' -f1)"
  [[ "$got" == "$2" ]] \
    || { echo "$1 has sha256 $got, pinned $2" >&2; exit 1; }
}

# 0. The v2 writer emits the pinned bytes, and a fresh v2 archive lists the
#    same blocks as the v1 fixture.
"$TOOLS_DIR/pq_replay" "$TRACE" --batch 256 "${PARAMS[@]}" \
  --archive-dir "$WORK/v2" \
  --archive-segment-bytes 196608 --archive-fsync segment > /dev/null
[[ "$(find "$WORK/v2" -name 'seg-*.pqs' | wc -l)" -eq 2 ]] \
  || { echo "fresh v2 archive does not have 2 segments" >&2; exit 1; }
pin "$WORK/v2/port-0/seg-000000.pqs" \
  5066ebe914c7cf962dedc9d4aaa99cb8978635b16ad8e33a91e2666a7f642b4c
pin "$WORK/v2/port-0/seg-000001.pqs" \
  baa8281afb2c650aa7c41a2052b80f42ac447c835b4fb018f03c636a0c4334de
"$TOOLS_DIR/pq_query" "$WORK/v2" blocks 0 > "$WORK/v2_blocks.txt"
"$TOOLS_DIR/pq_query" "$FIXTURE" blocks 0 > "$WORK/v1_blocks.txt"
diff -u "$WORK/v1_blocks.txt" "$WORK/v2_blocks.txt" \
  || { echo "v2 archive lists other blocks than the v1 fixture" >&2; exit 1; }

# 1. The committed v1-only chain answers like pq_offline.
ask "$FIXTURE" "$WORK/v1.txt"
diff -u "$WORK/want.txt" "$WORK/v1.txt" \
  || { echo "v1 fixture answers diverged" >&2; exit 1; }

# 2. The fresh v2-only archive of step 0 answers identically too.
ask "$WORK/v2" "$WORK/v2.txt"
diff -u "$WORK/want.txt" "$WORK/v2.txt" \
  || { echo "v2 archive answers diverged" >&2; exit 1; }

seek() { # seek <archive-dir> <as-of> <out-file> [extra pq_query args...]
  local dir="$1" t="$2" out="$3"; shift 3
  ask "$dir" "$out" --as-of "$t" "$@"
  # A span ending past the horizon, and one before the first checkpoint
  # (taken at 1376474).
  "$TOOLS_DIR/pq_query" "$dir" windows 0 "$((t > 500000 ? t - 500000 : 0))" \
    "$((t + 500000))" --top 5 --as-of "$t" "$@" | sed 1d >> "$out"
  "$TOOLS_DIR/pq_query" "$dir" windows 0 0 100000 --top 5 --as-of "$t" "$@" \
    | sed 1d >> "$out"
}

# 3. The indexed --as-of answers byte-match the full-materialization oracle
#    (--full-scan), on both chains and at horizons on and off block
#    boundaries.
for dir in "$FIXTURE" "$WORK/v2"; do
  for t in 100 1376474 2500000 3757067 99999999; do
    seek "$dir" "$t" "$WORK/seek_a.txt"
    seek "$dir" "$t" "$WORK/seek_b.txt" --full-scan
    diff -u "$WORK/seek_a.txt" "$WORK/seek_b.txt" \
      || { echo "indexed seek diverged from full scan ($dir, t=$t)" >&2; exit 1; }
  done
done

# 4. Look-alike names are not part of the archive: a backup copy of the
#    port directory without its newest segment and a file-manager copy of
#    a segment change nothing `pq_query info` reports.
cp -r "$WORK/v2" "$WORK/lookalike"
cp -r "$WORK/lookalike/port-0" "$WORK/lookalike/port-0.bak"
rm "$WORK/lookalike/port-0.bak/seg-000001.pqs"
cp "$WORK/lookalike/port-0/seg-000000.pqs" \
  "$WORK/lookalike/port-0/seg-000000 (copy).pqs"
"$TOOLS_DIR/pq_query" "$WORK/v2" info > "$WORK/info_want.txt"
"$TOOLS_DIR/pq_query" "$WORK/lookalike" info > "$WORK/info_got.txt" 2>&1
diff -u "$WORK/info_want.txt" "$WORK/info_got.txt" \
  || { echo "look-alike names changed the archive" >&2; exit 1; }

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
