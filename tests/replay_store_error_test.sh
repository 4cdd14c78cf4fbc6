#!/usr/bin/env bash
# A store error on a replay worker is reported, not fatal: with the file
# size limit of this process at 16 KiB, the archive's first segment append
# past it fails (SIGXFSZ ignored, so fwrite fails instead of the process
# dying), and pq_replay must exit 1 with exactly one `pq_replay: ...` line
# on stderr — not abort (exit 134) through std::terminate.
#
# $1 is the directory holding the pq_* binaries (a build root is accepted
# and resolved to its tools/ subdirectory); $2 is tests/data/.
set -euo pipefail

TOOLS_DIR="${1:?usage: replay_store_error_test.sh <tools-dir-or-build-dir> <data-dir>}"
DATA_DIR="${2:?usage: replay_store_error_test.sh <tools-dir-or-build-dir> <data-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_replay" && -x "$TOOLS_DIR/tools/pq_replay" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
[[ -x "$TOOLS_DIR/pq_replay" ]] \
  || { echo "pq_replay not found under '$1'" >&2; exit 2; }
TRACE="$DATA_DIR/golden_burst.pqt"
test -f "$TRACE" || { echo "missing fixture $TRACE" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The limit applies to the subshell only; its stderr goes to a pipe, which
# the limit does not cap.
set +e
ERR="$( (trap '' XFSZ; ulimit -f 16
         exec "$TOOLS_DIR/pq_replay" "$TRACE" --batch 256 --m0 8 --alpha 2 \
           --k 8 --T 3 --archive-dir "$WORK/a" \
           --archive-segment-bytes 65536 > /dev/null) 2>&1 )"
RC=$?
set -e

[[ "$RC" -eq 1 ]] \
  || { echo "pq_replay exited $RC on a failed append, want 1: $ERR" >&2; exit 1; }
LINES="$(printf '%s\n' "$ERR" | wc -l)"
[[ "$LINES" -eq 1 && "$ERR" == "pq_replay: "* ]] \
  || { echo "want one 'pq_replay: ...' line on stderr, got: $ERR" >&2; exit 1; }

echo "replay store error ok: $ERR"
