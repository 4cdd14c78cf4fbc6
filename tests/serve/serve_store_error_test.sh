#!/usr/bin/env bash
# A store error on a pq_serve shard worker is reported, not fatal: with the
# file size limit of this process at 64 KiB, the archive's first segment
# append past it fails (SIGXFSZ ignored, so fwrite fails instead of the
# process dying; a small register layout, so some blocks fit below the
# limit). pq_serve must drain and exit 1 with exactly one
# `pq_serve: ...` line on stderr — not abort (exit 134) through
# std::terminate — and pq_query must still recover a non-empty prefix of
# what it wrote.
#
# $1 is the directory holding the pq_* binaries (a build root is accepted).
set -euo pipefail

TOOLS_DIR="${1:?usage: serve_store_error_test.sh <tools-dir-or-build-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_serve" && -x "$TOOLS_DIR/tools/pq_serve" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
for bin in pq_serve pq_query pq_gentrace; do
  test -x "$TOOLS_DIR/$bin" || { echo "$bin not found under '$1'" >&2; exit 2; }
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
"$TOOLS_DIR/pq_gentrace" ws "$WORK/feed.pqsm" --ms 400 --seed 5 --stream \
  --port 0 > /dev/null

# The limit applies to the subshell only; its stderr goes to a pipe, which
# the limit does not cap.
set +e
ERR="$( (trap '' XFSZ; ulimit -f 64
         exec "$TOOLS_DIR/pq_serve" --ports 0 --feed "$WORK/feed.pqsm" \
           --archive-dir "$WORK/a" --exit-at-eof --k 10 --max-depth 2000 \
           > /dev/null) 2>&1 )"
RC=$?
set -e

[[ "$RC" -eq 1 ]] \
  || { echo "pq_serve exited $RC on a failed append, want 1: $ERR" >&2; exit 1; }
LINES="$(printf '%s\n' "$ERR" | wc -l)"
[[ "$LINES" -eq 1 && "$ERR" == "pq_serve: "* ]] \
  || { echo "want one 'pq_serve: ...' line on stderr, got: $ERR" >&2; exit 1; }

BLOCKS="$("$TOOLS_DIR/pq_query" "$WORK/a" info \
          | sed -n 's/^archive: 1 port(s), \([0-9]*\) block(s).*/\1/p')"
[[ -n "$BLOCKS" && "$BLOCKS" -gt 0 ]] \
  || { echo "pq_query recovered no prefix of port 0 after the error" >&2; exit 1; }

echo "serve store error ok: $ERR; $BLOCKS block(s) recovered"
