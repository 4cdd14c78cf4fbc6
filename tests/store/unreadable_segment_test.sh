#!/usr/bin/env bash
# An unreadable segment is an I/O error, not damage. A two-port archive
# (so the recovery scan runs its worker pool) gets one middle segment of
# port 0 made unreadable (chmod 000). Then pq_query info, on 1 and on 4
# scan workers, and a pq_serve restart over the archive must each exit 1
# with exactly one stderr line naming that file, and leave every file of
# the archive byte-identical: no tool may read the I/O failure as a torn
# chain and repair (delete) the history after it.
#
# Permissions do not bind root, so a root run copies the tools into its
# work directory, hands that directory to uid 65534 and runs them through
# `setpriv`; without setpriv a root run is skipped (exit 77).
#
# $1 is the directory holding the pq_* binaries (a build root is accepted).
set -euo pipefail

TOOLS_DIR="${1:?usage: unreadable_segment_test.sh <tools-dir-or-build-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_serve" && -x "$TOOLS_DIR/tools/pq_serve" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
for bin in pq_serve pq_query pq_gentrace; do
  test -x "$TOOLS_DIR/$bin" || { echo "$bin not found under '$1'" >&2; exit 2; }
done

RUN_AS=()
if [[ "$(id -u)" -eq 0 ]]; then
  if ! command -v setpriv > /dev/null; then
    echo "root without setpriv: file permissions cannot be tested, skipped"
    exit 77
  fi
  RUN_AS=(setpriv --reuid=65534 --regid=65534 --clear-groups)
fi

WORK="$(mktemp -d)"
trap 'chmod -R u+rwX "$WORK" 2> /dev/null; rm -rf "$WORK"' EXIT
ARCH="$WORK/a"

for PORT in 0 1; do
  "$TOOLS_DIR/pq_gentrace" burst "$WORK/feed$PORT.pqsm" --ms 40 \
    --seed $((PORT + 1)) --stream --port "$PORT" > /dev/null
done
cat "$WORK/feed0.pqsm" "$WORK/feed1.pqsm" > "$WORK/feed.pqsm"
"$TOOLS_DIR/pq_serve" --ports 0,1 --feed "$WORK/feed.pqsm" --exit-at-eof \
  --archive-dir "$ARCH" --archive-segment-bytes 65536 > /dev/null
VICTIM="$ARCH/port-0/seg-000001.pqs"
test -f "$ARCH/port-0/seg-000003.pqs" \
  || { echo "fixture too small: port 0 needs 4 segments" >&2; exit 1; }

BIN="$TOOLS_DIR"
if (( ${#RUN_AS[@]} > 0 )); then
  BIN="$WORK/bin"
  mkdir "$BIN"
  cp "$TOOLS_DIR/pq_serve" "$TOOLS_DIR/pq_query" "$BIN/"
  chown -R 65534:65534 "$WORK"
fi

checksums() {
  (cd "$ARCH" && find . -type f | sort | xargs sha256sum)
}
BEFORE="$(checksums)"
chmod 000 "$VICTIM"

# $1: label; the rest: the command. Wants exit 1 and one stderr line naming
# the victim.
expect_io_error() {
  local label="$1"
  shift
  set +e
  "${RUN_AS[@]}" "$@" > /dev/null 2> "$WORK/err.txt"
  local rc=$?
  set -e
  local err
  err="$(cat "$WORK/err.txt")"
  if (( rc != 1 )); then
    echo "$label exited $rc over an unreadable segment, want 1: $err" >&2
    exit 1
  fi
  if [[ "$(wc -l < "$WORK/err.txt")" -ne 1 || "$err" != *"$VICTIM"* ]]; then
    echo "$label: want one stderr line naming $VICTIM, got: $err" >&2
    exit 1
  fi
  echo "$label: $err"
}

expect_io_error "pq_query --threads 1" "$BIN/pq_query" "$ARCH" info --threads 1
expect_io_error "pq_query --threads 4" "$BIN/pq_query" "$ARCH" info --threads 4
expect_io_error "pq_serve" "$BIN/pq_serve" --ports 0,1 --archive-dir "$ARCH" \
  --exit-at-eof

chmod 644 "$VICTIM"
if ! diff -u <(echo "$BEFORE") <(checksums); then
  echo "a tool changed the archive it could not read" >&2
  exit 1
fi
echo "unreadable segment ok: exit 1, archive untouched"
