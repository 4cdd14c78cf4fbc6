#!/usr/bin/env bash
# Kill-and-recover proof for pq_serve, across three seeds:
#
#   1. Oracle run: pq_serve ingests the full stream uninterrupted
#      (--exit-at-eof) and leaves a clean archive.
#   2. Kill run: the same stream is appended in chunks while a second
#      pq_serve tails it; the daemon is SIGKILLed mid-ingest.
#   3. The surviving archive must be a strict PREFIX of the oracle's block
#      sequence (same kinds, spans and CRCs) — archive content is a
#      deterministic function of the record stream, so whatever survived
#      the kill is byte-equal to the oracle's first blocks.
#   4. A restarted daemon over the killed archive answers queries on the
#      recovered span byte-identically to pq_query, then drains cleanly on
#      SIGTERM (exit 0).
#   5. A graceful SIGTERM run loses zero submitted records.
#
# First, pq_serve must refuse an option it does not define (a typo, or a
# removed flag) with exit 2, naming it, instead of running without it.
#
# $1 is the directory holding the pq_* binaries (a build root is accepted).
set -euo pipefail

TOOLS_DIR="${1:?usage: kill_recover_test.sh <tools-dir-or-build-dir>}"
if [[ ! -x "$TOOLS_DIR/pq_serve" && -x "$TOOLS_DIR/tools/pq_serve" ]]; then
  TOOLS_DIR="$TOOLS_DIR/tools"
fi
for bin in pq_serve pq_ctl pq_query pq_gentrace; do
  test -x "$TOOLS_DIR/$bin" || { echo "$bin not found under '$1'" >&2; exit 2; }
done

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Wait until the daemon's absorbed counter (from --metrics-out) reaches $2.
wait_absorbed() {
  local prom="$1" want="$2" tries=0
  while (( tries++ < 400 )); do
    local got
    got="$(grep -s '^pq_serve_records_absorbed_total' "$prom" \
           | awk '{print int($2)}' || true)"
    [[ -n "$got" ]] && (( got >= want )) && return 0
    sleep 0.05
  done
  echo "timed out waiting for $want absorbed records in $prom" >&2
  return 1
}

wait_socket() {
  local sock="$1" tries=0
  while (( tries++ < 200 )); do
    [[ -S "$sock" ]] && return 0
    sleep 0.05
  done
  echo "timed out waiting for socket $sock" >&2
  return 1
}

# --- 0. Unknown options are refused ---------------------------------------
for UNKNOWN in "--archive-dri $WORK/typo_dir" "--compact-every-ms 5" \
               "--recovery-threads 2"; do
  set +e
  # shellcheck disable=SC2086  # the option and its value are two words
  "$TOOLS_DIR/pq_serve" --ports 0 $UNKNOWN --exit-at-eof \
    > "$WORK/unknown.log" 2>&1
  RC=$?
  set -e
  if (( RC != 2 )) || ! grep -q -- "unknown option '${UNKNOWN%% *}'" \
       "$WORK/unknown.log"; then
    echo "pq_serve $UNKNOWN exited $RC, want 2 naming ${UNKNOWN%% *}:" >&2
    cat "$WORK/unknown.log" >&2
    exit 1
  fi
done
[[ ! -e "$WORK/typo_dir" ]] \
  || { echo "a refused run wrote an archive" >&2; exit 1; }

PORT=7
for SEED in 1 2 3; do
  S="$WORK/s$SEED"
  mkdir -p "$S"
  "$TOOLS_DIR/pq_gentrace" burst "$S/full.pqsm" --ms 40 --seed "$SEED" \
    --stream --port "$PORT" > /dev/null
  TOTAL_BYTES="$(stat -c %s "$S/full.pqsm")"

  # --- 1. The uninterrupted oracle -----------------------------------------
  "$TOOLS_DIR/pq_serve" --ports "$PORT" --feed "$S/full.pqsm" --exit-at-eof \
    --archive-dir "$S/oracle" > "$S/oracle.log"
  ORACLE_ABSORBED="$(grep -o '[0-9]* record(s) absorbed' "$S/oracle.log" \
                     | awk '{print $1}')"
  "$TOOLS_DIR/pq_query" "$S/oracle" blocks 0 | sed 1d > "$S/oracle_blocks.txt"

  # --- 2. Chunked append + SIGKILL mid-ingest ------------------------------
  : > "$S/grow.pqsm"
  "$TOOLS_DIR/pq_serve" --ports "$PORT" --feed "$S/grow.pqsm" \
    --archive-dir "$S/killed" --metrics-out "$S/kill.prom" \
    --metrics-every-ms 20 > "$S/kill.log" &
  SERVE_PID=$!

  # Append the stream in frame-aligned chunks; kill -9 as soon as a full
  # checkpoint group has demonstrably reached the disk. The group's LAST
  # block is the calibration (kind=4) — appends preserve emission order and
  # the daemon's durability tick (--flush-every-ms) pushes stdio-buffered
  # blocks to the kernel, so kind=4 on disk implies its window and monitor
  # snapshots are there too and the surviving span is queryable.
  CHUNK=$(( (TOTAL_BYTES / 10 / 61) * 61 ))
  APPENDED=0
  KILLED=0
  for i in $(seq 0 9); do
    dd if="$S/full.pqsm" bs=61 skip=$((APPENDED / 61)) \
       count=$((CHUNK / 61)) >> "$S/grow.pqsm" 2>/dev/null
    APPENDED=$((APPENDED + CHUNK))
    sleep 0.05
    BLOCKS="$("$TOOLS_DIR/pq_query" "$S/killed" blocks 0 2>/dev/null \
              | grep -c 'kind=4' || true)"
    if (( BLOCKS >= 1 )); then
      kill -9 "$SERVE_PID"
      KILLED=1
      break
    fi
  done
  if (( ! KILLED )); then
    # The whole file is appended; the first poll must land soon.
    tries=0
    while (( tries++ < 200 )); do
      BLOCKS="$("$TOOLS_DIR/pq_query" "$S/killed" blocks 0 2>/dev/null \
                | grep -c 'kind=4' || true)"
      (( BLOCKS >= 1 )) && break
      sleep 0.05
    done
    kill -9 "$SERVE_PID"
  fi
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""

  # --- 3. Surviving blocks are a prefix of the oracle's --------------------
  "$TOOLS_DIR/pq_query" "$S/killed" blocks 0 | sed 1d > "$S/killed_blocks.txt"
  SURVIVED="$(wc -l < "$S/killed_blocks.txt")"
  if (( SURVIVED < 1 )); then
    echo "seed $SEED: SIGKILL left no recovered blocks (vacuous kill)" >&2
    exit 1
  fi
  if ! head -n "$SURVIVED" "$S/oracle_blocks.txt" \
       | diff -u - "$S/killed_blocks.txt"; then
    echo "seed $SEED: surviving blocks are not an oracle prefix" >&2
    exit 1
  fi

  # The survivor's horizon: the last CALIBRATED checkpoint (kind=4 is the
  # final block of its group, so everything the group emitted is on disk).
  # Both archives are queried --as-of that horizon: calibration is
  # newest-wins, so the oracle's later checkpoints would otherwise
  # legitimately rescale the same span. Bounded to a common horizon, the
  # answers must be byte-identical.
  HORIZON="$(awk '$2=="kind=4" { for (i=1;i<=NF;i++) \
    if ($i ~ /^t_hi=/) h=substr($i,6) } END { print h }' \
    "$S/killed_blocks.txt")"
  if [[ -z "$HORIZON" ]]; then
    echo "seed $SEED: no calibrated checkpoint survived the kill" >&2
    exit 1
  fi
  T2=$(( HORIZON / 2 ))
  "$TOOLS_DIR/pq_query" "$S/killed" windows 0 0 "$T2" --as-of "$HORIZON" \
    | sed 1d > "$S/killed_win.txt"
  "$TOOLS_DIR/pq_query" "$S/oracle" windows 0 0 "$T2" --as-of "$HORIZON" \
    | sed 1d > "$S/oracle_win.txt"
  if ! diff -u "$S/oracle_win.txt" "$S/killed_win.txt"; then
    echo "seed $SEED: recovered window answers diverged from oracle" >&2
    exit 1
  fi

  # --- 4. Restart over the killed archive; live daemon answers must match
  # pq_query byte-for-byte after each tool's header line. ---------------
  : > "$S/idle.pqsm"
  "$TOOLS_DIR/pq_serve" --ports "$PORT" --feed "$S/idle.pqsm" \
    --archive-dir "$S/killed" --query-sock "$S/q.sock" > "$S/restart.log" &
  SERVE_PID=$!
  wait_socket "$S/q.sock"
  grep -q '^recovered:' "$S/restart.log" || {
    echo "seed $SEED: restart did not report a recovery scan" >&2
    exit 1
  }
  "$TOOLS_DIR/pq_ctl" "$S/q.sock" windows "$PORT" 0 "$T2" | sed 1d \
    > "$S/ctl_win.txt"
  # Note: pq_query re-reads the archive AFTER the restart repaired its torn
  # tail; recovery is content-neutral so answers are unchanged.
  "$TOOLS_DIR/pq_query" "$S/killed" windows 0 0 "$T2" | sed 1d \
    > "$S/requery_win.txt"
  if ! diff -u "$S/requery_win.txt" "$S/ctl_win.txt"; then
    echo "seed $SEED: daemon recovered answers diverged from pq_query" >&2
    exit 1
  fi
  "$TOOLS_DIR/pq_ctl" "$S/q.sock" monitor "$PORT" "$T2" | sed 1d \
    > "$S/ctl_mon.txt"
  "$TOOLS_DIR/pq_query" "$S/killed" monitor 0 "$T2" | sed 1d \
    > "$S/query_mon.txt"
  if ! diff -u "$S/query_mon.txt" "$S/ctl_mon.txt"; then
    echo "seed $SEED: daemon monitor answers diverged from pq_query" >&2
    exit 1
  fi
  kill -TERM "$SERVE_PID"
  if ! wait "$SERVE_PID"; then
    echo "seed $SEED: SIGTERM restart did not exit 0" >&2
    exit 1
  fi
  SERVE_PID=""

  # --- 5. Graceful SIGTERM loses zero records ------------------------------
  "$TOOLS_DIR/pq_serve" --ports "$PORT" --feed "$S/full.pqsm" \
    --archive-dir "$S/graceful" --metrics-out "$S/grace.prom" \
    --metrics-every-ms 20 > "$S/grace.log" &
  SERVE_PID=$!
  wait_absorbed "$S/grace.prom" "$ORACLE_ABSORBED"
  kill -TERM "$SERVE_PID"
  if ! wait "$SERVE_PID"; then
    echo "seed $SEED: graceful SIGTERM did not exit 0" >&2
    exit 1
  fi
  SERVE_PID=""
  grep -q "${ORACLE_ABSORBED} record(s) absorbed, 0 shed" "$S/grace.log" || {
    echo "seed $SEED: graceful drain lost records:" >&2
    cat "$S/grace.log" >&2
    exit 1
  }
  # And its archive is block-for-block the oracle's.
  "$TOOLS_DIR/pq_query" "$S/graceful" blocks 0 | sed 1d \
    | diff -u "$S/oracle_blocks.txt" - || {
    echo "seed $SEED: graceful archive diverged from oracle" >&2
    exit 1
  }

  echo "seed $SEED: kill-and-recover ok ($SURVIVED surviving block(s))"
done

echo "kill-and-recover ok across 3 seeds"
