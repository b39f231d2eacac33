#!/usr/bin/env bash
# Net-integration gauntlet (DESIGN.md §12): runs replica primary and
# backup as SEPARATE PROCESSES over localhost TCP and demands the backup's
# final digest equal both the primary's and an uninterrupted no-network
# reference run's. Three cases per seed:
#
#   clean     primary + backup run to completion.
#   restart   the backup is kill -9'd mid-stream and restarted from empty;
#             the restart recovers the whole prefix by NACK against the
#             primary's retention buffer and must still converge.
#   query     while replay is live, a client issues snapshot scans against
#             the backup's query port (the analytic path must answer
#             mid-replay), then the digest check runs as in `clean`.
#
# Env knobs: BIN (replica binary), SEEDS, TXNS, WORK (scratch dir).
set -uo pipefail

BIN=${BIN:-build/examples/replica}
SEEDS=${SEEDS:-"11 23"}
TXNS=${TXNS:-8000}
WORK=${WORK:-$(mktemp -d /tmp/aets-net.XXXXXX)}

fail() { echo "FAIL: $*" >&2; exit 1; }
[ -x "$BIN" ] || fail "binary not found: $BIN (set BIN or build replica)"

PRIMARY_PID=""
cleanup() { [ -n "$PRIMARY_PID" ] && kill "$PRIMARY_PID" 2>/dev/null; wait 2>/dev/null; }
trap cleanup EXIT

# Polls $1 for a "^$2 " line, echoing its second field. Bounded wait: the
# primary binds before the workload starts, so this resolves in well under
# the 10s cap unless something is genuinely wedged.
await_token() {
  local file=$1 token=$2
  for _ in $(seq 1 200); do
    local port
    port=$(sed -n "s/^$token \([0-9]*\).*/\1/p" "$file" 2>/dev/null | head -1)
    if [ -n "$port" ]; then echo "$port"; return 0; fi
    sleep 0.05
  done
  return 1
}

final_digest() { sed -n 's/^FINAL [0-9]* \([0-9a-f]*\).*/\1/p' "$1" | head -1; }

start_primary() {
  local seed=$1 log=$2
  "$BIN" primary --listen_port 0 --seed "$seed" --txns "$TXNS" \
      > "$log" 2>&1 &
  PRIMARY_PID=$!
  await_token "$log" LISTENING >/dev/null || fail "seed $seed: primary never bound"
}

stop_primary() {
  kill "$PRIMARY_PID" 2>/dev/null
  wait "$PRIMARY_PID" 2>/dev/null
  PRIMARY_PID=""
}

# Every case ends the same way: the backup's FINAL digest must match the
# primary's FINAL digest and the reference run's.
check_digests() {
  local seed=$1 primary_log=$2 backup_log=$3 case_name=$4
  grep -q '^FINAL' "$primary_log" || fail \
      "seed $seed ($case_name): primary never printed FINAL ($(cat "$primary_log"))"
  local want got ref
  want=$(final_digest "$primary_log")
  got=$(final_digest "$backup_log")
  ref=$(final_digest "$WORK/reference-$seed.txt")
  [ -n "$got" ] || fail "seed $seed ($case_name): backup printed no FINAL"
  [ "$got" = "$want" ] || fail \
      "seed $seed ($case_name): backup digest $got != primary digest $want"
  [ "$got" = "$ref" ] || fail \
      "seed $seed ($case_name): networked digest $got != reference digest $ref"
  echo "seed $seed ($case_name): digest $got ok" >&2
}

for seed in $SEEDS; do
  "$BIN" reference --seed "$seed" --txns "$TXNS" \
      > "$WORK/reference-$seed.txt" 2>&1 \
      || fail "seed $seed: reference run failed"

  # --- clean: two processes, uninterrupted ------------------------------
  start_primary "$seed" "$WORK/primary-clean-$seed.txt"
  port=$(await_token "$WORK/primary-clean-$seed.txt" LISTENING)
  "$BIN" backup --connect "127.0.0.1:$port" --query_port 0 \
      > "$WORK/backup-clean-$seed.txt" 2>&1 \
      || fail "seed $seed (clean): backup exited $? ($(cat "$WORK/backup-clean-$seed.txt"))"
  # FINAL may trail the backup's exit by a pacing step; the primary flushes
  # it before lingering, so a short wait suffices.
  await_token "$WORK/primary-clean-$seed.txt" FINAL >/dev/null \
      || fail "seed $seed (clean): primary never finished"
  check_digests "$seed" "$WORK/primary-clean-$seed.txt" \
      "$WORK/backup-clean-$seed.txt" clean
  stop_primary

  # --- restart: kill -9 the backup mid-stream, restart from empty -------
  start_primary "$seed" "$WORK/primary-restart-$seed.txt"
  port=$(await_token "$WORK/primary-restart-$seed.txt" LISTENING)
  "$BIN" backup --connect "127.0.0.1:$port" --query_port 0 \
      > "$WORK/backup-kill-$seed.txt" 2>&1 &
  victim=$!
  sleep 0.4   # well inside the paced run: the kill lands mid-stream
  kill -9 "$victim" 2>/dev/null \
      || echo "seed $seed (restart): backup finished before the kill (still valid)" >&2
  wait "$victim" 2>/dev/null
  "$BIN" backup --connect "127.0.0.1:$port" --query_port 0 \
      > "$WORK/backup-restart-$seed.txt" 2>&1 \
      || fail "seed $seed (restart): restarted backup exited $? ($(cat "$WORK/backup-restart-$seed.txt"))"
  await_token "$WORK/primary-restart-$seed.txt" FINAL >/dev/null \
      || fail "seed $seed (restart): primary never finished"
  check_digests "$seed" "$WORK/primary-restart-$seed.txt" \
      "$WORK/backup-restart-$seed.txt" restart
  stop_primary

  # --- query: scans answered while replay is live -----------------------
  start_primary "$seed" "$WORK/primary-query-$seed.txt"
  port=$(await_token "$WORK/primary-query-$seed.txt" LISTENING)
  "$BIN" backup --connect "127.0.0.1:$port" --query_port 0 \
      > "$WORK/backup-query-$seed.txt" 2>&1 &
  backup_pid=$!
  qport=$(await_token "$WORK/backup-query-$seed.txt" QUERY_LISTENING) \
      || fail "seed $seed (query): backup never opened its query port"
  "$BIN" client --connect "127.0.0.1:$qport" \
      > "$WORK/client-$seed.txt" 2>&1 \
      || fail "seed $seed (query): client exited $? ($(cat "$WORK/client-$seed.txt"))"
  [ "$(grep -c '^QUERY ' "$WORK/client-$seed.txt")" -eq 8 ] \
      || fail "seed $seed (query): expected 8 QUERY lines"
  wait "$backup_pid" || fail \
      "seed $seed (query): backup exited $? ($(cat "$WORK/backup-query-$seed.txt"))"
  await_token "$WORK/primary-query-$seed.txt" FINAL >/dev/null \
      || fail "seed $seed (query): primary never finished"
  check_digests "$seed" "$WORK/primary-query-$seed.txt" \
      "$WORK/backup-query-$seed.txt" query
  stop_primary
done

echo "PASS: net integration (seeds: $SEEDS, $TXNS txns, work dir $WORK)"
