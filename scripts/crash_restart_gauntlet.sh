#!/usr/bin/env bash
# Crash-restart gauntlet: kill -9 a paced replay run at a seeded random
# point, restart, and demand the recovered snapshot digest equal the
# uninterrupted reference run's digest at the same epoch (plus the sim
# oracle's row-exactness probe, which `recover` mode runs internally). The
# kill point is a seeded 15-85 % of one timed uninterrupted run, so every
# seed kills mid-stream; a kill that lands after the run's FINAL line fails.
#
#   scripts/crash_restart_gauntlet.sh          # kill/recover, seeds $SEEDS
#   scripts/crash_restart_gauntlet.sh --chaos  # + torn-write / truncated-
#                                              #   segment / bit-flipped-
#                                              #   manifest damage cases
#
# Env knobs: BIN (replica binary), SEEDS, TXNS, WORK (scratch dir).
set -uo pipefail

BIN=${BIN:-build/examples/replica}
SEEDS=${SEEDS:-"11 23 47"}
TXNS=${TXNS:-20000}
WORK=${WORK:-$(mktemp -d /tmp/aets-gauntlet.XXXXXX)}
CHAOS=${1:-}

fail() { echo "FAIL: $*" >&2; exit 1; }
[ -x "$BIN" ] || fail "binary not found: $BIN (set BIN or build replica)"

# Wall time in ms of one uninterrupted `run` (into a throwaway dir).
time_run() {
  local seed=$1 dir="$WORK/timed-$seed"
  rm -rf "$dir"
  local t0 t1
  t0=$(date +%s%N)
  "$BIN" run --dir "$dir" --seed "$seed" --txns "$TXNS" >/dev/null 2>&1 \
      || fail "seed $seed: timing run failed"
  t1=$(date +%s%N)
  rm -rf "$dir"
  echo $(( (t1 - t0) / 1000000 ))
}

# Runs `run` mode, kills it after $2 ms, recovers, and checks the recovered
# digest against the reference table in $3. Echoes the recovered fetch count.
kill_and_recover() {
  local seed=$1 delay_ms=$2 ref=$3 dir=$4
  rm -rf "$dir"
  "$BIN" run --dir "$dir" --seed "$seed" --txns "$TXNS" \
      > "$WORK/run-$seed.txt" 2>&1 &
  local pid=$!
  sleep "$(awk "BEGIN{print $delay_ms/1000}")"
  local was_killed=0
  kill -9 "$pid" 2>/dev/null && was_killed=1
  wait "$pid" 2>/dev/null
  if [ "$was_killed" -eq 0 ] || grep -q '^FINAL' "$WORK/run-$seed.txt"; then
    fail "seed $seed: the kill at ${delay_ms}ms landed after FINAL"
  fi
  echo "seed $seed: killed after ${delay_ms}ms" >&2

  local out
  out=$("$BIN" recover --dir "$dir" --seed "$seed" 2>"$WORK/recover-$seed.err") \
      || fail "seed $seed: recover exited $? ($(cat "$WORK/recover-$seed.err"))"
  echo "$out" | grep -q '^ORACLE exact' \
      || fail "seed $seed: sim-oracle exactness probe did not run"
  local rec
  rec=$(echo "$out" | grep '^RECOVERED') || fail "seed $seed: no RECOVERED line"
  local next_epoch last_data ts digest fetches tail
  next_epoch=$(echo "$rec" | sed -n 's/.*next_epoch=\([0-9]*\).*/\1/p')
  last_data=$(echo "$rec" | sed -n 's/.*last_data=\([0-9]*\).*/\1/p')
  ts=$(echo "$rec" | sed -n 's/.*ts=\([0-9]*\).*/\1/p')
  digest=$(echo "$rec" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
  fetches=$(echo "$rec" | sed -n 's/.*fetches=\([0-9]*\).*/\1/p')
  tail=$(echo "$rec" | sed -n 's/.*tail=\([0-9]*\).*/\1/p')

  [ "$next_epoch" -gt 0 ] || fail "seed $seed: nothing durable survived the kill"
  local want
  want=$(grep "^EPOCH $last_data $ts " "$ref" | awk '{print $4}')
  [ -n "$want" ] || fail "seed $seed: no reference digest for epoch $last_data ts $ts"
  [ "$digest" = "$want" ] || fail \
      "seed $seed: digest mismatch at epoch $last_data: got $digest want $want"
  [ "$fetches" -gt 0 ] || [ "$tail" -eq 0 ] || fail \
      "seed $seed: replayed a tail of $tail epochs with zero disk fetches"
  echo "seed $seed: recovered to epoch $last_data, digest match, $fetches disk fetches" >&2
  echo "$fetches"
}

total_fetches=0
for seed in $SEEDS; do
  ref="$WORK/ref-$seed.txt"
  rm -rf "$WORK/ref-$seed"
  "$BIN" digest --dir "$WORK/ref-$seed" --seed "$seed" --txns "$TXNS" > "$ref" \
      || fail "seed $seed: reference run failed"
  full_ms=$(time_run "$seed")
  delay_ms=$(( full_ms * (15 + (seed * 7919) % 71) / 100 ))
  echo "seed $seed: uninterrupted run took ${full_ms}ms" >&2
  fetches=$(kill_and_recover "$seed" "$delay_ms" "$ref" "$WORK/crash-$seed")
  total_fetches=$(( total_fetches + fetches ))
done
[ "$total_fetches" -gt 0 ] || fail "no recovery fetched a single epoch from disk"
echo "gauntlet: all seeds recovered, $total_fetches total disk fetches" >&2

# Truncation cases: run with a disk budget so checkpoint-coordinated
# truncation deletes the oldest segments mid-run, kill only AFTER the first
# truncation landed (polling the run's TRUNC output), and demand recovery
# bridge the deleted prefix through the checkpoint image — digest-equal to a
# budget-matched reference and with a floor > 0 in the RECOVERED line.
kill_after_trunc_and_recover() {
  local seed=$1 ref=$2 dir=$3 extra=$4 want_truncs=$5
  rm -rf "$dir"
  # shellcheck disable=SC2086
  "$BIN" run --dir "$dir" --seed "$seed" --txns "$TXNS" $extra \
      > "$WORK/trun-$seed.txt" 2>&1 &
  local pid=$!
  local waited=0
  # Wait until `want_truncs` DISTINCT shards have truncated at least once —
  # the recovered floor is the minimum across shards, so every lane must
  # have crossed it for the floor>0 assertion to be meaningful.
  while [ "$(sed -n 's/^TRUNC shard=\([0-9]*\).*/\1/p' "$WORK/trun-$seed.txt" 2>/dev/null | sort -u | wc -l)" -lt "$want_truncs" ]; do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
    waited=$(( waited + 1 ))
    [ "$waited" -lt 600 ] || fail "seed $seed: no truncation within 60s"
  done
  local was_killed=0
  { kill -9 "$pid" && was_killed=1; wait "$pid"; } 2>/dev/null
  if [ "$was_killed" -eq 1 ]; then
    echo "seed $seed: killed after $(grep -c '^TRUNC' "$WORK/trun-$seed.txt") truncation(s)" >&2
  else
    echo "seed $seed: run completed before the kill (still a valid case)" >&2
  fi
  grep -q '^TRUNC' "$WORK/trun-$seed.txt" \
      || fail "seed $seed: the run never truncated (budget too large?)"

  local out
  # shellcheck disable=SC2086
  out=$("$BIN" recover --dir "$dir" --seed "$seed" $extra \
      2>"$WORK/trun-recover-$seed.err") \
      || fail "seed $seed: budget recover exited $? ($(cat "$WORK/trun-recover-$seed.err"))"
  echo "$out" | grep -q '^ORACLE exact' \
      || fail "seed $seed: sim-oracle exactness probe did not run"
  local rec last_data ts digest floor
  rec=$(echo "$out" | grep '^RECOVERED') || fail "seed $seed: no RECOVERED line"
  last_data=$(echo "$rec" | sed -n 's/.*last_data=\([0-9]*\).*/\1/p')
  ts=$(echo "$rec" | sed -n 's/.*ts=\([0-9]*\).*/\1/p')
  digest=$(echo "$rec" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
  floor=$(echo "$rec" | sed -n 's/.*floor=\([0-9]*\).*/\1/p')
  [ -n "$floor" ] && [ "$floor" -gt 0 ] \
      || fail "seed $seed: recovery did not cross a truncation floor (floor=$floor)"
  local want
  want=$(grep "^EPOCH $last_data $ts " "$ref" | awk '{print $4}')
  [ -n "$want" ] || fail "seed $seed: no reference digest for epoch $last_data ts $ts"
  [ "$digest" = "$want" ] || fail \
      "seed $seed: digest mismatch at epoch $last_data past floor $floor: got $digest want $want"
  echo "seed $seed: recovered past truncation floor $floor, digest match" >&2
}

BUDGET=${BUDGET:-1200000}
seed=31
ref="$WORK/ref-budget-$seed.txt"
rm -rf "$WORK/ref-budget-$seed"
"$BIN" digest --dir "$WORK/ref-budget-$seed" --seed "$seed" --txns "$TXNS" \
    --disk_budget "$BUDGET" > "$ref" \
    || fail "budget reference run failed"
[ "$(grep -c '^TRUNC' "$ref")" -ge 1 ] \
    || fail "budget reference never truncated (budget too large for $TXNS txns?)"
kill_after_trunc_and_recover "$seed" "$ref" "$WORK/trunc-$seed" \
    "--disk_budget $BUDGET" 1
echo "gauntlet: truncated-log recovery passed" >&2

# The sharded variant: per-shard budgets, per-shard checkpoint directories,
# kill after every shard truncated at least once.
seed=37
ref="$WORK/ref-shbudget-$seed.txt"
rm -rf "$WORK/ref-shbudget-$seed"
"$BIN" digest --dir "$WORK/ref-shbudget-$seed" --seed "$seed" --txns "$TXNS" \
    --shard_count 2 --disk_budget 700000 > "$ref" \
    || fail "sharded budget reference run failed"
grep -q '^TRUNC shard=0' "$ref" && grep -q '^TRUNC shard=1' "$ref" \
    || fail "sharded budget reference: not every shard truncated"
kill_after_trunc_and_recover "$seed" "$ref" "$WORK/shtrunc-$seed" \
    "--shard_count 2 --disk_budget 700000" 2
echo "gauntlet: sharded truncated-log recovery passed" >&2

if [ "$CHAOS" = "--chaos" ]; then
  seed=101
  ref="$WORK/ref-$seed.txt"
  rm -rf "$WORK/ref-$seed"
  "$BIN" digest --dir "$WORK/ref-$seed" --seed "$seed" --txns "$TXNS" > "$ref" \
      || fail "chaos: reference run failed"

  damage_setup() {  # fresh killed run to damage; echoes the newest segment
    local dir=$1
    rm -rf "$dir"
    "$BIN" run --dir "$dir" --seed "$seed" --txns "$TXNS" >/dev/null 2>&1 &
    local pid=$!
    sleep 0.8
    kill -9 "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    ls "$dir"/seg-*.log | sort | tail -1
  }

  # Torn write: garbage appended past the last durable frame must be
  # truncated away and recovery must still match the reference.
  dir="$WORK/chaos-torn"
  seg=$(damage_setup "$dir")
  head -c 37 /dev/urandom >> "$seg"
  out=$("$BIN" recover --dir "$dir" --seed "$seed") \
      || fail "chaos torn-write: recover failed"
  rec=$(echo "$out" | grep '^RECOVERED')
  last_data=$(echo "$rec" | sed -n 's/.*last_data=\([0-9]*\).*/\1/p')
  ts=$(echo "$rec" | sed -n 's/.*ts=\([0-9]*\).*/\1/p')
  digest=$(echo "$rec" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
  torn=$(echo "$rec" | sed -n 's/.*torn=\([0-9]*\).*/\1/p')
  [ "$torn" -gt 0 ] || fail "chaos torn-write: no torn frame was truncated"
  want=$(grep "^EPOCH $last_data $ts " "$ref" | awk '{print $4}')
  [ "$digest" = "$want" ] || fail "chaos torn-write: digest mismatch after truncation"
  echo "chaos torn-write: truncated $torn frame(s), digest match" >&2

  # Truncated segment: cutting into the newest segment mid-frame loses the
  # tail but recovery must converge on the surviving durable prefix.
  dir="$WORK/chaos-trunc"
  seg=$(damage_setup "$dir")
  truncate -s -13 "$seg"
  out=$("$BIN" recover --dir "$dir" --seed "$seed") \
      || fail "chaos truncated-segment: recover failed"
  rec=$(echo "$out" | grep '^RECOVERED')
  last_data=$(echo "$rec" | sed -n 's/.*last_data=\([0-9]*\).*/\1/p')
  ts=$(echo "$rec" | sed -n 's/.*ts=\([0-9]*\).*/\1/p')
  digest=$(echo "$rec" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
  want=$(grep "^EPOCH $last_data $ts " "$ref" | awk '{print $4}')
  [ "$digest" = "$want" ] || fail "chaos truncated-segment: digest mismatch"
  echo "chaos truncated-segment: recovered shorter prefix, digest match" >&2

  # Bit-flipped manifest: durable metadata damage must be a loud Corruption
  # error, never a silent partial recovery.
  dir="$WORK/chaos-manifest"
  damage_setup "$dir" >/dev/null
  python3 - "$dir/MANIFEST" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[12] ^= 0xFF  # inside the manifest CRC field
open(path, 'wb').write(data)
EOF
  if "$BIN" recover --dir "$dir" --seed "$seed" 2>"$WORK/manifest.err"; then
    fail "chaos bit-flipped-manifest: recover succeeded on corrupt metadata"
  fi
  grep -qi "corruption\|checksum" "$WORK/manifest.err" \
      || fail "chaos bit-flipped-manifest: error was not a Corruption verdict"
  echo "chaos bit-flipped-manifest: clean Corruption error" >&2

  echo "gauntlet: chaos damage cases passed" >&2
fi

echo "OK"
