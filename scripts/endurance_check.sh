#!/usr/bin/env bash
# Endurance check: run the replica driver long enough under a disk budget to
# force repeated checkpoint-coordinated truncations, and assert
#
#   1. the run truncates at least MIN_TRUNCS times,
#   2. disk usage stays bounded by the budget (every post-truncation disk=
#      sample is under BUDGET, and the run's high-water mark never exceeds
#      BUDGET by more than one segment's worth of slack),
#   3. RSS stays under a generous ceiling (the durable tier and retention
#      deque are bounded; only the MVCC store's history may grow),
#   4. a kill -9 mid-run, after the oldest segments have been deleted,
#      recovers to a digest equal to the uninterrupted reference.
#
# Env knobs: BIN (replica binary), SEED, TXNS (raise for the nightly
# long soak), BUDGET (bytes), MIN_TRUNCS, RSS_LIMIT_KB, WORK (scratch dir).
set -uo pipefail

BIN=${BIN:-build/examples/replica}
SEED=${SEED:-29}
TXNS=${TXNS:-20000}
BUDGET=${BUDGET:-1200000}
MIN_TRUNCS=${MIN_TRUNCS:-3}
SLACK=${SLACK:-262144}          # one segment_max_bytes of overshoot allowance
RSS_LIMIT_KB=${RSS_LIMIT_KB:-524288}
WORK=${WORK:-$(mktemp -d /tmp/aets-endurance.XXXXXX)}

fail() { echo "FAIL: $*" >&2; exit 1; }
[ -x "$BIN" ] || fail "binary not found: $BIN (set BIN or build replica)"

# --- Reference soak: uninterrupted digest run under the budget. -------------
ref="$WORK/ref.txt"
rm -rf "$WORK/ref-dir"
"$BIN" digest --dir "$WORK/ref-dir" --seed "$SEED" --txns "$TXNS" \
    --disk_budget "$BUDGET" > "$ref" \
    || fail "reference endurance run failed"

truncs=$(grep -c '^TRUNC' "$ref")
[ "$truncs" -ge "$MIN_TRUNCS" ] \
    || fail "only $truncs truncation(s) in $TXNS txns; need >= $MIN_TRUNCS (shrink BUDGET or raise TXNS)"

# Every TRUNC line reports the lane's disk footprint right after the
# truncation: each one must be back under budget, or the knob is not
# reclaiming what it promises.
while read -r disk; do
  [ "$disk" -le "$BUDGET" ] \
      || fail "post-truncation disk $disk bytes exceeds budget $BUDGET"
done < <(sed -n 's/.*disk=\([0-9]*\).*/\1/p' <(grep '^TRUNC' "$ref"))

# The high-water mark (FINAL max_disk=): the trigger fires on the append
# that crosses the budget and the driver truncates within one batch, so the
# overshoot is bounded by SLACK, never a runaway.
max_disk=$(sed -n 's/.*max_disk=\([0-9]*\).*/\1/p' <(grep '^FINAL' "$ref"))
[ -n "$max_disk" ] || fail "no max_disk in the FINAL line"
[ "$max_disk" -le $(( BUDGET + SLACK )) ] \
    || fail "disk high-water mark $max_disk exceeds budget $BUDGET + slack $SLACK"

# RSS ceiling: sampled on every TRUNC line; the last sample is the largest
# the truncating infrastructure ever let the process grow to.
last_rss=$(grep '^TRUNC' "$ref" | tail -1 | sed -n 's/.*rss_kb=\([0-9-]*\).*/\1/p')
if [ -n "$last_rss" ] && [ "$last_rss" -gt 0 ]; then
  [ "$last_rss" -le "$RSS_LIMIT_KB" ] \
      || fail "RSS ${last_rss}kB exceeds ceiling ${RSS_LIMIT_KB}kB"
fi

echo "endurance: $truncs truncations, max disk $max_disk <= $BUDGET+$SLACK, rss ${last_rss:-n/a}kB" >&2

# --- Kill -9 after the oldest segments are gone, then recover. --------------
dir="$WORK/crash-dir"
rm -rf "$dir"
"$BIN" run --dir "$dir" --seed "$SEED" --txns "$TXNS" --disk_budget "$BUDGET" \
    > "$WORK/run.txt" 2>&1 &
pid=$!
waited=0
while [ "$(grep -c '^TRUNC' "$WORK/run.txt" 2>/dev/null)" -lt 1 ]; do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
  waited=$(( waited + 1 ))
  [ "$waited" -lt 600 ] || fail "paced run did not truncate within 60s"
done
{ kill -9 "$pid" && wait "$pid"; } 2>/dev/null
grep -q '^TRUNC' "$WORK/run.txt" || fail "paced run never truncated"

out=$("$BIN" recover --dir "$dir" --seed "$SEED" --disk_budget "$BUDGET" \
    2>"$WORK/recover.err") \
    || fail "recover exited $? ($(cat "$WORK/recover.err"))"
echo "$out" | grep -q '^ORACLE exact' \
    || fail "sim-oracle exactness probe did not run"
rec=$(echo "$out" | grep '^RECOVERED') || fail "no RECOVERED line"
last_data=$(echo "$rec" | sed -n 's/.*last_data=\([0-9]*\).*/\1/p')
ts=$(echo "$rec" | sed -n 's/.*ts=\([0-9]*\).*/\1/p')
digest=$(echo "$rec" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
floor=$(echo "$rec" | sed -n 's/.*floor=\([0-9]*\).*/\1/p')
[ -n "$floor" ] && [ "$floor" -gt 0 ] \
    || fail "recovery did not cross a truncation floor (floor=$floor)"
want=$(grep "^EPOCH $last_data $ts " "$ref" | awk '{print $4}')
[ -n "$want" ] || fail "no reference digest for epoch $last_data ts $ts"
[ "$digest" = "$want" ] \
    || fail "digest mismatch at epoch $last_data past floor $floor: got $digest want $want"
echo "endurance: recovered past floor $floor, digest match" >&2

echo "OK"
