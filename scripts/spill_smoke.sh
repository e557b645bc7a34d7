#!/bin/sh
# spill_smoke.sh — end-to-end smoke of the tiered window state, run by
# `make spill-smoke` and CI. A simserve under a deliberately tiny memory
# budget must spill contribution logs to cold segment files while serving,
# survive kill -9, and come back by MAPPING those segments — the restart
# replays only the WAL tail, not the spilled history — with a final answer
# byte-identical to an uninterrupted, unbudgeted in-RAM run.
set -eu

ADDR="${SPILL_ADDR:-127.0.0.1:8403}"
REF_ADDR="${SPILL_REF_ADDR:-127.0.0.1:8404}"
BASE="http://$ADDR"
REF_BASE="http://$REF_ADDR"
WORK="$(mktemp -d)"
SRV_PID=
REF_PID=
trap 'kill -9 "${SRV_PID:-}" 2>/dev/null || true; kill -9 "${REF_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

TRACKER_FLAGS="-k 5 -window 1500"
BUDGET=8192

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "$@"
    else
        if [ "$1" = "--data-binary" ]; then
            wget -q -O - --post-file="${2#@}" "$3"
        else
            wget -q -O - "$1"
        fi
    fi
}

wait_up() {
    i=0
    until fetch "$1/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || { echo "server on $1 did not come up" >&2; exit 1; }
        sleep 0.1
    done
}

# metric <json> <field>: extract one integer field from a metrics response.
metric() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p"
}

assert_processed() {
    got="$(fetch "$BASE/v1/trackers/default/seeds")"
    case "$got" in
    *"\"processed\":$1"*) ;;
    *) echo "expected processed=$1, got: $got" >&2; exit 1 ;;
    esac
}

echo "== build"
go build -o "$WORK/simserve" ./cmd/simserve
go build -o "$WORK/simgen" ./cmd/simgen

echo "== generate 3000 actions, split into 100-action chunks"
"$WORK/simgen" -preset syn-o -users 500 -actions 3000 -window 1500 \
    -out "$WORK/actions.ndjson"
split -l 100 "$WORK/actions.ndjson" "$WORK/chunk."
FIRST_HALF=$(ls "$WORK"/chunk.* | sort | head -n 15)
SECOND_HALF=$(ls "$WORK"/chunk.* | sort | tail -n +16)

echo "== boot durable simserve under a $BUDGET-byte memory budget"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" -wal-snapshot-bytes 2048 \
    -memory-budget "$BUDGET" &
SRV_PID=$!
wait_up "$BASE"

for c in $FIRST_HALF; do
    fetch --data-binary "@$c" "$BASE/v1/trackers/default/actions" >/dev/null
done
assert_processed 1500

METRICS="$(fetch "$BASE/v1/trackers/default/metrics")"
echo "live metrics: $METRICS"
SEGS="$(metric "$METRICS" cold_segments)"
SPILLS="$(metric "$METRICS" spills)"
[ -n "$SEGS" ] && [ "$SEGS" -gt 0 ] || {
    echo "budget did not produce cold segments: $METRICS" >&2; exit 1;
}
[ -n "$SPILLS" ] && [ "$SPILLS" -gt 0 ] || {
    echo "budget did not produce spill passes: $METRICS" >&2; exit 1;
}
ls "$WORK/data/default/spill/" | grep -q '\.sim2$' || {
    echo "no segment files on disk despite cold_segments=$SEGS" >&2; exit 1;
}

echo "== kill -9 mid-stream (cold segments live)"
kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true; SRV_PID=

echo "== restart: recovery must MAP segments, not replay spilled history"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" -wal-snapshot-bytes 2048 \
    -memory-budget "$BUDGET" &
SRV_PID=$!
wait_up "$BASE"
assert_processed 1500

METRICS="$(fetch "$BASE/v1/trackers/default/metrics")"
echo "recovered metrics: $METRICS"
case "$METRICS" in
*'"recovered_snapshot":true'*) ;;
*) echo "restart did not recover from a snapshot: $METRICS" >&2; exit 1 ;;
esac
SEGS="$(metric "$METRICS" cold_segments)"
[ -n "$SEGS" ] && [ "$SEGS" -gt 0 ] || {
    echo "recovery did not re-map cold segments: $METRICS" >&2; exit 1;
}
WAL_ACTIONS="$(metric "$METRICS" recovered_wal_actions)"
WAL_ACTIONS="${WAL_ACTIONS:-0}"
# The 2048-byte WAL threshold keeps the un-snapshotted tail to a few
# hundred of the compact binary records; replaying anywhere near the 1500
# ingested would mean recovery rebuilt the spilled history instead of
# mapping it.
[ "$WAL_ACTIONS" -lt 500 ] || {
    echo "recovery replayed $WAL_ACTIONS actions — spilled history was rebuilt, not mapped" >&2
    exit 1
}
echo "segment-mapped recovery OK: $SEGS segments mapped, $WAL_ACTIONS WAL actions replayed"

echo "== stream the second half into the recovered server"
for c in $SECOND_HALF; do
    fetch --data-binary "@$c" "$BASE/v1/trackers/default/actions" >/dev/null
done
assert_processed 3000
FINAL="$(fetch "$BASE/v1/trackers/default/seeds")"

echo "== uninterrupted unbudgeted in-RAM reference on $REF_ADDR"
"$WORK/simserve" -addr "$REF_ADDR" $TRACKER_FLAGS &
REF_PID=$!
wait_up "$REF_BASE"
fetch --data-binary "@$WORK/actions.ndjson" "$REF_BASE/v1/trackers/default/actions" >/dev/null
REF="$(fetch "$REF_BASE/v1/trackers/default/seeds")"

echo "budgeted+recovered run: $FINAL"
echo "unbudgeted reference:   $REF"
if [ "$FINAL" != "$REF" ]; then
    echo "budgeted kill-9-recovered answer differs from unbudgeted serial run" >&2
    exit 1
fi

echo "== graceful drain"
kill -TERM "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
kill -TERM "$REF_PID" 2>/dev/null
wait "$REF_PID" 2>/dev/null || true
REF_PID=
echo "spill smoke OK"
