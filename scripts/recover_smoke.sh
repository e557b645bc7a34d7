#!/bin/sh
# recover_smoke.sh — end-to-end crash-recovery smoke of the durable serving
# layer, run by `make recover-smoke` and CI. Two kill -9 cycles exercise
# both recovery mechanisms:
#
#   cycle 1: tiny WAL threshold  -> state comes back from a SIM2 snapshot
#   cycle 2: huge WAL threshold  -> no snapshot can occur, so the second
#            half of the stream MUST come back from write-ahead-log replay
#
# and the final Seeds/Value answer is asserted byte-identical to an
# uninterrupted serial run on a fresh (memory-only) server.
set -eu

ADDR="${RECOVER_ADDR:-127.0.0.1:8401}"
REF_ADDR="${RECOVER_REF_ADDR:-127.0.0.1:8402}"
BASE="http://$ADDR"
REF_BASE="http://$REF_ADDR"
WORK="$(mktemp -d)"
SRV_PID=
REF_PID=
trap 'kill -9 "${SRV_PID:-}" 2>/dev/null || true; kill -9 "${REF_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

TRACKER_FLAGS="-k 5 -window 2000"

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

echo "== version flag"
"$WORK/simserve" -version

echo "== generate 2000 actions, split into 200-action chunks"
"$WORK/simgen" -preset syn-o -users 500 -actions 2000 -window 1000 \
    -out "$WORK/actions.ndjson"
split -l 200 "$WORK/actions.ndjson" "$WORK/chunk."
FIRST_HALF=$(ls "$WORK"/chunk.* | sort | head -n 5)
SECOND_HALF=$(ls "$WORK"/chunk.* | sort | tail -n +6)

echo "== cycle 1: boot durable simserve (tiny WAL threshold: snapshots happen)"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" -wal-snapshot-bytes 4096 &
SRV_PID=$!
wait_up "$BASE"

HEALTH="$(fetch "$BASE/v1/healthz")"
echo "$HEALTH"
case "$HEALTH" in
*'"durable":true'*) ;;
*) echo "healthz does not report durable=true: $HEALTH" >&2; exit 1 ;;
esac

for c in $FIRST_HALF; do
    fetch --data-binary "@$c" "$BASE/v1/trackers/default/actions" >/dev/null
done
[ -f "$WORK/data/default/snapshot.sim2" ] || {
    echo "no snapshot was written despite the tiny WAL threshold" >&2; exit 1;
}

echo "== kill -9 (cycle 1)"
kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true; SRV_PID=

echo "== cycle 2: restart with a huge WAL threshold (no snapshots possible)"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" -wal-snapshot-bytes 1073741824 &
SRV_PID=$!
wait_up "$BASE"
assert_processed 1000
echo "cycle 1 recovery OK (snapshot path): processed=1000"

for c in $SECOND_HALF; do
    fetch --data-binary "@$c" "$BASE/v1/trackers/default/actions" >/dev/null
done

echo "== kill -9 (cycle 2)"
kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true; SRV_PID=

echo "== final restart: second half must come back from WAL replay"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" &
SRV_PID=$!
wait_up "$BASE"
assert_processed 2000
FINAL="$(fetch "$BASE/v1/trackers/default/seeds")"

echo "== uninterrupted serial reference on $REF_ADDR"
"$WORK/simserve" -addr "$REF_ADDR" $TRACKER_FLAGS &
REF_PID=$!
wait_up "$REF_BASE"
fetch --data-binary "@$WORK/actions.ndjson" "$REF_BASE/v1/trackers/default/actions" >/dev/null
REF="$(fetch "$REF_BASE/v1/trackers/default/seeds")"

echo "recovered run: $FINAL"
echo "reference run: $REF"
if [ "$FINAL" != "$REF" ]; then
    echo "kill-9-recovered answer differs from uninterrupted serial replay" >&2
    exit 1
fi

echo "== graceful drain"
kill -TERM "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
kill -TERM "$REF_PID" 2>/dev/null
wait "$REF_PID" 2>/dev/null || true
REF_PID=
echo "recover smoke OK"
