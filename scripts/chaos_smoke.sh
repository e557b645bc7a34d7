#!/bin/sh
# chaos_smoke.sh — end-to-end fault-injection smoke of the self-healing
# serving path, run by `make chaos-smoke` and CI. A simserve with injected
# filesystem faults (deterministic: fixed -fault rules plus a seeded rule,
# override with CHAOS_SEED) ingests a stream through simctl's retry loop —
# every 429/503 the faults cause is retried client-side — then the process
# is kill -9'd and restarted on a clean filesystem. The invariant is the
# same as recover_smoke.sh, under fire: no acknowledged action is lost, and
# the recovered answer is byte-identical to an uninterrupted run on a fresh
# memory-only server.
set -eu

ADDR="${CHAOS_ADDR:-127.0.0.1:8403}"
REF_ADDR="${CHAOS_REF_ADDR:-127.0.0.1:8404}"
BASE="http://$ADDR"
REF_BASE="http://$REF_ADDR"
SEED="${CHAOS_SEED:-42}"
WORK="$(mktemp -d)"
SRV_PID=
REF_PID=
trap 'kill -9 "${SRV_PID:-}" 2>/dev/null || true; kill -9 "${REF_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

TRACKER_FLAGS="-k 5 -window 2000"
# Guaranteed fault coverage on top of the seeded rule: WAL appends fail
# twice mid-stream (503 -> client retry) and a snapshot write fails once
# (backoff + retry, invisible to clients).
FAULTS="op=write,path=wal.log,after=4,times=2,err=EIO;op=write,path=snapshot.sim2,after=1,times=1,err=ENOSPC"

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "$@"
    else
        wget -q -O - "$1"
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

echo "== build"
go build -o "$WORK/simserve" ./cmd/simserve
go build -o "$WORK/simgen" ./cmd/simgen
go build -o "$WORK/simctl" ./cmd/simctl

echo "== generate 2000 actions, split into 200-action chunks"
"$WORK/simgen" -preset syn-o -users 500 -actions 2000 -window 1000 \
    -out "$WORK/actions.ndjson"
split -l 200 "$WORK/actions.ndjson" "$WORK/chunk."

echo "== boot simserve with injected faults (seed $SEED)"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS \
    -data-dir "$WORK/data" -wal-snapshot-bytes 4096 \
    -fault "$FAULTS" -fault-seed "$SEED" &
SRV_PID=$!
wait_up "$BASE"

echo "== ingest through the retrying client (faults surface as 429/503)"
for c in "$WORK"/chunk.*; do
    "$WORK/simctl" -addr "$BASE" -retries 8 ingest default "$c" >/dev/null
done

echo "== tracker metrics after the faulted run"
"$WORK/simctl" -addr "$BASE" metrics default

echo "== kill -9 under fire"
kill -9 "$SRV_PID"; wait "$SRV_PID" 2>/dev/null || true; SRV_PID=

echo "== restart on a healed disk (no injector)"
"$WORK/simserve" -addr "$ADDR" $TRACKER_FLAGS -data-dir "$WORK/data" &
SRV_PID=$!
wait_up "$BASE"
FINAL="$("$WORK/simctl" -addr "$BASE" seeds default)"
case "$FINAL" in
*'"processed": 2000'*) ;;
*) echo "acknowledged actions lost: $FINAL" >&2; exit 1 ;;
esac

echo "== uninterrupted reference on $REF_ADDR"
"$WORK/simserve" -addr "$REF_ADDR" $TRACKER_FLAGS &
REF_PID=$!
wait_up "$REF_BASE"
"$WORK/simctl" -addr "$REF_BASE" ingest default "$WORK/actions.ndjson" >/dev/null
REF="$("$WORK/simctl" -addr "$REF_BASE" seeds default)"

echo "recovered run: $FINAL"
echo "reference run: $REF"
if [ "$FINAL" != "$REF" ]; then
    echo "chaos-recovered answer differs from uninterrupted serial replay" >&2
    exit 1
fi

echo "== graceful drain"
kill -TERM "$SRV_PID" 2>/dev/null
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
kill -TERM "$REF_PID" 2>/dev/null
wait "$REF_PID" 2>/dev/null || true
REF_PID=
echo "chaos smoke OK"
