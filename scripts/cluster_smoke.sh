#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the sharded serving path, run by
# `make cluster-smoke` and CI: boot two simserve shards and a simrouter in
# front of them, ingest 2k generated actions through the router (hash-
# partitioned across the shards), assert the merged seeds/value/cluster-
# health answers, kill one shard and assert the router degrades to flagged
# partial results instead of going down, then drain everything.
set -eu

ROUTER_ADDR="${CLUSTER_ROUTER_ADDR:-127.0.0.1:8400}"
SHARD1_ADDR="${CLUSTER_SHARD1_ADDR:-127.0.0.1:8401}"
SHARD2_ADDR="${CLUSTER_SHARD2_ADDR:-127.0.0.1:8402}"
BASE="http://$ROUTER_ADDR"
WORK="$(mktemp -d)"
S1_PID=
S2_PID=
RT_PID=
trap 'kill "${RT_PID:-}" "${S1_PID:-}" "${S2_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

ctl() { "$WORK/simctl" -addr "$BASE" "$@"; }

echo "== build"
go build -o "$WORK/simserve" ./cmd/simserve
go build -o "$WORK/simrouter" ./cmd/simrouter
go build -o "$WORK/simgen" ./cmd/simgen
go build -o "$WORK/simctl" ./cmd/simctl

echo "== boot 2 shards + router"
"$WORK/simserve" -addr "$SHARD1_ADDR" -k 5 -window 2000 &
S1_PID=$!
"$WORK/simserve" -addr "$SHARD2_ADDR" -k 5 -window 2000 &
S2_PID=$!
"$WORK/simrouter" -addr "$ROUTER_ADDR" \
    -shards "http://$SHARD1_ADDR,http://$SHARD2_ADDR" -probe-interval 200ms &
RT_PID=$!

i=0
until ctl -router health 2>/dev/null | grep -q '"healthy": 2'; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "cluster did not come up" >&2; exit 1; }
    sleep 0.1
done

echo "== ingest 2000 generated actions through the router"
"$WORK/simgen" -preset syn-o -users 500 -actions 2000 -window 2000 \
    -out "$WORK/actions.ndjson"
INGEST="$(ctl ingest default "$WORK/actions.ndjson")"
echo "$INGEST"
case "$INGEST" in
*'"processed": 2000'*) ;;
*) echo "expected cluster-total processed=2000: $INGEST" >&2; exit 1 ;;
esac

echo "== both shards took a share of the stream"
P1="$("$WORK/simctl" -addr "http://$SHARD1_ADDR" value default | grep '"processed"')"
P2="$("$WORK/simctl" -addr "http://$SHARD2_ADDR" value default | grep '"processed"')"
echo "shard1: $P1"
echo "shard2: $P2"
for P in "$P1" "$P2"; do
    case "$P" in
    *'"processed": 0'*) echo "a shard received no actions: $P" >&2; exit 1 ;;
    esac
done

echo "== merged seeds"
SEEDS="$(ctl seeds default)"
echo "$SEEDS"
case "$SEEDS" in
*'"seeds": ['*) ;;
*) echo "merged seeds query returned no seeds: $SEEDS" >&2; exit 1 ;;
esac
case "$SEEDS" in
*'"partial": true'*) echo "seeds flagged partial with all shards up: $SEEDS" >&2; exit 1 ;;
esac

echo "== cluster health: 2/2 shards"
HEALTH="$(ctl -router health)"
echo "$HEALTH"
case "$HEALTH" in
*'"status": "ok"'*) ;;
*) echo "cluster not healthy: $HEALTH" >&2; exit 1 ;;
esac

echo "== kill shard 2: reads degrade to flagged partial results"
kill -TERM "$S2_PID"
wait "$S2_PID" 2>/dev/null || true
S2_PID=
i=0
until ctl value default | grep -q '"partial": true'; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "router never flagged partial results" >&2; exit 1; }
    sleep 0.1
done
VALUE="$(ctl value default)"
echo "$VALUE"

DEGRADED="$(ctl -router health)"
echo "$DEGRADED"
case "$DEGRADED" in
*'"status": "degraded"'*) ;;
*) echo "cluster health not degraded with a dead shard: $DEGRADED" >&2; exit 1 ;;
esac
case "$DEGRADED" in
*'"healthy": 1'*) ;;
*) echo "expected exactly one healthy shard: $DEGRADED" >&2; exit 1 ;;
esac

echo "== merged seeds still answer (partial)"
PSEEDS="$(ctl seeds default)"
case "$PSEEDS" in
*'"partial": true'*) ;;
*) echo "partial seeds not flagged: $PSEEDS" >&2; exit 1 ;;
esac

echo "== graceful drain (SIGTERM)"
kill -TERM "$RT_PID"
wait "$RT_PID" 2>/dev/null || true
RT_PID=
kill -TERM "$S1_PID"
wait "$S1_PID" 2>/dev/null || true
S1_PID=
echo "cluster smoke OK"
