#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the simserve serving layer, run by
# `make serve-smoke` and CI: boot the server, drive it through simctl (the
# typed api.Client path): pipe 1k generated NDJSON actions from simgen into
# simctl ingest, assert the seeds query returns a non-empty solution, run a
# relational /query plan, check the error contract on an unknown tracker,
# then exit through the SIGTERM drain path.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:8399}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SRV_PID=
trap 'kill "${SRV_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

ctl() { "$WORK/simctl" -addr "$BASE" "$@"; }

echo "== build"
go build -o "$WORK/simserve" ./cmd/simserve
go build -o "$WORK/simgen" ./cmd/simgen
go build -o "$WORK/simctl" ./cmd/simctl

echo "== boot simserve on $ADDR"
"$WORK/simserve" -addr "$ADDR" -k 5 -window 2000 &
SRV_PID=$!

i=0
until ctl health >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "server did not come up" >&2; exit 1; }
    sleep 0.1
done

echo "== stream 1000 generated actions through the api client"
INGEST="$("$WORK/simgen" -preset syn-o -users 500 -actions 1000 -window 1000 |
    ctl ingest default -)"
echo "$INGEST"
case "$INGEST" in
*'"processed": 1000'*) ;;
*) echo "expected processed=1000: $INGEST" >&2; exit 1 ;;
esac

echo "== query seeds"
SEEDS="$(ctl seeds default)"
echo "$SEEDS"
case "$SEEDS" in
*'"seeds": ['*) ;;
*) echo "seeds query returned no seeds: $SEEDS" >&2; exit 1 ;;
esac

echo "== relational query: top-3 seeds by influence"
cat > "$WORK/plan.json" <<'EOF'
{"plan": {"scan": "seeds", "ops": [{"op": "topk", "col": "influence", "k": 3, "desc": true}]}}
EOF
ROWS="$(ctl query default "$WORK/plan.json")"
echo "$ROWS"
case "$ROWS" in
*'"rows": ['*) ;;
*) echo "query returned no rows: $ROWS" >&2; exit 1 ;;
esac
case "$ROWS" in
*'"processed": 1000'*) ;;
*) echo "query ran against the wrong snapshot: $ROWS" >&2; exit 1 ;;
esac

echo "== error contract: unknown tracker is a 404 envelope"
if ERR="$(ctl seeds no-such-tracker 2>&1)"; then
    echo "expected a non-zero exit for an unknown tracker: $ERR" >&2
    exit 1
fi
echo "$ERR"
case "$ERR" in
*'unknown tracker'*'404'*) ;;
*) echo "error did not carry the envelope message + status: $ERR" >&2; exit 1 ;;
esac

echo "== stats"
STATS="$(ctl stats default)"
case "$STATS" in
*'"queue_capacity"'*) ;;
*) echo "stats missing queue_capacity: $STATS" >&2; exit 1 ;;
esac

echo "== graceful drain (SIGTERM)"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
echo "serve smoke OK"
