#!/bin/sh
# make_row.sh BINDIR ROW — write one row of the data-dir corpus that
# TestBootsEveryCommittedDataDir boots (see README.md in this directory).
#
# BINDIR holds simserve and simgen built from the commit the row stands for.
# The script generates a deterministic name-mode stream, ingests it into a
# durable, budgeted simserve in 100-action posts, records the /seeds, /value
# and /stats answers in ROW/answers.json, kill -9s the server and copies its
# tracker directory to ROW. A torn twin of every row — its wal.log ending in
# a torn record, as a kill -9 mid-append leaves it — is made at test time.
#
# The parameters here are the ones the test regenerates the stream and the
# tracker spec from; change one and the test must change with it.
set -eu

BIN="$(cd "$1" && pwd)"
ROW="$2"
ADDR="127.0.0.1:${PORT:-18391}"
WORK="$(mktemp -d)"
PID=
trap 'kill -9 "${PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$BIN/simgen" -preset syn-o -users 300 -actions 1500 -window 600 -seed 7 |
    sed 's/"user":\([0-9]*\)/"user":"u\1"/' >"$WORK/actions.ndjson"
split -l 100 "$WORK/actions.ndjson" "$WORK/chunk."

"$BIN/simserve" -addr "$ADDR" -names -k 5 -window 300 -slide 100 \
    -memory-budget 8192 -wal-snapshot-bytes 4096 -data-dir "$WORK/data" \
    2>"$WORK/simserve.log" &
PID=$!
i=0
until curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { cat "$WORK/simserve.log" >&2; exit 1; }
    sleep 0.1
done

for c in $(ls "$WORK"/chunk.* | sort); do
    curl -sf --data-binary @"$c" "http://$ADDR/v1/trackers/default/actions" >/dev/null
done
BASE="http://$ADDR/v1/trackers/default"
printf '{"seeds":%s,"value":%s,"stats":%s}\n' \
    "$(curl -sf "$BASE/seeds")" "$(curl -sf "$BASE/value")" "$(curl -sf "$BASE/stats")" >"$WORK/answers.json"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=

mkdir -p "$ROW"
cp -R "$WORK/data/default/." "$ROW/"
rm -f "$ROW/.lock"
cp "$WORK/answers.json" "$ROW/answers.json"
