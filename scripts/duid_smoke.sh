#!/usr/bin/env bash
# duid-smoke: the campaign-service crash-recovery and determinism gate.
#
# A fuzz campaign is run twice: once directly (duireport simfuzz -json)
# and once through a duid server that is kill -9'd mid-campaign and
# restarted over the same state directory. The resumed job must report journal-replayed
# trials and serve result bytes identical (cmp) to the direct run; an
# identical resubmission must then be answered from the result cache
# (cached:true, no re-execution), and the driver's -server mode must
# return the same bytes end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-6000}          # big enough that -parallel 1 gives a wide kill window
PORT1=${PORT1:-18077}
PORT2=${PORT2:-18078}
BASE1="http://127.0.0.1:$PORT1"
BASE2="http://127.0.0.1:$PORT2"
WORK=$(mktemp -d)
DUID_PID=

say() { echo "duid-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

cleanup() {
	[ -n "$DUID_PID" ] && kill -9 "$DUID_PID" 2>/dev/null
	rm -rf "$WORK"
}
trap cleanup EXIT

# Tiny extractors for duid's compact one-object JSON responses.
jstr() { sed -n "s/.*\"$1\":\"\([^\"]*\)\".*/\1/p"; }
jnum() { sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"; }

wait_up() { # wait_up BASE — until /v1/version answers
	for _ in $(seq 1 100); do
		curl -sf "$1/v1/version" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	die "duid at $1 never came up"
}

say "building duid and duireport"
go build -o "$WORK/duid" ./cmd/duid
go build -o "$WORK/duireport" ./cmd/duireport

say "direct run: duireport simfuzz -json -seeds $SEEDS"
# Exit 1 just means the campaign found failures — still a valid result.
"$WORK/duireport" simfuzz -json -quiet -seeds "$SEEDS" >"$WORK/direct.json" || [ $? -eq 1 ]

say "starting duid (single worker, state $WORK/state)"
"$WORK/duid" -addr "127.0.0.1:$PORT1" -dir "$WORK/state" -parallel 1 \
	2>"$WORK/duid1.log" &
DUID_PID=$!
disown
wait_up "$BASE1"

spec="{\"kind\":\"fuzz\",\"fuzz\":{\"seeds\":$SEEDS}}"
id=$(curl -sf -X POST -d "$spec" "$BASE1/v1/jobs" | jstr id)
[ -n "$id" ] || die "no job id from submit"
say "submitted job $id; waiting for mid-campaign progress"

while :; do
	st=$(curl -sf "$BASE1/v1/jobs/$id")
	state=$(jstr state <<<"$st")
	done_n=$(jnum done <<<"$st")
	[ "$state" = done ] && die "campaign finished before the kill (raise SEEDS)"
	[ "${done_n:-0}" -ge 300 ] && break
	sleep 0.05
done

say "kill -9 at $done_n/$SEEDS trials"
kill -9 "$DUID_PID"
wait "$DUID_PID" 2>/dev/null || true
DUID_PID=

say "restarting duid over the same state directory"
"$WORK/duid" -addr "127.0.0.1:$PORT2" -dir "$WORK/state" \
	2>"$WORK/duid2.log" &
DUID_PID=$!
disown
wait_up "$BASE2"

# ?wait long-polls return on every progress change, so bound the wait by
# wall clock, not poll count.
deadline=$((SECONDS + 300))
while [ "$SECONDS" -lt "$deadline" ]; do
	st=$(curl -sf "$BASE2/v1/jobs/$id?wait=5s")
	state=$(jstr state <<<"$st")
	case "$state" in done) break ;; failed | canceled) die "resumed job $state: $st" ;; esac
done
[ "$state" = done ] || die "resumed job never finished: $st"
resumed=$(jnum resumed <<<"$st")
[ "${resumed:-0}" -gt 0 ] || die "restarted job replayed no journaled trials: $st"
say "job resumed ($resumed trials replayed from the journal) and finished"

curl -sf "$BASE2/v1/jobs/$id/result" >"$WORK/server.json"
cmp "$WORK/direct.json" "$WORK/server.json" ||
	die "server-mediated result diverged from direct execution"
say "server result is byte-identical to the direct run"

st2=$(curl -sf -X POST -d "$spec" "$BASE2/v1/jobs")
grep -q '"cached":true' <<<"$st2" || die "resubmitted job not served from cache: $st2"
id2=$(jstr id <<<"$st2")
curl -sf "$BASE2/v1/jobs/$id2/result" >"$WORK/cached.json"
cmp "$WORK/direct.json" "$WORK/cached.json" || die "cached result diverged"
say "identical resubmission served from the result cache"

"$WORK/duireport" simfuzz -server "$BASE2" -quiet -seeds "$SEEDS" >"$WORK/client.json" || [ $? -eq 1 ]
cmp "$WORK/direct.json" "$WORK/client.json" || die "simfuzz -server diverged"
say "simfuzz -server output matches -json inline output"

say "PASS"
