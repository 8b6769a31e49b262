#!/usr/bin/env bash
# robustness-smoke: the robustness-matrix determinism gate.
#
# The quick matrix is run three ways — inline on one worker, inline on
# four workers, and submitted to a duid server — and all three JSON
# results must be byte-identical (cmp): trial seeds derive from cell
# coordinates alone, so neither the worker pool nor the service path may
# leak into result bytes. The matrix JSON is left at $OUT for CI to
# upload as an artifact. (The E8 -defense-eval report is pinned by
# TestDefenseEvalPinned in internal/robustness.)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-18079}
BASE="http://127.0.0.1:$PORT"
OUT=${OUT:-robustness-matrix.json}
WORK=$(mktemp -d)
DUID_PID=

say() { echo "robustness-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

cleanup() {
	[ -n "$DUID_PID" ] && kill -9 "$DUID_PID" 2>/dev/null
	rm -rf "$WORK"
}
trap cleanup EXIT

wait_up() {
	for _ in $(seq 1 100); do
		curl -sf "$BASE/v1/version" >/dev/null 2>&1 && return 0
		sleep 0.1
	done
	die "duid at $BASE never came up"
}

say "building robustness and duid"
go build -o "$WORK/robustness" ./cmd/robustness
go build -o "$WORK/duid" ./cmd/duid

say "quick matrix inline: -parallel 1 vs -parallel 4"
"$WORK/robustness" -quick -json -parallel 1 >"$WORK/p1.json"
"$WORK/robustness" -quick -json -parallel 4 >"$WORK/p4.json"
cmp "$WORK/p1.json" "$WORK/p4.json" ||
	die "matrix diverged across worker counts"
say "worker-count independent matrix verified"

say "starting duid (state $WORK/state)"
"$WORK/duid" -addr "127.0.0.1:$PORT" -dir "$WORK/state" 2>"$WORK/duid.log" &
DUID_PID=$!
disown
wait_up

"$WORK/robustness" -quick -json -server "$BASE" >"$WORK/server.json"
cmp "$WORK/p1.json" "$WORK/server.json" ||
	die "server-mediated matrix diverged from inline execution"
say "server result is byte-identical to inline execution"

# An identical resubmission must answer from the result cache.
"$WORK/robustness" -quick -json -server "$BASE" >"$WORK/cached.json"
cmp "$WORK/p1.json" "$WORK/cached.json" || die "cached resubmission diverged"
grep -q '"cached":true' "$WORK/state/jobs.journal" ||
	die "resubmission was not served from the result cache"
say "identical resubmission served from the result cache"

cp "$WORK/p1.json" "$OUT"
say "matrix JSON written to $OUT"
say "PASS"
