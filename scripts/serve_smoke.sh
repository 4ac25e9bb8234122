#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for the balignd daemon and the
# baload load harness.
#
# Builds balignd and baload, boots the daemon on an ephemeral port, waits
# for /healthz, fires one /v1/align and one /v1/simulate request built from
# the committed serve fixtures, drives a short constant-rate closed-loop
# baload run gated on nonzero achieved RPS, zero unexpected errors
# (429/503/504 backpressure excluded) and nonzero cache hits, then delivers
# SIGTERM and asserts a clean graceful drain (exit status 0). Run from the
# repository root:  make serve-smoke
set -euo pipefail

GO=${GO:-go}
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"

WORK=$(mktemp -d)
. "$ROOT/scripts/daemon_lib.sh"
cleanup() {
    daemon_cleanup
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    dump_daemon_logs
    exit 1
}

"$GO" build -o "$WORK/balignd" ./cmd/balignd
"$GO" build -o "$WORK/baload" ./cmd/baload

boot_daemon balignd "$WORK/balignd" -timeout 30s -drain 20s
PID=$DAEMON_PID
BASE="http://$DAEMON_ADDR"

curl -sSf "$BASE/healthz" >/dev/null || fail "healthz probe failed"

# Build the align request body from the committed fixtures. The asm and
# profile fields are JSON strings, so the files go through a tiny Go
# JSON-encoder rather than fragile shell quoting.
"$GO" run ./scripts/mkreq \
    -asm internal/serve/testdata/sample.asm \
    -profile internal/serve/testdata/sample.prof \
    >"$WORK/align.json"

STATUS=$(curl -sS -o "$WORK/align.out" -w '%{http_code}' \
    -X POST --data-binary @"$WORK/align.json" "$BASE/v1/align")
[ "$STATUS" = 200 ] || { cat "$WORK/align.out" >&2; fail "/v1/align returned $STATUS"; }
grep -q '"plans"' "$WORK/align.out" || fail "/v1/align response missing plans"
echo "serve-smoke: /v1/align ok"

# Same endpoint through the CFG front door: one document carries both the
# program and its profile (DOT here; JSON is auto-detected too).
"$GO" run ./scripts/mkreq -cfg testdata/cfg/go_scanobject.dot \
    >"$WORK/align_cfg.json"

STATUS=$(curl -sS -o "$WORK/align_cfg.out" -w '%{http_code}' \
    -X POST --data-binary @"$WORK/align_cfg.json" "$BASE/v1/align")
[ "$STATUS" = 200 ] || { cat "$WORK/align_cfg.out" >&2; fail "/v1/align (cfg) returned $STATUS"; }
grep -q '"plans"' "$WORK/align_cfg.out" || fail "/v1/align (cfg) response missing plans"
echo "serve-smoke: /v1/align (cfg) ok"

cat >"$WORK/simulate.json" <<'EOF'
{"programs": ["ora"], "scale": 0.02}
EOF
STATUS=$(curl -sS -o "$WORK/simulate.out" -w '%{http_code}' \
    -X POST --data-binary @"$WORK/simulate.json" "$BASE/v1/simulate")
[ "$STATUS" = 200 ] || { cat "$WORK/simulate.out" >&2; fail "/v1/simulate returned $STATUS"; }
grep -q '"report"' "$WORK/simulate.out" || fail "/v1/simulate response missing report"
echo "serve-smoke: /v1/simulate ok"

# Short closed-loop run. The gates are the point: the run must achieve a
# nonzero rate and see zero unexpected errors end to end. The mix covers
# both endpoints and all three align encodings but leaves out
# simulate-suite: a single cold suite compute can exceed the whole smoke
# budget on a small runner.
"$WORK/baload" -base "$BASE" \
    -schedule constant -rps 25 -duration 4s -workers 8 \
    -corpus 12 -seed 7 -timeout 60s \
    -mix "align-asm=2,align-cfg-json=1,align-cfg-dot=1,simulate-inline=1" \
    -min-rps 1 -max-unexpected 0 \
    -report "$WORK/load_report.json" \
    || fail "baload run failed its gates"

# The report records the run's wall time and the host it ran on.
WALL=$(sed -n 's/^  "wall_dur_ns": \([0-9]*\),$/\1/p' "$WORK/load_report.json")
[ -n "$WALL" ] && [ "$WALL" -gt 0 ] || fail "report missing wall_dur_ns (got '$WALL')"
grep -q '^  "host": {$' "$WORK/load_report.json" || fail "report missing host block"
grep -q '^    "cpus": [1-9]' "$WORK/load_report.json" || fail "report host block missing cpus"

# The corpus repeats entries, so a healthy daemon must show cache hits.
HITS=$(sed -n 's/^  "cache_hits": \([0-9]*\),$/\1/p' "$WORK/load_report.json")
[ -n "$HITS" ] || fail "report missing cache_hits"
[ "$HITS" -gt 0 ] || fail "no cache hits (got $HITS)"
echo "serve-smoke: closed-loop run passed its gates ($HITS cache hits)"

# Graceful drain: SIGTERM must produce a clean exit.
stop_daemon "$PID"
echo "serve-smoke: PASS (clean drain)"
