#!/usr/bin/env bash
# Smoke test for pnnserve: start the server on a generated dataset and
# run a scripted curl round-trip against every endpoint, failing on any
# non-200. Used by the CI server-smoke job; runnable locally too.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building"
go build -o "$workdir" ./cmd/pnngen ./cmd/pnnserve

echo "== generating datasets"
"$workdir/pnngen" -kind discrete -n 40 -k 3 -seed 2 > "$workdir/fleet.json"

port="${SMOKE_PORT:-18080}"
echo "== starting pnnserve on :$port"
"$workdir/pnnserve" \
  -addr "127.0.0.1:$port" \
  -data "fleet=$workdir/fleet.json" \
  -gen 'demo=disks:n=50,seed=7' \
  -trace-sample 1 \
  -pprof -log-level off &
server_pid=$!

base="http://127.0.0.1:$port"
for _ in $(seq 1 50); do
  if curl -fsS -o /dev/null "$base/healthz" 2>/dev/null; then break; fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: pnnserve exited before becoming healthy" >&2; exit 1
  fi
  sleep 0.1
done

check() { # check <path>
  local path="$1" code
  code="$(curl -sS -o "$workdir/last_body" -w '%{http_code}' "$base$path")"
  if [ "$code" != "200" ]; then
    echo "FAIL: GET $path -> $code" >&2
    cat "$workdir/last_body" >&2
    exit 1
  fi
  echo "ok   GET $path -> 200"
}

echo "== round-tripping every endpoint"
check '/healthz'
check '/v1/datasets'
for ds in fleet demo; do
  check "/v1/nonzero?dataset=$ds&x=42&y=17"
  check "/v1/probabilities?dataset=$ds&x=42&y=17"
  check "/v1/probabilities?dataset=$ds&x=42&y=17&method=spiral&eps=0.05"
  check "/v1/topk?dataset=$ds&x=42&y=17&k=3"
  check "/v1/threshold?dataset=$ds&x=42&y=17&tau=0.2"
  check "/v1/expectednn?dataset=$ds&x=42&y=17"
done
check '/v1/nonzero?dataset=fleet&x=42&y=17&backend=direct'
check '/metrics'

echo "== checking cache hit on repeat"
hit="$(curl -sS -o /dev/null -D - "$base/v1/nonzero?dataset=fleet&x=42&y=17" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-pnn-cache"{print $2}')"
if [ "$hit" != "hit" ]; then
  echo "FAIL: expected X-Pnn-Cache: hit on repeated query, got '${hit:-none}'" >&2
  exit 1
fi
echo "ok   repeated query served from cache"

if ! grep -q 'pnn_requests_total' "$workdir/last_body" 2>/dev/null; then
  curl -sS "$base/metrics" -o "$workdir/metrics"
  grep -q 'pnn_requests_total' "$workdir/metrics" || {
    echo "FAIL: /metrics lacks pnn_requests_total" >&2; exit 1; }
fi

echo "== minted traceparent"
minted_tp="$(curl -sS -o /dev/null -D - "$base/v1/nonzero?dataset=fleet&x=1&y=2" | tr -d '\r' | awk -F': ' 'tolower($1)=="traceparent"{print $2}')"
if ! printf '%s\n' "$minted_tp" | grep -Eq '^00-[0-9a-f]{32}-[0-9a-f]{16}-0[01]$' ||
    printf '%s\n' "$minted_tp" | grep -Eq '^00-0{32}-|-0{16}-'; then
  echo "FAIL: a request without Traceparent got '${minted_tp:-none}', want a valid minted one" >&2; exit 1
fi
echo "ok   a request without Traceparent gets a valid one"

echo "== traceparent echo and /debug/traces"
trace_id='abcdefabcdefabcdefabcdefabcdef12'
tp="00-$trace_id-1234567890abcdef-01"
echoed_tp="$(curl -sS -o /dev/null -D - -H "Traceparent: $tp" "$base/v1/nonzero?dataset=fleet&x=5&y=6" | tr -d '\r' | awk -F': ' 'tolower($1)=="traceparent"{print $2}')"
case "$echoed_tp" in
  00-$trace_id-*) echo "ok   supplied trace id echoed on Traceparent" ;;
  *) echo "FAIL: traceparent not echoed, got '${echoed_tp:-none}'" >&2; exit 1 ;;
esac
curl -sS "$base/debug/traces?id=$trace_id" > "$workdir/traces"
grep -q "$trace_id" "$workdir/traces" || {
  echo "FAIL: /debug/traces?id= lacks the traced request" >&2; cat "$workdir/traces" >&2; exit 1; }
echo "ok   /debug/traces?id= serves the traced request"

echo "== latency histogram series"
curl -sS "$base/metrics" > "$workdir/metrics"
for series in pnn_request_duration_seconds_bucket pnn_request_duration_seconds_sum pnn_request_duration_seconds_count; do
  grep -q "$series" "$workdir/metrics" || {
    echo "FAIL: /metrics lacks $series" >&2; exit 1; }
done
echo "ok   /metrics exposes _bucket/_sum/_count"

echo "== pprof reachable with -pprof"
curl -fsS -o /dev/null "$base/debug/pprof/cmdline" || {
  echo "FAIL: /debug/pprof/cmdline not reachable with -pprof" >&2; exit 1; }
echo "ok   /debug/pprof/ serves"

echo "== graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "FAIL: pnnserve exited non-zero on SIGTERM" >&2; exit 1; }
server_pid=""
echo "PASS: server smoke"
