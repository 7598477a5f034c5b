#!/usr/bin/env bash
# Multi-node smoke test for pnnrouter: 1 router in front of 2 replicated
# pnnserve backends. Round-trips single queries and a mixed-dataset
# batch through the router, verifies routed answers match a direct
# backend query, then kills one backend mid-run and proves failover
# keeps answering correctly. Used by the CI router-smoke job; runnable
# locally too.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=()
trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

echo "== building"
go build -o "$workdir" ./cmd/pnngen ./cmd/pnnserve ./cmd/pnnrouter

echo "== generating datasets"
"$workdir/pnngen" -kind discrete -n 40 -k 3 -seed 2 > "$workdir/fleet.json"
"$workdir/pnngen" -kind disks -n 30 -seed 5 > "$workdir/demo.json"

b1_port="${SMOKE_B1_PORT:-18081}"
b2_port="${SMOKE_B2_PORT:-18082}"
router_port="${SMOKE_ROUTER_PORT:-18080}"

echo "== starting 2 pnnserve backends on :$b1_port and :$b2_port"
for port in "$b1_port" "$b2_port"; do
  "$workdir/pnnserve" \
    -addr "127.0.0.1:$port" \
    -data "fleet=$workdir/fleet.json" \
    -data "demo=$workdir/demo.json" \
    -trace-sample 1 &
  pids+=($!)
done
b1_pid="${pids[0]}"
b2_pid="${pids[1]}"

echo "== starting pnnrouter on :$router_port"
"$workdir/pnnrouter" \
  -addr "127.0.0.1:$router_port" \
  -backends "127.0.0.1:$b1_port,127.0.0.1:$b2_port" \
  -probe-interval 200ms \
  -trace-sample 1 \
  -pprof -log-level off &
pids+=($!)
router_pid="${pids[2]}"

wait_healthy() { # wait_healthy <port> <pid> <name>
  local port="$1" pid="$2" name="$3"
  for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "http://127.0.0.1:$port/healthz" 2>/dev/null; then return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: $name exited before becoming healthy" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: $name never became healthy" >&2; exit 1
}
wait_healthy "$b1_port" "$b1_pid" "backend 1"
wait_healthy "$b2_port" "$b2_pid" "backend 2"
wait_healthy "$router_port" "$router_pid" "pnnrouter"

base="http://127.0.0.1:$router_port"

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

echo "== single queries through the router"
check '/healthz'
check '/v1/datasets'
for ds in fleet demo; do
  check "/v1/nonzero?dataset=$ds&x=42&y=17"
  check "/v1/topk?dataset=$ds&x=42&y=17&k=3"
  check "/v1/expectednn?dataset=$ds&x=42&y=17"
done
check '/metrics'

echo "== routed answer matches a direct backend answer"
curl -sS "$base/v1/nonzero?dataset=fleet&x=42&y=17" > "$workdir/routed"
curl -sS "http://127.0.0.1:$b1_port/v1/nonzero?dataset=fleet&x=42&y=17" > "$workdir/direct"
if ! cmp -s "$workdir/routed" "$workdir/direct"; then
  echo "FAIL: routed body differs from direct backend body" >&2
  diff "$workdir/routed" "$workdir/direct" >&2 || true
  exit 1
fi
echo "ok   routed == direct"

echo "== mixed-dataset batch through the router"
batch='{"items":[
  {"dataset":"fleet","op":"nonzero","x":42,"y":17},
  {"dataset":"demo","op":"topk","x":10,"y":20,"k":3},
  {"dataset":"fleet","op":"expectednn","x":1,"y":2},
  {"dataset":"demo","op":"threshold","x":3,"y":4,"tau":0.2}
]}'
post_batch() { # post_batch <outfile>
  local code
  code="$(curl -sS -o "$1" -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "$batch" "$base/v1/batch")"
  if [ "$code" != "200" ]; then
    echo "FAIL: POST /v1/batch -> $code" >&2; cat "$1" >&2; exit 1
  fi
  if grep -q '"error"' "$1"; then
    echo "FAIL: batch response contains per-item errors" >&2; cat "$1" >&2; exit 1
  fi
}
post_batch "$workdir/batch_before"
echo "ok   POST /v1/batch -> 200, no per-item errors"

echo "== killing backend 2 mid-run"
kill -9 "$b2_pid"
keep=()
for p in "${pids[@]}"; do
  [ "$p" != "$b2_pid" ] && keep+=("$p")
done
pids=("${keep[@]}")

echo "== failover: queries and batches still answer correctly"
check "/v1/nonzero?dataset=fleet&x=42&y=17"
check "/v1/topk?dataset=demo&x=10&y=20&k=3"
post_batch "$workdir/batch_after"
if ! cmp -s "$workdir/batch_before" "$workdir/batch_after"; then
  echo "FAIL: batch answers changed after killing a replica" >&2
  diff "$workdir/batch_before" "$workdir/batch_after" >&2 || true
  exit 1
fi
echo "ok   batch answers identical after failover"

echo "== router health degrades after probes notice the dead replica"
for _ in $(seq 1 50); do
  status="$(curl -sS "$base/healthz" | tr -d '\r')"
  case "$status" in *degraded*) break ;; esac
  sleep 0.1
done
case "$status" in
  *degraded*) echo "ok   /healthz reports degraded" ;;
  *) echo "FAIL: /healthz never reported degraded: $status" >&2; exit 1 ;;
esac

curl -sS "$base/metrics" > "$workdir/metrics"
for metric in pnn_router_backend_up pnn_router_failovers_total pnn_router_batches_total \
    pnn_router_request_duration_seconds_bucket pnn_router_request_duration_seconds_sum \
    pnn_router_request_duration_seconds_count pnn_router_backend_latency_seconds_bucket; do
  grep -q "$metric" "$workdir/metrics" || {
    echo "FAIL: /metrics lacks $metric" >&2; exit 1; }
done
echo "ok   /metrics exposes router counters and histograms"

echo "== traceparent echoed and trace kept on both tiers"
trace_id='abcdefabcdefabcdefabcdefabcdef12'
tp="00-$trace_id-1234567890abcdef-01"
echoed_tp="$(curl -sS -o /dev/null -D - -H "Traceparent: $tp" "$base/v1/nonzero?dataset=fleet&x=5&y=6" | tr -d '\r' | awk -F': ' 'tolower($1)=="traceparent"{print $2}')"
case "$echoed_tp" in
  00-$trace_id-*) echo "ok   supplied trace id echoed on Traceparent" ;;
  *) echo "FAIL: traceparent not echoed through router, got '${echoed_tp:-none}'" >&2; exit 1 ;;
esac
curl -sS "$base/debug/traces?id=$trace_id" > "$workdir/traces"
grep -q "$trace_id" "$workdir/traces" || {
  echo "FAIL: router /debug/traces?id= lacks the traced request" >&2; cat "$workdir/traces" >&2; exit 1; }
# Backend 2 is already dead here, so the traced query necessarily
# failed over to backend 1 — its ring must hold the same trace.
curl -sS "http://127.0.0.1:$b1_port/debug/traces?id=$trace_id" > "$workdir/betraces"
grep -q "$trace_id" "$workdir/betraces" || {
  echo "FAIL: backend /debug/traces?id= lacks the routed trace" >&2; exit 1; }
echo "ok   one trace id spans router and backend /debug/traces?id="

echo "== pprof reachable with -pprof"
curl -fsS -o /dev/null "$base/debug/pprof/cmdline" || {
  echo "FAIL: /debug/pprof/cmdline not reachable with -pprof" >&2; exit 1; }
echo "ok   /debug/pprof/ serves"

echo "== graceful shutdown"
kill -TERM "$router_pid"
wait "$router_pid" || { echo "FAIL: pnnrouter exited non-zero on SIGTERM" >&2; exit 1; }
kill -TERM "$b1_pid"
wait "$b1_pid" || { echo "FAIL: pnnserve exited non-zero on SIGTERM" >&2; exit 1; }
pids=()
echo "PASS: router smoke"
