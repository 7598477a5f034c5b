#!/usr/bin/env bash
# Load smoke test for pnnload: offer open-loop Zipf load against a
# writable single pnnserve and a routed 1-router/2-backend topology,
# assert zero non-retryable errors, check the dumped request sequence
# is byte-stable, and gate the emitted BENCH_macro rows against the
# committed baselines with benchdiff. Used by the CI load-smoke job;
# runnable locally too.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=()
trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$workdir"' EXIT

# Short low-QPS runs by default (CI smoke scale); raise via env to turn
# this into a real measurement run.
qps="${LOAD_QPS:-120}"
duration="${LOAD_DURATION:-5s}"
seed="${LOAD_SEED:-42}"
single_port="${LOAD_SINGLE_PORT:-18090}"
b1_port="${LOAD_B1_PORT:-18091}"
b2_port="${LOAD_B2_PORT:-18092}"
router_port="${LOAD_ROUTER_PORT:-18093}"
token="load-smoke-token"

echo "== building"
go build -o "$workdir" ./cmd/pnngen ./cmd/pnnserve ./cmd/pnnrouter ./cmd/pnnload ./cmd/benchdiff

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

echo "== request sequences are byte-stable across invocations"
"$workdir/pnnload" -dump 200 -seed "$seed" -mix read=8,write=2 > "$workdir/dump1"
"$workdir/pnnload" -dump 200 -seed "$seed" -mix read=8,write=2 > "$workdir/dump2"
if ! cmp -s "$workdir/dump1" "$workdir/dump2"; then
  echo "FAIL: two dumps of one spec differ" >&2
  diff "$workdir/dump1" "$workdir/dump2" | head >&2
  exit 1
fi
echo "ok   -dump emits identical bytes for identical specs"

echo "== single writable pnnserve on :$single_port"
"$workdir/pnnserve" \
  -addr "127.0.0.1:$single_port" \
  -store "$workdir/store" \
  -admin-token "$token" \
  -log-level off &
pids+=($!)
wait_healthy "$single_port" "${pids[0]}" "pnnserve"

echo "== creating and seeding the load dataset"
code="$(curl -sS -o "$workdir/create_body" -w '%{http_code}' -X PUT \
  -H "Authorization: Bearer $token" -H 'Content-Type: application/json' \
  -d '{"kind":"disks"}' "http://127.0.0.1:$single_port/v1/datasets/demo")"
if [ "$code" != "200" ]; then
  echo "FAIL: create dataset -> $code" >&2; cat "$workdir/create_body" >&2; exit 1
fi
# Insert-only pre-seed so the mixed phase never reads an empty dataset
# (empty_dataset is non-retryable by design).
"$workdir/pnnload" \
  -target "http://127.0.0.1:$single_port" -admin-token "$token" \
  -seed "$seed" -qps 200 -duration 2s -mix insert=1 -warmup=false \
  -name macro-seed -fail-on-nonretryable > "$workdir/seed.out"
echo "ok   dataset created and seeded"

echo "== mixed read/write load against the single node"
"$workdir/pnnload" \
  -target "http://127.0.0.1:$single_port" -admin-token "$token" \
  -seed "$seed" -qps "$qps" -duration "$duration" \
  -mix read=8,write=2 -point-theta 0.9 \
  -name macro-single-node -out "$workdir/bench" \
  -fail-on-nonretryable | tee "$workdir/single.out"

echo "== write-heavy load against the single node (delta apply path)"
"$workdir/pnnload" \
  -target "http://127.0.0.1:$single_port" -admin-token "$token" \
  -seed "$seed" -qps "$qps" -duration "$duration" \
  -mix read=2,write=8 -point-theta 0.9 \
  -name macro-write-heavy -out "$workdir/bench" \
  -fail-on-nonretryable | tee "$workdir/write_heavy.out"
kill "${pids[0]}" 2>/dev/null || true
wait "${pids[0]}" 2>/dev/null || true
pids=()

echo "== routed topology: 1 pnnrouter + 2 read-only backends"
"$workdir/pnngen" -kind disks -n 60 -seed 7 > "$workdir/demo.json"
for port in "$b1_port" "$b2_port"; do
  "$workdir/pnnserve" \
    -addr "127.0.0.1:$port" \
    -data "demo=$workdir/demo.json" \
    -log-level off &
  pids+=($!)
done
"$workdir/pnnrouter" \
  -addr "127.0.0.1:$router_port" \
  -backends "127.0.0.1:$b1_port,127.0.0.1:$b2_port" \
  -probe-interval 200ms -log-level off &
pids+=($!)
wait_healthy "$b1_port" "${pids[0]}" "backend 1"
wait_healthy "$b2_port" "${pids[1]}" "backend 2"
wait_healthy "$router_port" "${pids[2]}" "pnnrouter"

"$workdir/pnnload" \
  -target "http://127.0.0.1:$router_port" \
  -seed "$seed" -qps "$qps" -duration "$duration" \
  -mix read=4,batch=1 -point-theta 0.9 \
  -name macro-routed -out "$workdir/bench" \
  -fail-on-nonretryable | tee "$workdir/routed.out"

echo "== emitted macro rows are valid and gated by benchdiff"
for name in macro-single-node macro-write-heavy macro-routed; do
  row="$workdir/bench/BENCH_$name.json"
  [ -s "$row" ] || { echo "FAIL: $row missing or empty" >&2; exit 1; }
  grep -q '"macro": true' "$row" || { echo "FAIL: $row lacks the macro marker" >&2; exit 1; }
  grep -q '"p99_ns"' "$row" || { echo "FAIL: $row lacks p99_ns" >&2; exit 1; }
done
# To (re)generate the committed baselines, run with
# LOAD_BASELINE_OUT=bench and commit the copied rows.
if [ -n "${LOAD_BASELINE_OUT:-}" ]; then
  cp "$workdir"/bench/BENCH_macro-single-node.json "$workdir"/bench/BENCH_macro-write-heavy.json "$workdir"/bench/BENCH_macro-routed.json "$LOAD_BASELINE_OUT/"
  echo "ok   baselines copied to $LOAD_BASELINE_OUT"
fi
# Latency on shared CI runners is noisy; the committed baselines gate
# error rate tightly and p99 only against order-of-magnitude blowups.
"$workdir/benchdiff" -base bench -new "$workdir/bench" \
  -p99-tolerance "${LOAD_P99_TOLERANCE:-9.0}" -fail-on-nonretryable -v
echo "ok   macro rows match the committed baselines"

echo "PASS: load smoke"
