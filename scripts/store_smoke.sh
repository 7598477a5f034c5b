#!/usr/bin/env bash
# Smoke test for the durable store: start pnnserve on an empty store
# dir, create a dataset over HTTP, insert points, capture query bytes,
# SIGKILL the process (no graceful anything), restart on the same dir,
# and prove (1) every acknowledged write is still there, (2) the
# post-restart query bytes are identical to the pre-kill bytes, and
# (3) a live engine, backend=diagram included, absorbs a later write
# without being rebuilt. Used by the CI store-smoke job; runnable
# locally too.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'kill -9 "${server_pid:-}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

token="smoke-$$"
port="${SMOKE_PORT:-18090}"
base="http://127.0.0.1:$port"
storedir="$workdir/store"

echo "== building"
go build -o "$workdir" ./cmd/pnnserve

start_server() {
  "$workdir/pnnserve" \
    -addr "127.0.0.1:$port" \
    -store "$storedir" \
    -admin-token "$token" &
  server_pid=$!
  for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$base/healthz" 2>/dev/null; then return; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "FAIL: pnnserve exited before becoming healthy" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: pnnserve never became healthy" >&2; exit 1
}

admin() { # admin <method> <path> [json-body]
  local method="$1" path="$2" body="${3:-}" code
  if [ -n "$body" ]; then
    code="$(curl -sS -o "$workdir/last_body" -w '%{http_code}' \
      -X "$method" -H "Authorization: Bearer $token" -d "$body" "$base$path")"
  else
    code="$(curl -sS -o "$workdir/last_body" -w '%{http_code}' \
      -X "$method" -H "Authorization: Bearer $token" "$base$path")"
  fi
  if [ "$code" != "200" ]; then
    echo "FAIL: $method $path -> $code" >&2
    cat "$workdir/last_body" >&2
    exit 1
  fi
  echo "ok   $method $path -> 200"
}

index_builds() {
  curl -fsS "$base/metrics" | awk '$1 == "pnn_index_builds_total" { print $2 }'
}

echo "== starting pnnserve on an empty store dir"
start_server

echo "== mutations must be authenticated"
code="$(curl -sS -o /dev/null -w '%{http_code}' -X PUT -d '{"kind":"discrete"}' "$base/v1/datasets/fleet")"
if [ "$code" != "401" ]; then
  echo "FAIL: tokenless create -> $code, want 401" >&2; exit 1
fi
echo "ok   tokenless create rejected (401)"

echo "== creating dataset and inserting points"
admin PUT  '/v1/datasets/fleet' '{"kind":"discrete"}'
admin POST '/v1/datasets/fleet/points' \
  '{"discrete":[{"x":[1,2],"y":[3,4]},{"x":[10],"y":[10]},{"x":[40],"y":[41]}]}'
admin PUT  '/v1/datasets/demo' '{"kind":"disks"}'
admin POST '/v1/datasets/demo/points' \
  '{"disks":[{"x":5,"y":5,"r":2},{"x":9,"y":1,"r":0.5}]}'
admin DELETE '/v1/datasets/fleet/points/3'
admin POST '/v1/datasets/demo/snapshot'   # exercise compaction mid-run
admin POST '/v1/datasets/demo/points' '{"disks":[{"x":0,"y":0,"r":1}]}'

queries=(
  '/v1/datasets'
  '/v1/nonzero?dataset=fleet&x=2&y=3'
  '/v1/nonzero?dataset=fleet&x=2&y=3&backend=diagram'
  '/v1/probabilities?dataset=fleet&x=2&y=3'
  '/v1/topk?dataset=fleet&x=2&y=3&k=2'
  '/v1/threshold?dataset=fleet&x=2&y=3&tau=0.2'
  '/v1/expectednn?dataset=fleet&x=2&y=3'
  '/v1/nonzero?dataset=demo&x=5&y=5'
  '/v1/nonzero?dataset=demo&x=5&y=5&backend=diagram'
  '/v1/probabilities?dataset=demo&x=5&y=5&method=mcbudget&rounds=200&seed=7'
)

echo "== capturing pre-kill query bytes"
for i in "${!queries[@]}"; do
  curl -fsS "$base${queries[$i]}" > "$workdir/before_$i"
done

echo "== SIGKILL"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

echo "== restarting on the same store dir"
start_server

echo "== comparing post-restart query bytes"
for i in "${!queries[@]}"; do
  curl -fsS "$base${queries[$i]}" > "$workdir/after_$i"
  if ! cmp -s "$workdir/before_$i" "$workdir/after_$i"; then
    echo "FAIL: ${queries[$i]} changed across kill+restart" >&2
    diff "$workdir/before_$i" "$workdir/after_$i" >&2 || true
    exit 1
  fi
  echo "ok   ${queries[$i]} byte-identical"
done

echo "== writes keep working after recovery (ids keep advancing)"
builds_before="$(index_builds)"
admin POST '/v1/datasets/fleet/points' '{"discrete":[{"x":[7],"y":[7]}]}'
if ! grep -q '"ids":\[4\]' "$workdir/last_body"; then
  echo "FAIL: post-restart insert did not resume ids: $(cat "$workdir/last_body")" >&2
  exit 1
fi
echo "ok   post-restart insert resumed at id 4"

echo "== the diagram engine absorbs the write (no rebuild)"
body="$(curl -fsS "$base/v1/nonzero?dataset=fleet&x=2&y=3&backend=diagram")"
builds_after="$(index_builds)"
if [ -z "$builds_before" ] || [ "$builds_after" != "$builds_before" ]; then
  echo "FAIL: pnn_index_builds_total went from '$builds_before' to '$builds_after' across an insert and a diagram query" >&2
  exit 1
fi
if ! grep -q '"n":3' <<<"$body"; then
  echo "FAIL: diagram query after the insert misses it: $body" >&2
  exit 1
fi
echo "ok   diagram query sees n=3 with builds unchanged at $builds_after"

echo "== mutation invalidates the cache (query -> insert -> same query)"
q='/v1/topk?dataset=fleet&x=7&y=7&k=1'
curl -fsS "$base$q" > "$workdir/mut_before"
# A point tying the current winner at distance 0: its certainty (p=1)
# cannot survive the insert, so the response bytes must change.
admin POST '/v1/datasets/fleet/points' '{"discrete":[{"x":[7],"y":[7]}]}'
curl -fsS "$base$q" > "$workdir/mut_after"
if cmp -s "$workdir/mut_before" "$workdir/mut_after"; then
  echo "FAIL: answer unchanged after insert (stale cache?)" >&2
  cat "$workdir/mut_after" >&2
  exit 1
fi
echo "ok   same query answers differently after the insert"

echo "PASS: store smoke (kill -9 lost zero acknowledged writes)"
