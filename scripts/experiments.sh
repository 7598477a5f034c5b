#!/usr/bin/env bash
# Experiment-grid runner: sweeps server-side configs (which need a
# server restart per cell) crossed with a client-side pnnload grid
# (which does not), every cell repeated. Each (server config × load
# cell × repeat) lands one BENCH_macro row in the output directory,
# plus a combined CSV and a per-cell table of the median and min–max
# of achieved QPS and p99 across repeats, ready for cmd/benchdiff or a
# spreadsheet.
#
#   ./scripts/experiments.sh                 # default sweep, ~3 min
#   EXP_OUT=results EXP_DURATION=10s EXP_REPEATS=5 ./scripts/experiments.sh
#
# The server-side axis swept here is the result cache (off and on).
# Client-side axes live in the grid spec below (QPS × point skew, with
# one QPS the 60-disk set cannot carry, so the sweep includes a
# saturated cell); edit or extend either list freely.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${EXP_OUT:-$(mktemp -d)/experiments}"
duration="${EXP_DURATION:-3s}"
seed="${EXP_SEED:-42}"
port="${EXP_PORT:-18095}"
mkdir -p "$out"
workdir="$(mktemp -d)"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building"
go build -o "$workdir" ./cmd/pnngen ./cmd/pnnserve ./cmd/pnnload

echo "== generating dataset"
"$workdir/pnngen" -kind disks -n 60 -seed 7 > "$workdir/demo.json"

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "http://127.0.0.1:$port/healthz" 2>/dev/null; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "FAIL: pnnserve exited before becoming healthy" >&2; exit 1
    fi
    sleep 0.1
  done
  echo "FAIL: pnnserve never became healthy" >&2; exit 1
}

# The client-side grid every server config runs: QPS × point skew,
# each cell repeated so the summary can show its spread. 3000 QPS is
# past what one node answers on the 60-disk set; with 256 requests in
# flight it measures throughput at saturation.
grid="$workdir/grid.json"
cat > "$grid" <<EOF
{
  "name": "exp",
  "seed": $seed,
  "repeats": ${EXP_REPEATS:-3},
  "base": {"duration": "$duration", "mix": "read=4,batch=1", "inflight": "256"},
  "sweep": {"qps": [100, 300, 3000], "point-theta": [0, 0.9]}
}
EOF

# Server-side sweep cells: result-cache entries (0 disables).
server_cells=(0 4096)

csvs=()
for cache in "${server_cells[@]}"; do
  tag="cache${cache}"
  echo "== server config: cache=$cache"
  "$workdir/pnnserve" \
    -addr "127.0.0.1:$port" \
    -data "demo=$workdir/demo.json" \
    -cache "$cache" -log-level off &
  server_pid=$!
  wait_healthy

  # Name cells per server config so rows from different configs never
  # collide in $out.
  sed "s/\"name\": \"exp\"/\"name\": \"exp-$tag\"/" "$grid" > "$workdir/grid-$tag.json"
  "$workdir/pnnload" \
    -target "http://127.0.0.1:$port" \
    -grid "$workdir/grid-$tag.json" \
    -out "$out" -csv "$out/$tag.csv" \
    -fail-on-nonretryable
  csvs+=("$out/$tag.csv")

  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
done

echo "== combined results"
combined="$out/experiments.csv"
head -n 1 "${csvs[0]}" > "$combined"
for c in "${csvs[@]}"; do tail -n +2 "$c" >> "$combined"; done
column -t -s, "$combined" 2>/dev/null || cat "$combined"

# Per-cell spread: group the -rN repeat rows of the combined CSV by
# cell and report the median and min–max of achieved_qps and p99_ns.
# Cell names hold commas, so the CSV writer quotes them; the name is
# split off by hand. Plain awk (no asort), so it runs under mawk.
echo
echo "== per-cell spread across repeats: median [min–max]"
awk '
  # median sorts the space-separated values in s, returns their median,
  # and leaves their extremes in the globals lo and hi.
  function median(s,   a, n, i, j, v) {
    n = split(s, a, " ")
    for (i = 2; i <= n; i++) {
      v = a[i] + 0
      for (j = i - 1; j >= 1 && a[j] + 0 > v; j--) a[j + 1] = a[j]
      a[j + 1] = v
    }
    lo = a[1]; hi = a[n]
    return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
  }
  NR == 1 { next }
  {
    if (substr($0, 1, 1) == "\"") {
      n = index(substr($0, 2), "\"")
      cell = substr($0, 2, n - 1)
      rest = substr($0, n + 3)
    } else {
      n = index($0, ",")
      cell = substr($0, 1, n - 1)
      rest = substr($0, n + 1)
    }
    # rest: target_qps, achieved_qps, ops, p50_ns, p99_ns, ...
    split(rest, f, ",")
    sub(/-r[0-9]+$/, "", cell)
    if (!(cell in reps)) order[++cells] = cell
    qps[cell] = qps[cell] " " f[2]
    p99[cell] = p99[cell] " " f[5]
    reps[cell]++
  }
  END {
    printf "%-44s %4s %26s %28s\n", "cell", "reps", "achieved_qps", "p99_ms"
    for (c = 1; c <= cells; c++) {
      cell = order[c]
      mq = median(qps[cell]); lq = lo; hq = hi
      mp = median(p99[cell]); lp = lo; hp = hi
      printf "%-44s %4d %8.1f [%7.1f–%7.1f] %8.2f [%8.2f–%8.2f]\n",
        cell, reps[cell], mq, lq, hq, mp / 1e6, lp / 1e6, hp / 1e6
    }
  }' "$combined"
echo
echo "rows: $out/BENCH_*.json  csv: $combined"
