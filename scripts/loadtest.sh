#!/usr/bin/env bash
# loadtest.sh — measure serving capacity of one imserver (or a whole
# routed cluster: point TARGET at the router). Publishes a BA snapshot,
# starts one replica, and drives concurrent queries. Uses hey or vegeta
# when installed; otherwise falls back to a curl+xargs loop (lower
# ceiling, same methodology).
#
# Scenarios (SCENARIO env, default "capacity"):
#
#   capacity  sketch-served /v2/query throughput + server-side latency
#             quantiles. RATE_RPS=n starts the replica with per-client
#             admission control on, to measure its overhead.
#
#   mixed     admission-control overload drill: cold-MC batch selections
#             flood a deliberately tiny job pool (1 worker, short queue)
#             while sketch-served interactive queries keep arriving on
#             their own lane. Asserts the interactive p99 stays under
#             MAX_P99_MS (default 500) and that batch overflow was shed
#             (429 + Retry-After) — the subsystem's overload contract.
#
#   ./scripts/loadtest.sh [nodes] [requests] [concurrency]
#   SCENARIO=mixed ./scripts/loadtest.sh 20000 400 16
#   RATE_RPS=1000 ./scripts/loadtest.sh                   # admission on
#   TARGET=http://127.0.0.1:19090 ./scripts/loadtest.sh   # reuse a running server/router
set -euo pipefail

NODES="${1:-50000}"
REQUESTS="${2:-2000}"
CONCURRENCY="${3:-32}"
SCENARIO="${SCENARIO:-capacity}"
MAX_P99_MS="${MAX_P99_MS:-500}"
RATE_RPS="${RATE_RPS:-0}"
BATCH_JOBS="${BATCH_JOBS:-24}"
PORT="${PORT:-18091}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

BATCH='{"graph":"soc","algorithm":"imm","ks":[10,25,50]}'

# bucket_quantile METRIC_LINE_REGEX Q: interpolate the Q-quantile (in
# milliseconds) from a cumulative Prometheus histogram in the target's
# scrape — the same math as PromQL histogram_quantile. Prints -1 when
# the scrape holds no samples.
bucket_quantile() {
  curl -sf "$TARGET/metrics" | awk -v pat="$1" -v q="$2" '
    $0 ~ pat {
      le = $0; sub(/.*le="/, "", le); sub(/".*/, "", le)
      n = split($0, parts, " ")
      bound[++nb] = le; cum[nb] = parts[n]
    }
    END {
      if (nb == 0 || cum[nb] == 0) { print -1; exit }
      rank = q * cum[nb]
      for (i = 1; i <= nb; i++) if (cum[i] >= rank) break
      if (bound[i] == "+Inf") { printf "%.1f", bound[nb - 1] * 1000; exit }
      lo = (i > 1) ? bound[i - 1] : 0; locum = (i > 1) ? cum[i - 1] : 0
      printf "%.1f", (lo + (bound[i] - lo) * (rank - locum) / (cum[i] - locum)) * 1000
    }'
}

report_quantiles() { # $1 = bucket-line regex, $2 = heading
  echo "== $2 (server-side, from $TARGET/metrics)"
  for q in 0.50 0.95 0.99; do
    ms="$(bucket_quantile "$1" "$q")"
    if [ "$ms" = "-1" ]; then echo "   (no samples in scrape)"; return; fi
    echo "   p${q#0.}   ${ms} ms"
  done
}

if [ -z "${TARGET:-}" ]; then
  SERVER_FLAGS=(-addr ":$PORT" -store "$WORK/store" -drain 2s)
  if [ "$SCENARIO" = "mixed" ]; then
    # One worker and a short queue make saturation reproducible: the
    # batch lane fills instantly; the interactive lane must not care.
    SERVER_FLAGS+=(-workers 1 -queue 8)
  fi
  if [ "$RATE_RPS" != "0" ]; then
    SERVER_FLAGS+=(-rate-rps "$RATE_RPS")
  fi
  echo "== building and starting one replica over a ${NODES}-node BA snapshot"
  go build -o "$WORK/bin/" ./cmd/imrun ./cmd/imserver
  "$WORK/bin/imrun" publish -type ba -n "$NODES" -store "$WORK/store" -name soc -eps 0.1 -seed 1 -k 50
  "$WORK/bin/imserver" "${SERVER_FLAGS[@]}" &
  PIDS+=($!)
  TARGET="http://127.0.0.1:$PORT"
  for _ in $(seq 1 150); do
    [ "$(curl -s -o /dev/null -w '%{http_code}' "$TARGET/readyz")" = "200" ] && break
    sleep 0.2
  done
fi

# First request pays for the memoized greedy order; do it once outside
# the measurement window.
curl -sf "$TARGET/v2/query" -H 'X-Client-ID: loadtest-warm' -d "$BATCH" -o /dev/null

if [ "$SCENARIO" = "mixed" ]; then
  echo "== flooding the batch lane: $BATCH_JOBS cold-MC selections (unique fingerprints)"
  for i in $(seq 1 "$BATCH_JOBS"); do
    curl -s -o /dev/null -H 'X-Client-ID: batch-flood' -H 'X-Priority: batch' \
      -d "{\"graph\":\"soc\",\"algorithm\":\"greedy\",\"k\":5,\"options\":{\"mc_runs\":$((10000 + i))}}" \
      "$TARGET/v1/select" || true
  done
fi

echo "== load: $REQUESTS interactive requests, concurrency $CONCURRENCY, target $TARGET"
if command -v hey >/dev/null; then
  hey -n "$REQUESTS" -c "$CONCURRENCY" -m POST -T application/json \
    -H 'X-Client-ID: interactive' -d "$BATCH" "$TARGET/v2/query"
elif command -v vegeta >/dev/null; then
  printf '%s' "$BATCH" > "$WORK/body.json"
  echo "POST $TARGET/v2/query" | vegeta attack -body "$WORK/body.json" \
    -header 'Content-Type: application/json' -header 'X-Client-ID: interactive' \
    -duration 15s -rate 0 -max-workers "$CONCURRENCY" |
    vegeta report
else
  echo "   (hey/vegeta not installed; curl+xargs fallback)"
  start="$(date +%s.%N)"
  seq "$REQUESTS" | xargs -P "$CONCURRENCY" -I{} \
    curl -s -o /dev/null -w '%{http_code}\n' -H 'X-Client-ID: interactive' \
    "$TARGET/v2/query" -d "$BATCH" > "$WORK/codes"
  end="$(date +%s.%N)"
  elapsed="$(echo "$end $start" | awk '{printf "%.2f", $1-$2}')"
  ok="$(grep -c '^200$' "$WORK/codes" || true)"
  echo "   $ok/$REQUESTS ok in ${elapsed}s -> $(echo "$ok $elapsed" | awk '{printf "%.0f", $1/$2}') req/s"
  [ "$ok" = "$REQUESTS" ] || { echo "loadtest: $((REQUESTS - ok)) non-200 responses" >&2; exit 1; }
fi

if [ "$SCENARIO" = "mixed" ]; then
  report_quantiles '^im_query_duration_seconds_bucket[{]backend="sketch"' \
    "interactive (sketch-backed) latency under batch flood"
  echo "== admission counters"
  curl -sf "$TARGET/metrics" |
    grep -E '^im_jobs_(shed_by_priority_total|queue_depth_by_priority)[{]' || true

  p99="$(bucket_quantile '^im_query_duration_seconds_bucket[{]backend="sketch"' 0.99)"
  if [ "$p99" = "-1" ]; then
    echo "overload-smoke: no interactive samples recorded" >&2
    exit 1
  fi
  if awk -v p="$p99" -v max="$MAX_P99_MS" 'BEGIN { exit !(p > max) }'; then
    echo "overload-smoke: interactive p99 ${p99}ms exceeds ${MAX_P99_MS}ms under batch flood" >&2
    exit 1
  fi
  sheds="$(curl -sf "$TARGET/metrics" |
    awk '/^im_jobs_shed_by_priority_total[{]priority="batch",reason="queue_full"[}]/ {print $2+0}')"
  if [ -z "$sheds" ] || [ "$sheds" -lt 1 ]; then
    echo "overload-smoke: batch flood was never shed (queue never overflowed?)" >&2
    exit 1
  fi
  echo "== overload-smoke OK: interactive p99 ${p99}ms <= ${MAX_P99_MS}ms, $sheds batch sheds"
else
  report_quantiles '^http_request_duration_seconds_bucket[{].*route="/v2/query"' \
    "/v2/query latency"
fi
