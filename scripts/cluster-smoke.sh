#!/usr/bin/env bash
# cluster-smoke.sh — end-to-end cluster check: publish a snapshot store,
# start 2 replicas + the router, and assert a routed batch /v2/query went
# whole to one replica and is byte-equivalent to the same batch answered
# by a single node, timing fields aside. Run from the repository root.
# Needs jq.
#
#   ./scripts/cluster-smoke.sh [nodes]
set -euo pipefail

NODES="${1:-20000}"
PORT_A="${PORT_A:-18081}"
PORT_B="${PORT_B:-18082}"
PORT_R="${PORT_R:-19090}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

command -v jq >/dev/null || { echo "cluster-smoke: jq is required" >&2; exit 1; }

echo "== building binaries"
go build -o "$WORK/bin/" ./cmd/imrun ./cmd/imserver ./cmd/imrouter

echo "== publishing a ${NODES}-node BA snapshot into the store"
"$WORK/bin/imrun" publish -type ba -n "$NODES" -store "$WORK/store" -name soc -eps 0.1 -seed 1 -k 50

echo "== starting 2 replicas + router"
"$WORK/bin/imserver" -addr ":$PORT_A" -store "$WORK/store" -advertise "http://127.0.0.1:$PORT_A" &
PIDS+=($!)
"$WORK/bin/imserver" -addr ":$PORT_B" -store "$WORK/store" -advertise "http://127.0.0.1:$PORT_B" &
PIDS+=($!)
"$WORK/bin/imrouter" -addr ":$PORT_R" \
  -replica "http://127.0.0.1:$PORT_A" \
  -replica "http://127.0.0.1:$PORT_B" &
PIDS+=($!)

wait_200() {
  local url="$1" what="$2"
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$url")" = "200" ]; then return 0; fi
    sleep 0.2
  done
  echo "cluster-smoke: $what never became ready ($url)" >&2
  exit 1
}
wait_200 "http://127.0.0.1:$PORT_A/readyz" "replica A"
wait_200 "http://127.0.0.1:$PORT_B/readyz" "replica B"
wait_200 "http://127.0.0.1:$PORT_R/readyz" "router"

BATCH='{"graph":"soc","algorithm":"imm","ks":[10,20,30,40,50]}'
# Drop the only legitimately nondeterministic fields: wall-clock timings.
NORMALIZE='del(.answer.took_ms) | .answer.members |= map(if .result then .result.took_ms = 0 else . end)'

echo "== single-node batch (replica A directly)"
single="$(curl -sf "http://127.0.0.1:$PORT_A/v2/query" -d "$BATCH" | jq -S "$NORMALIZE")"
[ "$(jq -r .sketch <<<"$single")" = "true" ] || { echo "single-node batch was not sketch-served" >&2; exit 1; }

echo "== routed batch (through the router)"
headers="$WORK/routed.headers"
routed="$(curl -sf -D "$headers" "http://127.0.0.1:$PORT_R/v2/query" -d "$BATCH" | jq -S "$NORMALIZE")"
grep -qi '^x-router-replica: http' "$headers" || { echo "routed batch does not name its serving replica" >&2; cat "$headers" >&2; exit 1; }
# The router relays one replica's response whole: the serving replica and
# an optional placement note are the only headers it may add.
if grep -i '^x-router-' "$headers" | grep -qviE '^x-router-(replica|note):'; then
  echo "routed batch carries an unexpected router header: it must be forwarded whole" >&2; cat "$headers" >&2; exit 1
fi

if ! diff <(echo "$single") <(echo "$routed"); then
  echo "cluster-smoke: routed batch differs from single node" >&2
  exit 1
fi
echo "== OK: routed 5-k batch is byte-equivalent to the single-node answer"

echo "== cluster info"
curl -sf "http://127.0.0.1:$PORT_R/v1/cluster/info" | jq '{manifest_version, replicas: (.replicas | with_entries(.value |= {healthy, manifest_version: .info.manifest_version}))}'

# Scrape router and replica /metrics: every line must be a well-formed
# HELP/TYPE comment or `name{labels} value` sample, and the HTTP request
# counters must have counted the traffic we just drove.
check_metrics() {
  local url="$1"
  local what="$2"
  local scrape="$WORK/metrics.$what"
  curl -sf "$url/metrics" > "$scrape" || { echo "cluster-smoke: $what /metrics scrape failed" >&2; exit 1; }
  if ! awk '
    /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*({[^}]*})? -?[0-9]/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*({[^}]*})? \+Inf$/ { next }
    { print "malformed exposition line " NR ": " $0; bad = 1 }
    END { exit bad }
  ' "$scrape"; then
    echo "cluster-smoke: $what /metrics is not valid text exposition" >&2
    exit 1
  fi
  local served
  served="$(awk '/^http_requests_total{/ { sum += $NF } END { print sum + 0 }' "$scrape")"
  if [ "$served" -le 0 ]; then
    echo "cluster-smoke: $what http_requests_total is zero after traffic" >&2
    exit 1
  fi
  echo "   $what: exposition valid, http_requests_total=$served"
}
echo "== scraping /metrics"
check_metrics "http://127.0.0.1:$PORT_R" router
check_metrics "http://127.0.0.1:$PORT_A" replica-a
echo "== OK: router and replica expose valid Prometheus metrics with counted traffic"
