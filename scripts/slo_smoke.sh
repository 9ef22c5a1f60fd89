#!/usr/bin/env bash
# slo_smoke.sh — single-daemon sustained-load SLO gate.
#
# Builds topooptd + planload, starts one daemon, and offers an open-loop
# Poisson load (arrivals never wait for responses, so a saturated server
# faces the full offered rate), then a closed-loop run of SLO_REQUESTS
# requests from 4 clients that each wait for their reply, with a share
# of near-miss requests that the daemon warm-starts. Both runs are gated
# on a p99 target and a zero-error budget; a failed gate exits nonzero,
# which is what `make slo-smoke` and the CI job key on. The -bench lines
# are the ledger-ingestible form of the open-loop quantiles.
#
# Tunables (env): SLO_PORT, SLO_RATE, SLO_DURATION, SLO_REQUESTS, SLO_P99.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/topooptd" ./cmd/topooptd
go build -o "$BIN/planload" ./cmd/planload

PORT=${SLO_PORT:-7471}
"$BIN/topooptd" -addr "127.0.0.1:$PORT" -workers 4 -queue 64 &
DPID=$!

# Wait for the listener (bash-native probe, no curl dependency).
for _ in $(seq 100); do
  (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null && break
  sleep 0.1
done

"$BIN/planload" -addr "http://127.0.0.1:$PORT" \
  -open-loop -rate "${SLO_RATE:-150}" -duration "${SLO_DURATION:-3s}" -bucket 500ms \
  -model bert -section 6 -servers 8 -degree 2 -mcmc 5 -seeds 4 -retries 2 \
  -slo-p99 "${SLO_P99:-500ms}" -max-errors 0 -bench

"$BIN/planload" -addr "http://127.0.0.1:$PORT" \
  -n "${SLO_REQUESTS:-200}" -c 4 -bucket 500ms \
  -model bert -section 6 -servers 8 -degree 2 -mcmc 5 -seeds 4 -warm-mix 0.25 -retries 2 \
  -slo-p99 "${SLO_P99:-500ms}" -max-errors 0

echo "slo-smoke: PASS"
