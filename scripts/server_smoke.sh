#!/usr/bin/env bash
# Loopback smoke test of wre_server as deployed. Starts a real wre_server
# process on an ephemeral port (with --columnar: `--columnar=1`, DESIGN.md
# §5.9), runs the differential harness with it as the external cell
# (WRE_SERVER_PORT), and with --columnar also the parity-gated remote
# columnar sweep of bench_remote_query. Then SIGTERM: the server must drain
# and exit 0, and its report must read "(0 protocol errors," since every
# request came from RemoteConnection.
#
#   scripts/server_smoke.sh [--columnar] [build_dir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

COLUMNAR=0
[[ ${1:-} == --columnar ]] && { COLUMNAR=1; shift; }
BUILD_DIR=${1:-build}
SERVER=${BUILD_DIR}/src/net/wre_server
BENCH=${BUILD_DIR}/bench/bench_remote_query
for bin in "${SERVER}" "${BUILD_DIR}/tests/differential_test" \
           $( ((COLUMNAR)) && echo "${BENCH}" ); do
  [[ -x ${bin} ]] || { echo "missing ${bin} (build first)"; exit 1; }
done

DATA_DIR=$(mktemp -d)
LOG=${DATA_DIR}/server.log
trap 'kill -9 "${SERVER_PID}" 2>/dev/null || true; rm -rf "${DATA_DIR}"' EXIT
"${SERVER}" --dir="${DATA_DIR}" --port=0 --columnar="${COLUMNAR}" >"${LOG}" 2>&1 &
SERVER_PID=$!

PORT=""  # the server prints "LISTENING <port>" once it accepts
for _ in $(seq 1 50); do
  PORT=$(awk '/^LISTENING /{print $2; exit}' "${LOG}" || true)
  [[ -n ${PORT} ]] && break
  kill -0 "${SERVER_PID}" 2>/dev/null || { cat "${LOG}"; exit 1; }
  sleep 0.1
done
[[ -n ${PORT} ]] || { echo "server never reported a port"; cat "${LOG}"; exit 1; }
echo "== wre_server --columnar=${COLUMNAR} pid ${SERVER_PID} on 127.0.0.1:${PORT} =="

WRE_SERVER_PORT=${PORT} "${BUILD_DIR}/tests/differential_test"
if ((COLUMNAR)); then
  echo "== remote columnar benchmark sweep (parity-gated) =="
  "${BENCH}" --records 3000 --queries 40 --scans 10 --connections 0 \
    --chaos-rate 0 --out "${DATA_DIR}/BENCH_net_smoke.json"
fi

echo "== draining (SIGTERM) =="
kill -TERM "${SERVER_PID}"
EXIT_CODE=0
wait "${SERVER_PID}" || EXIT_CODE=$?
cat "${LOG}"
[[ ${EXIT_CODE} -eq 0 ]] || { echo "wre_server exited ${EXIT_CODE} on SIGTERM (expected clean drain)"; exit 1; }
grep -qF '(0 protocol errors,' "${LOG}" || { echo "wre_server reported protocol errors"; exit 1; }
echo "== server smoke passed =="
