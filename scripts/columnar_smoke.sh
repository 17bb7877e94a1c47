#!/usr/bin/env bash
# Loopback smoke test of the columnar ciphertext store as actually served
# (DESIGN.md §5.9):
#
#   1. start a real `wre_server --columnar` process on an ephemeral port,
#   2. run the external columnar parity suite against it over TCP
#      (columnar_parity_test, ExternalColumnarTest suite, selected via
#      WRE_SERVER_PORT) — every answer the columnar server returns must
#      match an independent local row-path replay,
#   3. run the remote columnar benchmark sweep against a fresh in-process
#      server (bench_remote_query gates on row-vs-columnar parity and
#      exits non-zero on any mismatch),
#   4. send SIGTERM and require a graceful drain (exit 0).
#
#   scripts/columnar_smoke.sh [build_dir]   # default build dir: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SERVER=${BUILD_DIR}/src/net/wre_server
TEST=${BUILD_DIR}/tests/columnar_parity_test
BENCH=${BUILD_DIR}/bench/bench_remote_query
[[ -x ${SERVER} ]] || { echo "missing ${SERVER} (build first)"; exit 1; }
[[ -x ${TEST} ]] || { echo "missing ${TEST} (build first)"; exit 1; }
[[ -x ${BENCH} ]] || { echo "missing ${BENCH} (build first)"; exit 1; }

DATA_DIR=$(mktemp -d)
SERVER_LOG=${DATA_DIR}/server.log
cleanup() {
  kill -9 "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${DATA_DIR}"
}
trap cleanup EXIT

"${SERVER}" --dir="${DATA_DIR}" --port=0 --columnar=1 >"${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

# The server prints "LISTENING <port>" once it accepts connections.
PORT=""
for _ in $(seq 1 50); do
  PORT=$(awk '/^LISTENING /{print $2; exit}' "${SERVER_LOG}" || true)
  [[ -n ${PORT} ]] && break
  kill -0 "${SERVER_PID}" 2>/dev/null || { cat "${SERVER_LOG}"; exit 1; }
  sleep 0.1
done
[[ -n ${PORT} ]] || { echo "server never reported a port"; cat "${SERVER_LOG}"; exit 1; }
echo "== wre_server --columnar pid ${SERVER_PID} on 127.0.0.1:${PORT} =="

WRE_SERVER_PORT=${PORT} "${TEST}" --gtest_filter='ExternalColumnarTest.*'

echo "== remote columnar benchmark sweep (parity-gated) =="
"${BENCH}" --records 3000 --queries 40 --scans 10 \
  --connections 0 --chaos-rate 0 \
  --out "${DATA_DIR}/BENCH_net_smoke.json"

echo "== draining (SIGTERM) =="
kill -TERM "${SERVER_PID}"
EXIT_CODE=0
wait "${SERVER_PID}" || EXIT_CODE=$?
cat "${SERVER_LOG}"
if [[ ${EXIT_CODE} -ne 0 ]]; then
  echo "wre_server exited ${EXIT_CODE} on SIGTERM (expected clean drain)"
  exit 1
fi
echo "== columnar smoke passed =="
