#!/usr/bin/env bash
# Loopback smoke test of the network service layer as actually deployed:
#
#   1. start a real wre_server process on an ephemeral port,
#   2. run the external-server integration tests against it over TCP
#      (remote_integration_test, ExternalServerTest suite, selected via
#      WRE_SERVER_PORT),
#   3. send SIGTERM and require a graceful drain: the process must exit 0
#      after finishing in-flight work and checkpointing,
#   4. require the exit report to read "(0 protocol errors,": every request
#      came from RemoteConnection, so a protocol error means the deployed
#      client and server disagree on the one request format.
#
#   scripts/remote_smoke.sh [build_dir]   # default build dir: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SERVER=${BUILD_DIR}/src/net/wre_server
TEST=${BUILD_DIR}/tests/remote_integration_test
[[ -x ${SERVER} ]] || { echo "missing ${SERVER} (build first)"; exit 1; }
[[ -x ${TEST} ]] || { echo "missing ${TEST} (build first)"; exit 1; }

DATA_DIR=$(mktemp -d)
SERVER_LOG=${DATA_DIR}/server.log
cleanup() {
  kill -9 "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${DATA_DIR}"
}
trap cleanup EXIT

"${SERVER}" --dir="${DATA_DIR}" --port=0 >"${SERVER_LOG}" 2>&1 &
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
echo "== wre_server pid ${SERVER_PID} on 127.0.0.1:${PORT} =="

WRE_SERVER_PORT=${PORT} "${TEST}" --gtest_filter='ExternalServerTest.*'

echo "== draining (SIGTERM) =="
kill -TERM "${SERVER_PID}"
EXIT_CODE=0
wait "${SERVER_PID}" || EXIT_CODE=$?
cat "${SERVER_LOG}"
if [[ ${EXIT_CODE} -ne 0 ]]; then
  echo "wre_server exited ${EXIT_CODE} on SIGTERM (expected clean drain)"
  exit 1
fi
if ! grep -qF '(0 protocol errors,' "${SERVER_LOG}"; then
  echo "wre_server reported protocol errors (expected none from RemoteConnection)"
  exit 1
fi
echo "== remote smoke passed =="
