#!/usr/bin/env bash
# CI smoke of the multi-tenant scale harness: runs bench_scale at a small
# but structurally complete configuration — hundreds of tenants, per-tenant
# derived keys, streaming ingest and open-loop load —
# then checks the emitted BENCH_scale.json for the rows and metrics the
# full-scale runs are graded on.
#
#   scripts/scale_smoke.sh [build_dir]   # default build dir: build
#
# Knobs (env): WRE_SCALE_SMOKE_TENANTS / _RECORDS / _RATE / _SECONDS.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
BENCH=${BUILD_DIR}/bench/bench_scale
[[ -x ${BENCH} ]] || { echo "missing ${BENCH} (build first)"; exit 1; }

TENANTS=${WRE_SCALE_SMOKE_TENANTS:-200}
RECORDS=${WRE_SCALE_SMOKE_RECORDS:-20000}
RATE=${WRE_SCALE_SMOKE_RATE:-400}
SECONDS_PER_PASS=${WRE_SCALE_SMOKE_SECONDS:-4}

OUT=$(mktemp -d)
trap 'rm -rf "${OUT}"' EXIT
REPORT=${OUT}/BENCH_scale.json

echo "== bench_scale: ${TENANTS} tenants, ${RECORDS} records, ${RATE}/s open-loop =="
"${BENCH}" --tenants "${TENANTS}" --records "${RECORDS}" \
  --rate "${RATE}" --duration-sec "${SECONDS_PER_PASS}" \
  --vocab 80 --notes-bytes 64 --out "${REPORT}"

echo "== checking ${REPORT} =="
for needle in \
  '"name": "scale/ingest"' \
  '"name": "scale/open_loop/all"' \
  'latency_ms_p999'; do
  grep -qF "${needle}" "${REPORT}" || {
    echo "BENCH_scale.json missing ${needle}"; cat "${REPORT}"; exit 1;
  }
done

python3 - "${REPORT}" <<'EOF'
import json, sys
rows = {r["name"]: r for r in json.load(open(sys.argv[1]))["benchmarks"]}
run = rows["scale/open_loop/all"]
assert run["completed"] > 0, "open-loop pass completed nothing"
assert run["errors"] == 0, "errors in open-loop pass"
print(f'open-loop p999 {run["latency_ms_p999"]:.2f} ms')
EOF

echo "== scale smoke passed =="
