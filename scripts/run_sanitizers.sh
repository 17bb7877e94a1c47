#!/usr/bin/env bash
# Builds and runs the test suite under ThreadSanitizer and AddressSanitizer,
# or UndefinedBehaviorSanitizer on request (bench/ is excluded from
# sanitized builds; see the top-level CMakeLists).
#
#   scripts/run_sanitizers.sh                   # full suite, TSan then ASan
#   scripts/run_sanitizers.sh thread            # ThreadSanitizer only
#   scripts/run_sanitizers.sh address -L fast   # ASan, fast-labelled tests only
#   scripts/run_sanitizers.sh undefined -L fast # UBSan, fast-labelled tests
#   scripts/run_sanitizers.sh -L fast           # TSan and ASan, fast tests
#
# An optional first argument of `thread`, `address` or `undefined` selects a
# single sanitizer (used by CI to split the runs across jobs); all remaining
# arguments are forwarded to ctest. UBSan builds make every finding fatal
# (-fno-sanitize-recover), so a report fails its test.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)

# The kill -9 crash harness (crash_recovery_test, label stress) runs in the
# full sweep too, but with a reduced schedule count: sanitized binaries are
# several times slower, and the big randomized matrix belongs to
# scripts/crash_recovery_smoke.sh on the plain build.
export WRE_CRASH_SCHEDULES=${WRE_CRASH_SCHEDULES:-3}

# Same reasoning for the network-chaos harness (net_chaos_test): the full
# randomized matrix lives in scripts/chaos_smoke.sh on the plain build.
export WRE_CHAOS_SCHEDULES=${WRE_CHAOS_SCHEDULES:-3}

# And for the multi-tenant scale scenario (scale_test, label scale): keep
# the sanitized run small — the full-size open-loop sweep belongs to
# bench_scale / scripts/scale_smoke.sh on the plain build.
export WRE_SCALE_TENANTS=${WRE_SCALE_TENANTS:-12}
export WRE_SCALE_RECORDS=${WRE_SCALE_RECORDS:-600}
export WRE_SCALE_SECONDS=${WRE_SCALE_SECONDS:-1}
export WRE_SCALE_RATE=${WRE_SCALE_RATE:-150}

SANITIZERS="thread address"
if [[ $# -gt 0 && ( "$1" == "thread" || "$1" == "address" ||
                    "$1" == "undefined" ) ]]; then
  SANITIZERS="$1"
  shift
fi

for san in ${SANITIZERS}; do
  build_dir=build-${san}san
  echo "== WRE_SANITIZE=${san} -> ${build_dir} =="
  cmake -B "${build_dir}" -S . -DWRE_SANITIZE=${san} >/dev/null
  cmake --build "${build_dir}" -j"${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure --no-tests=error \
    -j"${JOBS}" "$@"
done

echo "== sanitizer runs passed (${SANITIZERS}) =="
