#!/usr/bin/env bash
# One-shot build & verification runner.
#
#   scripts/check.sh              # release build + full ctest suite
#   scripts/check.sh asan         # the same under AddressSanitizer
#   scripts/check.sh ubsan        # the same under UBSan
#   scripts/check.sh tsan         # serving-layer suite under ThreadSanitizer
#   scripts/check.sh all          # release, then asan, then ubsan, then tsan
#
# Any extra arguments are forwarded to ctest, e.g.:
#   scripts/check.sh release -R Serialization
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
  local preset=$1; shift
  echo "==> ${preset}: configure"
  cmake --preset "${preset}"
  echo "==> ${preset}: build"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> ${preset}: ctest"
  ctest --preset "${preset}" "$@"
  echo "==> ${preset}: OK"
}

mode=${1:-release}
[ $# -gt 0 ] && shift

case "${mode}" in
  release|debug|asan|ubsan)
    run_preset "${mode}" "$@"
    ;;
  tsan)
    # TSan exists for the concurrent serving layer; the sequential suites
    # triple their runtime under it for no additional coverage. The suite
    # filter lives on the tsan test preset (CMakePresets.json), the one
    # place CI reads it from too. A forwarded -R replaces it rather than
    # narrowing it (command-line options override preset fields), so pass
    # a pattern inside the preset's suites to stay within them.
    run_preset tsan "$@"
    ;;
  all)
    run_preset release "$@"
    run_preset asan "$@"
    run_preset ubsan "$@"
    run_preset tsan "$@"
    ;;
  *)
    echo "usage: $0 [release|debug|asan|ubsan|tsan|all] [ctest args...]" >&2
    exit 2
    ;;
esac
