#!/usr/bin/env bash
# Local mirror of the CI pipeline (.github/workflows/ci.yml drives the
# hermetic scripts/ci.sh; this script runs the same gates but tolerates
# missing optional tools with loud SKIP banners instead of failing):
# the tier-1 verify (release build + full ctest, which includes the
# cross-config differential torture suite), the same test suite under
# AddressSanitizer, the gtest suites under ThreadSanitizer, the typed-API
# and site-verdict boundary greps, the codegen staleness gate (committed
# generated/site_verdicts.hpp vs a fresh txir_sitegen render — the exact
# drift diff CI's codegen-drift step would print), the per-kernel
# static-analysis elision table (printed in
# every run so analysis-precision regressions are visible), the advisory
# bench regression gate (scripts/bench_gate.py; -s makes it fatal), the
# repository benchmark's build + smoke run (benchmark/run.sh --smoke), and
# (when clang-format is installed) the format check. Also reachable as the
# `check` CMake target once a build tree is configured.
#
# Fast inner loop while developing: `ctest -L unit` in a configured build
# tree (unit = gtest suites + source greps; torture and bench-smoke are
# separate labels with their own timeouts).
#
# Usage: scripts/check.sh [-j N] [-s]
#   -s  strict: bench-gate violations fail the run (quiet hardware only)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
strict=0
while getopts "j:s" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    s) strict=1 ;;
    *) echo "usage: $0 [-j N] [-s]" >&2; exit 2 ;;
  esac
done

echo "== typed-API boundary =="
scripts/check_typed_api.sh

echo "== devirtualized fast path =="
scripts/check_devirt.sh

echo "== site-verdict boundary (all Site verdicts come from generated/) =="
scripts/check_site_boundary.sh

echo "== tier-1: release build + ctest (includes differential torture) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== codegen staleness gate (same drift diff CI's codegen-drift prints) =="
./build/txir_sitegen --check generated/site_verdicts.hpp

echo "== cross-config differential torture (explicit) =="
./build/test_differential --gtest_brief=1

echo "== static capture analysis: per-kernel elision table =="
./build/txir_sitegen --report

echo "== bench regression gate (advisory unless -s) =="
if command -v python3 > /dev/null 2>&1; then
  if [ "$strict" -eq 1 ]; then
    python3 scripts/bench_gate.py --strict
  else
    python3 scripts/bench_gate.py
  fi
else
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
  echo "!!! SKIP: python3 not installed — bench gate DID NOT RUN"      >&2
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
fi

echo "== benchmark build + smoke run (results in ci-artifacts/) =="
bash benchmark/run.sh --smoke
mkdir -p ci-artifacts
cp benchmark/out/results.json ci-artifacts/benchmark-smoke-results.json

echo "== format check =="
if command -v clang-format > /dev/null 2>&1; then
  cmake --build build --target check-format
else
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
  echo "!!! SKIP: clang-format not installed — format check DID NOT RUN" >&2
  echo "!!! install clang-format to enable the check-format gate"        >&2
  echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!" >&2
fi

echo "== ASan build + ctest =="
cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs"

echo "== TSan build + ctest (gtest suites) =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"

echo "== check.sh: all green =="
