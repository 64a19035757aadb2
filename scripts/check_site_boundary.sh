#!/usr/bin/env bash
# Enforces the generated-Site-verdict boundary: the ONLY definitions of
# container/STAMP Site constants (and therefore of their capture-analysis
# verdicts) live in generated/site_verdicts.hpp, which txir_sitegen emits
# from the kernel corpus. Hand-authored `constexpr Site` declarations or
# `Verdict::` references in the application layers are exactly the
# analysis↔execution drift the codegen loop exists to eliminate.
#
# Allowed locations for Verdict:: / Site definitions:
#   generated/            — the emitted table (single source of truth)
#   src/txir/             — the analysis + emitter themselves
#   src/stm/              — the lattice (site.hpp), the instrumentation
#                           layer (tvar.hpp's derived init Sites), barriers
#   tests/, bench/        — may build ad-hoc Sites to probe the runtime
#
# It also keeps the analysis out of the runtime: no file in src/ outside
# src/txir/, and no example but compiler_analysis.cpp, may include a
# txir/ header (the cstm_txir library is linked only by txir_sitegen, its
# two test suites and that example).
#
# Registered as the ctest case `site_verdict_boundary` and run by check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

paths=(
  src/containers
  src/stamp
  src/capture
  src/durable
  src/harness
  src/support
  src/txbatch
  src/txmalloc
  examples
)

fail=0
if matches=$(grep -rn 'Verdict::' "${paths[@]}"); then
  echo "error: hand-authored Verdict:: references outside generated/ +" >&2
  echo "src/txir/ + src/stm/:" >&2
  echo "$matches" >&2
  fail=1
fi

if matches=$(grep -rn 'constexpr Site ' "${paths[@]}"); then
  echo "error: hand-authored Site constants outside generated/:" >&2
  echo "$matches" >&2
  fail=1
fi

txir_fail=0
if matches=$(grep -rn '#include "txir/' "${paths[@]}" src/stm |
             grep -v '^examples/compiler_analysis\.cpp:'); then
  echo "error: txir/ included outside src/txir/ and the analysis example" >&2
  echo "(the runtime and the harness link no TxIR):" >&2
  echo "$matches" >&2
  txir_fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "Site constants/verdicts belong in generated/site_verdicts.hpp —" >&2
  echo "add a row to src/txir/site_table.cpp and regenerate:" >&2
  echo "  cmake --build build --target sitegen" >&2
  exit 1
fi
[ "$txir_fail" -eq 0 ] || exit 1

echo "site-verdict boundary clean: all Site verdicts come from generated/,"
echo "and only src/txir/ and the analysis example include txir/"
