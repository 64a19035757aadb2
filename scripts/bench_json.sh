#!/usr/bin/env bash
# Regenerates the committed perf records, one per experiment, all in the
# schema of src/harness/experiment.hpp:
#
#  * BENCH_fig10.json    — Figure 10: single-thread improvement over baseline,
#                          all 10 STAMP workloads, at `scale`.
#  * BENCH_fig11a.json   — Figure 11(a) (optimization configs) and
#  * BENCH_fig11b.json     11(b) (alloc-log structures) at 4 threads, scale
#                          3 (larger than fig10 so per-cell times rise out of
#                          the scheduler-jitter floor).
#  * BENCH_txbatch.json  — request streams through the merge layer at batch
#                          sizes 1/4/16/64, 1 thread (the capture curve is a
#                          single-thread property), scale 4.
#  * BENCH_durable.json  — durable commit overhead and flushes-elided% vs
#                          the non-durable reference and the capture-disabled
#                          durable baseline, 1 thread, scale 1.
#
# Compare the records across commits with scripts/bench_gate.py. Note that
# on a 1-core box the 4-thread numbers measure oversubscribed scheduling,
# not parallel scaling: trust medians and signs, not digits.
#
# Usage: scripts/bench_json.sh [scale] [reps]
#   scale  fig10's scale, default 1.0 (approaches paper-size inputs)
#   reps   samples per cell, default 5 (fig11 always takes 5)
# OUT_DIR (default repo root) redirects the written records — used by
# scripts/bench_gate.py so a gate run never clobbers the committed ones.
# The harness writes each record to a temp file and renames it into place,
# so an interrupted run never leaves a truncated record behind.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-1.0}"
reps="${2:-5}"
out_dir="${OUT_DIR:-.}"
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs" --target bench_fig10_single_thread \
  bench_fig11a_scal_configs bench_fig11b_structures bench_txbatch_stream \
  bench_durable

./build/bench_fig10_single_thread --scale "$scale" --reps "$reps" \
  --json "$out_dir/BENCH_fig10.json"
./build/bench_fig11a_scal_configs --scale 3.0 --reps 5 --threads 4 \
  --json "$out_dir/BENCH_fig11a.json"
./build/bench_fig11b_structures --scale 3.0 --reps 5 --threads 4 \
  --json "$out_dir/BENCH_fig11b.json"
./build/bench_txbatch_stream --scale 4.0 --reps "$reps" --threads 1 \
  --json "$out_dir/BENCH_txbatch.json"
./build/bench_durable --scale 1.0 --reps "$reps" --threads 1 \
  --json "$out_dir/BENCH_durable.json"
