#!/usr/bin/env bash
# The repository benchmark's one command: builds capbench into build-bench/
# and runs it. See benchmark/README.md, or run.py for the options.
set -euo pipefail
exec python3 "$(dirname "${BASH_SOURCE[0]}")/run.py" "$@"
