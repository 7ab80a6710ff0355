#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload job-reopt|serve-hot|serve-churn \
#     --seed N --seconds S --trace 0|1 [--data-seed N]
# Build output goes to stderr; the last line of stdout is the JSON result.
# Everything it writes stays inside the checkout: _build/ and .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a ReoptDB checkout (no dune-project and lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/.perfbench/xdg-cache"
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
