#!/usr/bin/env bash
# Build the benchmark from source in this checkout and run one workload:
#
#   bash perfbench/run.sh --workload gen-exp2|prefill|serve-mix \
#     --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build and every file a run leaves
# behind go under .bench_build/ (dune's shared cache is not used, so
# nothing is written outside the checkout).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib/pipeline || ! -f perfbench/main.ml ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

mkdir -p .bench_build
build_dir="$PWD/.bench_build/dune"
dune build --root . --cache=disabled --build-dir "$build_dir" \
  ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
