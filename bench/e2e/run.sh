#!/bin/sh
# Build the entity_ident CLI and this benchmark from source, then run the
# benchmark with the given arguments. Run from the root of a checkout:
#
#   sh bench/e2e/run.sh --workload rules --seed 1 --seconds 20 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -f bin/entity_ident.ml ]; then
  echo "run.sh: run from the root of an entity_ident checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . ./bin/entity_ident.exe \
  ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
