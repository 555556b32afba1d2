#!/bin/sh
# Same-process A/B timing of the fast simulator against a git revision.
#
#   sh tools/simab/run.sh REV [REPS [FILTER]]
#
# Builds, in $SIMAB_DIR (default _build/simab, its own dune root), one program
# that links REV's lib/cachesim/fast_sim.ml and lib/ir/interp.ml as the
# modules Fast_sim_base and Interp_base beside the working tree's lib/,
# then runs it for REPS rounds (default 5), on the cells whose label
# contains FILTER if one is given: see main.ml for what it times and
# prints.  It exits non-zero if a cell's per-level stats
# differ between the two versions.  Everything is local: git show and
# dune.  REV's two files must build against the working tree's other
# modules, so REV should be a recent revision.
set -eu
ROOT=$(cd "$(dirname "$0")/../.." && pwd)
REV=${1:?usage: sh tools/simab/run.sh REV [REPS [FILTER]]}
REPS=${2:-5}
FILTER=${3:-}
DIR=${SIMAB_DIR:-$ROOT/_build/simab}

mkdir -p "$DIR/ab"
rm -rf "$DIR/lib"
cp "$ROOT/dune-project" "$DIR/"
cp -R "$ROOT/lib" "$DIR/lib"
cp "$ROOT/perfbench/cells.ml" "$ROOT/perfbench/layers.ml" "$ROOT/tools/simab/main.ml" "$DIR/ab/"
{
  echo "open Mlc_cachesim"
  git -C "$ROOT" show "$REV:lib/cachesim/fast_sim.ml"
} > "$DIR/ab/fast_sim_base.ml"
{
  echo "open Mlc_ir"
  git -C "$ROOT" show "$REV:lib/ir/interp.ml" | sed 's/Cs\.Fast_sim\./Fast_sim_base./g'
} > "$DIR/ab/interp_base.ml"
cat > "$DIR/ab/dune" <<'EOF'
(executable
 (name main)
 (flags (:standard -w -a))
 (libraries mlcache mlcache.ir mlcache.cachesim mlcache.analysis mlcache.kernels
  mlcache.engine mlcache.obs unix))
EOF
dune build --root "$DIR" ./ab/main.exe 2>&1
"$DIR/_build/default/ab/main.exe" "$REPS" ${FILTER:+"$FILTER"}
