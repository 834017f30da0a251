#!/usr/bin/env bash
# Saves one small weighted RMAT (RMAT-8, ThunderRW weights) as a `.npz`
# archive and as an edge-list file, walks each with `repro walk
# --dataset <file>`, and fails unless both walks print the same result
# (the timing of the engine line aside).  Files go to a temporary
# directory, removed afterwards.
#
#   scripts/graph_files_smoke.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

python - "$workdir" <<'PY'
import sys

from repro.graph import rmat, save_edge_list, save_npz, thunderrw_weights

graph = rmat(8, 8, seed=1, name="rmat8")
graph = graph.with_weights(thunderrw_weights(graph, seed=1))
save_npz(graph, f"{sys.argv[1]}/rmat8.npz")
save_edge_list(graph, f"{sys.argv[1]}/rmat8.el")
PY

for format in npz el; do
  python -m repro walk --engine batch --algorithm DeepWalk \
    --dataset "$workdir/rmat8.$format" --queries 200 --length 20 \
    | sed -E 's/ in [0-9.]+s \([0-9,]+ hops\/s\)$//' > "$workdir/$format.out"
done
if ! diff "$workdir/npz.out" "$workdir/el.out"; then
  echo "the .npz and edge-list copies of one graph walked differently" >&2
  exit 1
fi
cat "$workdir/npz.out"
