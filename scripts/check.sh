#!/usr/bin/env bash
# CI gate: the determinism & resource-safety lint (`repro lint`, zero
# unsuppressed findings over src/repro — see the README's "Determinism
# contract"; text, JSON and one `--select`ed rule), then the two
# cycle-model goldens (every simulated counter pinned at 1, 4, 8 and 16
# pipelines, so a counter drift is the first red line) and the cycle
# model's paths held to the batch engine's — run twice, the
# second time with numpy's SIMD sort kernels switched off beside the
# `micro-depth` pins, so a tie order that depends on the CPU fails here —
# then the tier-1 test suite — which holds the perf gates too (batch >=
# 10x reference, flash-crowd premium p99 <= 2x, dynamic maintenance >=
# 1.3x a rebuild, one tracer lookup per untraced run) —
# then CLI smokes whose exit codes are gates: every `serve-bench` run
# replays each served path bit-identically through its engine (plain,
# paced PPR, multi-tenant flash crowd, MetaPath and the run-backed
# reference frontier),
# `mutate-bench` exits non-zero unless its final snapshot
# equals a from-scratch build (per small batch, for bursts larger than a
# quarter of the base graph, and for the edge set Node2Vec's snapshots
# carry, rejection and reservoir, compared array by array),
# `repro info` lists the catalogue, a streaming, traced cycle-model walk
# runs the device default of 16 pipelines (the cycle goldens pin 1, 4,
# 8 and 16) and a one-pipeline walk its single-Forwarder balancer, one
# weighted RMAT saved as `.npz` and as an edge list walks alike from both
# files, every example script runs to a zero exit, and a
# traced CLI run exports sample trace + metrics artifacts, which are read
# back and must hold a `serve.step` span and non-zero engine hops.  The
# timed benchmark is `benchmarks/suite/run.py` (see
# benchmarks/suite/README.md).
#
# When pytest-cov is installed (it is in CI; see requirements-ci.txt),
# the suite runs under a coverage gate on the sampling + dynamic
# packages — the floor sits just below measured coverage so genuinely
# untested new code fails the lane, and the XML report lands next to
# the sample trace + metrics artifacts.  Without pytest-cov the suite
# runs plain, so local checks need no extra installs.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism & resource-safety lint (repro lint) =="
python -m repro lint src/repro
# The JSON report must parse, and count the files it scanned.
python -m repro lint --format json src/repro | python -c \
  'import json, sys; report = json.load(sys.stdin); assert report["files_scanned"] > 0, report'
# One selected rule: the --select path runs only the rules it names.
python -m repro lint --select RW101 src/repro

if command -v ruff >/dev/null 2>&1; then
  echo
  echo "== ruff (error-tier rules) =="
  ruff check .
else
  echo "(ruff not installed; skipping — CI runs it)"
fi

echo
echo "== cycle-model goldens (every simulated counter, 1 to 16 pipelines; the batch engine's paths) =="
python -m pytest -q tests/sim/test_cycle_golden.py tests/sim/test_cycle_golden_wide.py \
  tests/sim/test_sim_equals_batch.py

echo
echo "== the goldens and the micro-depth pins again at baseline SIMD dispatch =="
# numpy sends an unstable sort to AVX2 / AVX-512 kernels whose tie order
# differs by CPU; every pinned value must hold with them switched off.
# numpy ignores a feature name the host does not know.
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" python -m pytest -q \
  tests/sim/test_cycle_golden.py tests/sim/test_cycle_golden_wide.py \
  tests/sim/test_sim_equals_batch.py \
  tests/bench/test_experiments.py::test_micro_depth \
  tests/queueing/test_queueing.py::TestDelayedFeedbackSimulation::test_a_small_shape_is_pinned

echo
echo "== tier-1 tests =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
  python -m pytest -x -q \
    --cov=repro.sampling --cov=repro.dynamic \
    --cov-report=term --cov-report=xml:benchmarks/coverage.xml \
    --cov-fail-under=93
else
  echo "(pytest-cov not installed; running without the coverage gate)"
  python -m pytest -x -q
fi

echo
echo "== lane invariance on one CPU (taskset -c 0: the batch engine runs one lane) =="
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 python -m pytest -x -q tests/walks/test_lanes.py
else
  echo "(taskset not installed; skipping the one-CPU lane run)"
fi

echo
echo "== serve smokes (exit code gates bit-identical replay) =="
python -m repro serve-bench --requests 400 --scale 0.05 --length 40
# PPR is the spec the serve benchmark serves, paced at its open-loop rate.
python -m repro serve-bench --algorithm PPR --requests 400 --rate 4000 --scale 0.05 \
  --length 40 --max-batch 64
python -m repro serve-bench --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
# MetaPath's edge type follows each walker's own hop count: served by the
# open frontier, and the exit code gates replay identity.
python -m repro serve-bench --algorithm MetaPath --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
# A run-only engine is served by the run-backed frontier (one closed run
# per step); the exit code gates replay identity against its own run.
python -m repro serve-bench --engine reference --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64

echo
echo "== dynamic smoke (exit code gates snapshot == from-scratch build) =="
python -m repro mutate-bench --scale 9 --batch-size 200 --batches 6 --queries 256 --length 40
# Bursts: each batch exceeds a quarter of the base graph and stays in the
# overlay until its snapshot.
python -m repro mutate-bench --scale 10 --batch-size 2500 --batches 3 --queries 256 --length 40
# Node2Vec reads the edge set: every snapshot carries one built from its
# CSR, and the final one must equal a fresh build's, array by array.
python -m repro mutate-bench --algorithm Node2Vec --scale 9 --batch-size 200 --batches 6 \
  --queries 256 --length 40
# Reservoir Node2Vec probes every flattened neighbour through the edge set
# a snapshot carries (checked the same way).
python -m repro mutate-bench --algorithm Node2Vec-reservoir --scale 9 --batch-size 200 \
  --batches 6 --queries 256 --length 40

echo
echo "== cycle-model smoke (16 pipelines, streaming, traced) =="
python -m repro walk --engine sim --algorithm Node2Vec --dataset WG --scale 0.05 \
  --queries 64 --length 16 --streaming --trace
# One pipeline: the balancer degenerates to a single Forwarder.
python -m repro walk --engine sim --pipelines 1 --queries 16 --length 8 --scale 0.05

echo
echo "== info smoke (lists every dataset, algorithm, device and experiment) =="
python -m repro info

echo
echo "== graph-file smoke (.npz and edge-list copies of one graph walk alike) =="
scripts/graph_files_smoke.sh

echo
echo "== examples smoke (every examples/*.py script exits 0) =="
scripts/examples_smoke.sh

echo
echo "== observability smoke (traced CLI artifacts) =="
python -m repro trace --out benchmarks/sample_trace.jsonl --format jsonl -- \
  serve-bench --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
python -m repro metrics --out benchmarks/sample_metrics.prom -- \
  walk --engine batch --queries 200 --length 20 --scale 0.05
python scripts/check_obs_artifacts.py benchmarks/sample_trace.jsonl benchmarks/sample_metrics.prom
