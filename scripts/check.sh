#!/usr/bin/env bash
# CI gate: the determinism & resource-safety lint (`repro lint`, zero
# unsuppressed findings over src/repro — see the README's "Determinism
# contract"), then the tier-1 test suite — which holds the perf gates
# too (batch >= 10x reference, flash-crowd premium p99 <= 2x, dynamic
# maintenance >= 1.3x a rebuild, one tracer lookup per untraced run) —
# then CLI smokes whose exit codes are gates: every `serve-bench` run
# replays each served path bit-identically through its engine (plain,
# multi-tenant flash crowd, MetaPath, the run-backed reference
# frontier), `mutate-bench` exits non-zero unless its final snapshot
# equals a from-scratch build (per small batch, and for bursts larger
# than a quarter of the base graph), and a traced CLI run exports sample
# trace + metrics artifacts.  The timed benchmark is
# `benchmarks/suite/run.py` (see benchmarks/suite/README.md).
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

if command -v ruff >/dev/null 2>&1; then
  echo
  echo "== ruff (error-tier rules) =="
  ruff check .
else
  echo "(ruff not installed; skipping — CI runs it)"
fi

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

echo
echo "== observability smoke (traced CLI artifacts) =="
python -m repro trace --out benchmarks/sample_trace.jsonl --format jsonl -- \
  serve-bench --scenario flash-crowd --tenants 2 --cache \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
python -m repro metrics --out benchmarks/sample_metrics.prom -- \
  walk --engine batch --queries 200 --length 20 --scale 0.05
