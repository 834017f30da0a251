#!/usr/bin/env bash
# CI gate: the determinism & resource-safety lint (`repro lint`, zero
# unsuppressed findings over src/repro — see the README's "Determinism
# contract"), then the tier-1 test suite plus engine smoke benchmarks
# — the batch
# engine must beat the reference loop on a 10k-query RMAT workload, the
# sharded parallel engine (2 workers, small graph) must produce
# bit-identical results to the batch engine, the async walk service
# must shed zero requests under nominal open-loop load while replaying
# bit-identically offline, the multi-tenant QoS layer must keep a
# flash-crowding best-effort tenant from starving premium while the
# epoch-keyed hot-walk cache stays bit-identical to replay across an
# epoch swap, the dynamic subsystem must publish
# snapshots bit-identical to from-scratch builds after a streamed
# update trace, the hybrid auto sampler must stay bit-identical to
# fixed-strategy kernels under forced selection maps, the observability
# layer must keep instrumented-but-disabled throughput at baseline
# (gated on full runs; the smoke asserts traced runs stay bit-identical
# to untraced) while a traced CLI run exports sample trace + metrics
# artifacts, and the fused jit
# kernels must stay bit-identical to the batch engine (compiled where
# numba is installed, interpreted through the same code path where it
# is not) plus run end-to-end from the CLI, and the distributed
# graph-partitioned engine (2 shards, walker forwarding) must stay
# bit-identical to the batch engine end-to-end.  (The machine-readable
# BENCH_*.json perf records are rewritten by the *full* benchmark runs,
# not by these smokes.)
#
# When pytest-cov is installed (it is in CI; see requirements-ci.txt),
# the suite runs under a coverage gate on the sampling + dynamic
# packages — the floor sits just below measured coverage so genuinely
# untested new code fails the lane, and the XML report lands next to
# the BENCH_*.json artifacts.  Without pytest-cov the suite runs plain,
# so local checks need no extra installs.
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
echo "== batch engine smoke benchmark =="
python benchmarks/bench_batch_engine.py --smoke

echo
echo "== parallel engine smoke (2 workers) =="
python benchmarks/bench_parallel_engine.py --smoke

echo
echo "== serve smoke (zero drops at nominal load, bit-identical replay) =="
python benchmarks/bench_serve.py --smoke

echo
echo "== serve QoS smoke (tenant isolation under flash crowd, epoch-safe cache) =="
python benchmarks/bench_serve_qos.py --smoke
python -m repro serve-bench --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
# MetaPath's edge type follows each walker's own hop count: served by the
# open frontier, and the exit code gates replay identity.
python -m repro serve-bench --algorithm MetaPath --scenario flash-crowd --tenants 2 \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64

echo
echo "== dynamic smoke (update trace + snapshot-equivalence check) =="
python benchmarks/bench_dynamic.py --smoke

echo
echo "== hybrid smoke (auto vs fixed strategies, conformance + throughput) =="
python benchmarks/bench_hybrid.py --smoke

echo
echo "== observability smoke (disabled-overhead gate + traced CLI artifacts) =="
python benchmarks/bench_obs_overhead.py --smoke
python -m repro trace --out benchmarks/sample_trace.jsonl --format jsonl -- \
  serve-bench --scenario flash-crowd --tenants 2 --cache \
  --requests 200 --rate 2000 --scale 0.05 --length 16 --max-batch 64
python -m repro metrics --out benchmarks/sample_metrics.prom -- \
  walk --engine batch --queries 200 --length 20 --scale 0.05

echo
echo "== jit smoke (fused kernels bit-identical to batch + CLI end-to-end) =="
python benchmarks/bench_jit_engine.py --smoke
python -m repro walk --engine jit --algorithm DeepWalk --queries 200 --length 20 --scale 0.05
python -m repro walk --engine jit --algorithm Node2Vec --queries 200 --length 20 --scale 0.05

echo
echo "== dist engine smoke (2 shards, walker forwarding, bit-identical to batch) =="
python benchmarks/bench_dist_engine.py --smoke
python -m repro walk --engine dist --shards 2 --algorithm DeepWalk --queries 200 --length 20 --scale 0.05
