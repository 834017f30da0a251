"""Cycle-exact golden of the accelerator at its device default of 16 pipelines.

``test_cycle_golden.py`` pins 1, 4 and 8 pipelines; this file pins the
16-pipeline machine CI's cycle-model smoke runs — a four-stage butterfly
and a four-level distribution tree — for one sampler of each family:
alias DeepWalk, rejection Node2Vec and reservoir Node2Vec on RMAT-8.
Each case is that file's own (``run_case`` / ``machine_sha256``), with
the pipeline count overridden.

A change to how the model is *computed* must leave every value here
unedited.  Regenerate only for an intended change to what it simulates::

    PYTHONPATH=src python tests/sim/test_cycle_golden_wide.py
"""

from __future__ import annotations

from unittest import mock

import pytest
from test_cycle_golden import CASES, run_case

WIDE = {"num_pipelines": 16}

#: name -> the narrow case it widens.
WIDE_CASES = {
    "deepwalk_16": "deepwalk",
    "node2vec_rejection_16": "node2vec_rejection",
    "node2vec_reservoir_16": "node2vec_reservoir",
}

#: Same tuple layout as ``test_cycle_golden.GOLDEN``.
GOLDEN_WIDE = {
    "deepwalk_16": (483, 3821, 969, 2910, 60171, 61136, 0,
                    "dbc4cbe46dd6c9e3d23391dec31a4439cc0d93bdfed12416a198981311e81f72",
                    "2a3147592b7e180e8b805c3bb46552cd83542b2f0af1efc233176b42c60c3694"),
    "node2vec_rejection_16": (469, 4083, 946, 25156, 61149, 65328, 0,
                              "a7f3900befacfe35e9c5643644409e1ca7af6c5c1e18e18c898e95876665a376",
                              "834a7d99a657eb3df7a793ca216dbcef4d7cf1d8ac5c79bafd3653d9b33a2d37"),
    "node2vec_reservoir_16": (469, 3890, 943, 14603, 59888, 62240, 0,
                              "ee99d79af26edd0780486b0f6160e12652aa04ce03a6a72936537e0f6c16a74f",
                              "c530ecd1d35be0b1a4b28dfffd83beb2c9a122232c2d64b904953ae5737a00ca"),
}


def run_wide_case(name: str) -> tuple:
    scale, weighted, make_spec, num_queries, overrides = CASES[WIDE_CASES[name]]
    case = (scale, weighted, make_spec, num_queries, {**overrides, **WIDE})
    with mock.patch.dict(CASES, {name: case}):
        return run_case(name)


@pytest.mark.parametrize("name", list(WIDE_CASES))
def test_sixteen_pipeline_counters_and_paths_are_pinned(name):
    assert run_wide_case(name) == GOLDEN_WIDE[name]


if __name__ == "__main__":
    print("GOLDEN_WIDE = {")
    for case in WIDE_CASES:
        print(f"    {case!r}: {run_wide_case(case)!r},")
    print("}")
