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
    "deepwalk_16": (449, 3821, 905, 2722, 60229, 61136, 0,
                    "915b98033424f2877b1c6f49a9e0d3c5c387239c4936ee89e8116e5c08fc2658",
                    "04e6c2ecfc54caf787cd86dc284356ac8d27b737b41fd0b5c4d550cfd724768a"),
    "node2vec_rejection_16": (509, 3985, 1020, 26860, 59647, 63760, 0,
                              "c4c86e1e47a52a0af7ab45d3c6b0f56a83346861d849a8a7911b3f1b95666f76",
                              "2b9172719cfee4f534a1b248cad993eff13b8fed1d3bb0c133969368331d7126"),
    "node2vec_reservoir_16": (473, 3890, 953, 13997, 59950, 62240, 0,
                              "43d9d9832cb9cbe4bce953ad3a2cb1f23be17e02e71d728fafe4a538c594d9ef",
                              "dc19637ccbe0e046890cee6b07b8c8313605746ab43805f6bb0766026de48624"),
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
