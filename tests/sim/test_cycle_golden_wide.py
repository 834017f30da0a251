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
    "deepwalk_16": (500, 3821, 1002, 3008, 60139, 61136, 0,
                    "b226059e24761a22e5c56cc9b64eb76ce4c1302a05ec7a1b01b1ad220bbd9e7d",
                    "db8108500fbdf13a92ffd81d1710ad35146d4767c8fab69975d62be7c9dad023"),
    "node2vec_rejection_16": (483, 4064, 969, 25120, 60923, 65024, 0,
                              "be0b7aba5b03f8540eaf29dec7b97e5d5c14e79f51b6c966bfb9f8ab555a0053",
                              "a46b5739c21fb6f43b7db5fad5ac15270ae92637a82b2bae9ddcbcccf8b19595"),
    "node2vec_reservoir_16": (492, 3894, 988, 14711, 59901, 62304, 0,
                              "66a99f3e914626553a43029b37e5c4ebd09a06256633dcf140a1ab7bba968405",
                              "92229b8b59cc255b54352731666d81bcca0c2700c73588f9b84f452008771085"),
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
