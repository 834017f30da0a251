"""``make_walk_kernel``: the spec's own batch kernel, under its old name.

Every engine samples with the one kernel its spec's sampler maps to
(:func:`~repro.sampling.vectorized.make_kernel`).  This module keeps the
factory name and the ``mode`` argument that callers written against it
still pass; ``"default"`` is the only mode there is.
"""

from __future__ import annotations

from repro.errors import WalkConfigError
from repro.sampling.base import Sampler
from repro.sampling.vectorized import VectorizedKernel, make_kernel


def require_default(option: str, value: str) -> None:
    """Reject any ``option`` value but ``"default"``, naming the one accepted."""
    if value != "default":
        raise WalkConfigError(
            f"{option}={value!r} is not supported; {option} accepts only 'default' "
            "(every engine runs the spec's own sampling kernel)"
        )


def make_walk_kernel(sampler: Sampler, mode: str = "default") -> VectorizedKernel:
    """``make_kernel(sampler)``; ``mode`` accepts only ``"default"``."""
    require_default("mode", mode)
    return make_kernel(sampler)
