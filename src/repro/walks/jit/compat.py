"""Numba availability shim for the JIT walk kernels.

The kernels in :mod:`repro.walks.jit.kernels` are written as plain
scalar NumPy code and decorated with :func:`njit`.  When numba is
importable that is the real ``numba.njit`` and the kernels compile to
nopython machine code on first call (``cache=True`` persists the
compiled artifact across processes).  When numba is absent the shim is
an identity decorator, so the exact same kernel source runs interpreted
— slower, but bit-identical, which is what lets the equivalence suite
prove the kernel math on hosts without numba.

Production entry points (``--engine jit``) do **not** run the
interpreted kernels: they warn once and delegate to the batch engine
(see :class:`repro.walks.jit.engine.JitEngine`).  The interpreted
path is reserved for the test harness, which calls the array-level core
directly.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised via tests that mock the import
    from numba import njit as _numba_njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    _numba_njit = None
    NUMBA_AVAILABLE = False


def njit(*args, **kwargs):
    """``numba.njit`` when numba is importable; identity otherwise.

    Supports both decorator spellings: bare ``@njit`` and
    parameterized ``@njit(cache=True)``.
    """
    if NUMBA_AVAILABLE:
        return _numba_njit(*args, **kwargs)
    if args and callable(args[0]) and not kwargs:
        return args[0]

    def decorate(func):
        return func

    return decorate
