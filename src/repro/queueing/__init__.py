"""Queueing theory: an independent simulation check of Theorem VI.1.

The accelerator sizes its scheduler FIFOs with
:func:`repro.core.config.theorem_fifo_depth`; this package checks that
depth against a delayed-feedback model that shares no code with the
accelerator.
"""

from repro.queueing.validation import (
    DelayedFeedbackResult,
    depth_sweep,
    simulate_delayed_feedback,
)

__all__ = [
    "DelayedFeedbackResult",
    "depth_sweep",
    "simulate_delayed_feedback",
]
