"""Determinism & resource-safety static analysis (``repro lint``).

The repository's correctness story rests on invariants the conformance
suites can only *sample*: every RNG stream must be rooted in
``SeedSequence((seed, tag))`` spawn keys, the asyncio serve path must
never block its event loop, and anything ordered must never be fed
from a ``set``.  This package enforces those invariants *statically*,
over the AST, so a violation is caught the moment it is written rather
than the first time a 20-seed sweep happens to hit it.

Layout:

* :mod:`repro.analysis.core` — the rule framework: :class:`Finding`,
  :class:`Rule` + registry, per-file contexts with parent-annotated
  ASTs, ``# repro: allow[RW###] <reason>`` suppression handling, and
  the optional fingerprint baseline;
* :mod:`repro.analysis.rules` — the shipped RW1xx rules;
* :mod:`repro.analysis.report` — deterministic text / JSON reporters.

Entry points: ``repro lint`` (CLI), :func:`lint_paths` (API).
"""

from repro.analysis.core import (
    Finding,
    LintReport,
    Rule,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    write_baseline,
)
from repro.analysis.report import render_json, render_text

# Importing the rules module registers every shipped rule.
from repro.analysis import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "write_baseline",
]
