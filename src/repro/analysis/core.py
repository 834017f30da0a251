"""Rule framework behind ``repro lint``.

Design constraints, in order:

1. **Deterministic output.**  Findings are sorted by ``(path, line,
   col, rule id)``, so two runs over the same tree — on any machine,
   in any directory — render byte-identical reports.  A linter that polices determinism
   has no business being nondeterministic itself.
2. **No imports of the linted code.**  Everything works on
   ``ast.parse`` output; linting a file can never execute it, pull in
   heavy dependencies, or depend on the interpreter's import state.
3. **Suppressions carry reasons.**  ``# repro: allow[RW104] <reason>``
   silences a finding on its own line (or the line directly above, for
   statements too long to annotate inline).  An allow-comment without a
   reason does *not* suppress — the policy is that every waiver is a
   reviewed, written-down decision — and unused or malformed allows are
   themselves findings (RW100), so waivers cannot rot silently.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ReproError


class AnalysisError(ReproError):
    """Raised for unusable linter inputs (bad paths, rule ids)."""


#: Matches one allow-comment.  Group 1: comma-separated rule ids;
#: group 2: the (possibly empty) reason text.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*?)\s*$")

_RULE_ID_RE = re.compile(r"^RW\d{3}$")

#: Rule id used for files the parser rejects; not a registered rule and
#: deliberately not suppressible — a file that does not parse cannot be
#: analyzed at all.
PARSE_ERROR_ID = "RW000"

#: Rule id for suppression hygiene (missing reason / unknown rule id /
#: unused allow).  Registered in :mod:`repro.analysis.rules` so it shows
#: up in ``--list-rules`` with the others.
HYGIENE_ID = "RW100"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int
    snippet: str = ""
    suppressed: bool = False
    suppression_reason: str = ""

    @property
    def active(self) -> bool:
        """Counts toward the exit code (not suppressed)."""
        return not self.suppressed

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: set[str] = field(default_factory=set)

    @property
    def has_reason(self) -> bool:
        return bool(self.reason.strip())


class FileContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.suppressions = _parse_suppressions(source)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule(ABC):
    """One statically checkable invariant.

    Subclasses define ``id`` / ``name`` / ``description`` (the rule
    table in README.md renders from these) and yield findings from
    :meth:`check`.  Rules must be pure functions of the context —
    registry order must never matter.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    @abstractmethod
    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield every violation in ``context`` (suppressions are
        applied by the driver, not by rules)."""

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``'s location."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.id,
            message=message,
            path=context.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            snippet=context.line_text(line),
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not _RULE_ID_RE.match(rule.id):
        raise AnalysisError(f"rule id {rule.id!r} does not match RW###")
    if rule.id in _REGISTRY:
        raise AnalysisError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise AnalysisError(
            f"unknown rule id {rule_id!r}; registered rules: {known}"
        ) from None


def _parse_suppressions(source: str) -> dict[int, Suppression]:
    """All allow-comments in ``source``, keyed by line number.

    Tokenize-based so ``# repro: allow[...]`` inside a string literal is
    never mistaken for a suppression.
    """
    out: dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for line, text in comments:
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        out[line] = Suppression(line=line, rule_ids=ids, reason=match.group(2))
    return out


def _comment_only_line(context: FileContext, lineno: int) -> bool:
    return context.line_text(lineno).startswith("#")


def _suppression_for(
    context: FileContext, finding: Finding
) -> Suppression | None:
    """The allow-comment covering ``finding``, if any.

    Same line wins; a *standalone* comment on the line directly above is
    accepted for statements too long to annotate inline.
    """
    same = context.suppressions.get(finding.line)
    if same is not None and finding.rule_id in same.rule_ids:
        return same
    above = context.suppressions.get(finding.line - 1)
    if (
        above is not None
        and finding.rule_id in above.rule_ids
        and _comment_only_line(context, finding.line - 1)
    ):
        return above
    return None


def _apply_suppressions(
    context: FileContext, findings: list[Finding]
) -> list[Finding]:
    out = []
    for finding in findings:
        if finding.rule_id == PARSE_ERROR_ID:
            out.append(finding)
            continue
        suppression = _suppression_for(context, finding)
        if suppression is None:
            out.append(finding)
            continue
        suppression.used.add(finding.rule_id)
        if not suppression.has_reason:
            # Policy: a reason-less allow suppresses nothing; RW100
            # below reports the comment itself.
            out.append(finding)
            continue
        out.append(
            replace(
                finding,
                suppressed=True,
                suppression_reason=suppression.reason,
            )
        )
    return out


def _suppression_location(context: FileContext, suppression: Suppression) -> dict:
    return dict(
        rule_id=HYGIENE_ID,
        path=context.path,
        line=suppression.line,
        col=0,
        snippet=context.line_text(suppression.line),
    )


def _malformed_suppression_findings(context: FileContext) -> list[Finding]:
    """RW100 part one: allows with no ids, no reason, or unknown ids."""
    findings = []
    for suppression in context.suppressions.values():
        location = _suppression_location(context, suppression)
        if not suppression.rule_ids:
            findings.append(Finding(
                message="allow-comment lists no rule ids", **location))
            continue
        if not suppression.has_reason:
            ids = ",".join(suppression.rule_ids)
            findings.append(Finding(
                message=f"suppression of {ids} carries no reason; every "
                        f"waiver must say why (policy: README.md "
                        f"'Determinism contract')", **location))
        for rule_id in suppression.rule_ids:
            if not _RULE_ID_RE.match(rule_id) or (
                rule_id not in _REGISTRY and rule_id != HYGIENE_ID
            ):
                findings.append(Finding(
                    message=f"allow-comment names unknown rule {rule_id!r}",
                    **location))
    return findings


def _unused_suppression_findings(
    context: FileContext, selected_ids: set[str]
) -> list[Finding]:
    """RW100 part two: allows that matched no finding this run.

    Runs *after* every other finding (hygiene included) has been matched
    against the allow-comments, so ``used`` is final.  RW100 allows are
    exempt — their use is only recorded while this very check runs.
    """
    findings = []
    for suppression in context.suppressions.values():
        if not suppression.has_reason:
            continue  # already reported as reason-less
        unused = [
            rule_id
            for rule_id in suppression.rule_ids
            if rule_id in selected_ids
            and rule_id != HYGIENE_ID
            and rule_id not in suppression.used
        ]
        if unused:
            findings.append(Finding(
                message=f"unused suppression: no {','.join(unused)} finding "
                        f"on this or the next line — delete the stale allow",
                **_suppression_location(context, suppression)))
    return findings


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: tuple[Finding, ...]
    files_scanned: int
    elapsed_seconds: float
    rule_ids: tuple[str, ...]

    @property
    def active(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.active)

    @property
    def suppressed(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.suppressed)

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def _select_rules(select: Sequence[str] | None) -> tuple[Rule, ...]:
    if select is None:
        return all_rules()
    return tuple(get_rule(rule_id) for rule_id in sorted(set(select)))


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint one in-memory source blob (the unit the fixture tests use)."""
    rules = _select_rules(select)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id=PARSE_ERROR_ID,
                message=f"file does not parse: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
            )
        ]
    context = FileContext(path, source, tree)
    findings: list[Finding] = []
    for rule in rules:
        if rule.id == HYGIENE_ID:
            continue  # hygiene runs after suppression matching, below
        findings.extend(rule.check(context))
    findings = _apply_suppressions(context, findings)
    selected_ids = {rule.id for rule in rules}
    if HYGIENE_ID in selected_ids:
        malformed = _malformed_suppression_findings(context)
        findings.extend(_apply_suppressions(context, malformed))
        unused = _unused_suppression_findings(context, selected_ids)
        findings.extend(_apply_suppressions(context, unused))
    return sorted(findings, key=Finding.sort_key)


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.is_file():
            out.add(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return sorted(out)


def _display_path(path: Path) -> str:
    """Relative to the working directory when possible (stable, short)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
) -> LintReport:
    """Lint files/directories and return the combined report."""
    started = time.perf_counter()
    rules = _select_rules(select)
    findings: list[Finding] = []
    files = _python_files(paths)
    for path in files:
        source = path.read_text(encoding="utf-8")
        findings.extend(
            lint_source(source, path=_display_path(path), select=select)
        )
    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        elapsed_seconds=time.perf_counter() - started,
        rule_ids=tuple(rule.id for rule in rules),
    )
