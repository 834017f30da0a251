"""The shipped RW1xx rules.

Each rule statically enforces one invariant the conformance matrix can
only spot-check:

========  ==========================================================
RW100     suppression hygiene (reason-less / unknown / unused allows)
RW101     global-state RNG (``np.random.<fn>`` / stdlib ``random``)
RW102     ad-hoc seed derivation (arithmetic on seeds fed to RNGs)
RW103     ``SharedMemory(create=True)`` without guaranteed unlink
RW104     blocking calls inside ``async def`` bodies
RW105     ``set`` iteration feeding ordered outputs
RW106     ``@njit`` kernels compiled without ``cache=True``
RW107     ``time.time()`` differences measuring durations
========  ==========================================================

All checks are heuristic AST pattern matches — they see names, not
types.  False positives are expected to be rare and are what the
``# repro: allow[RW###] <reason>`` mechanism exists for; false
negatives are bounded by the dynamic conformance suites that still run
behind this layer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    FileContext,
    Finding,
    HYGIENE_ID,
    Rule,
    register_rule,
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(call: ast.Call) -> str | None:
    return dotted_name(call.func)


def _numpy_random_roots(tree: ast.Module) -> set[str]:
    """Dotted prefixes that mean ``numpy.random`` in this module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    roots.add(f"{alias.asname or alias.name}.random")
                elif alias.name == "numpy.random":
                    roots.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    roots.add(alias.asname or alias.name)
    return roots


def _stdlib_random_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases, directly imported function names) for stdlib
    ``random``."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                functions.add(alias.asname or alias.name)
    return modules, functions


#: Legacy ``numpy.random`` module-level draw/state functions.  Anything
#: here consumes the *global* NumPy RNG — hidden cross-call coupling the
#: per-query ``SeedSequence`` contract forbids.
_NP_GLOBAL_FNS = frozenset({
    "seed", "get_state", "set_state",
    "rand", "randn", "randint", "random_integers",
    "random", "random_sample", "ranf", "sample",
    "choice", "bytes", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "lognormal",
    "beta", "binomial", "chisquare", "dirichlet", "exponential",
    "gamma", "geometric", "gumbel", "hypergeometric", "laplace",
    "logistic", "multinomial", "multivariate_normal",
    "negative_binomial", "pareto", "poisson", "power", "rayleigh",
    "triangular", "vonmises", "wald", "weibull", "zipf",
})

_STDLIB_RANDOM_FNS = frozenset({
    "seed", "random", "randint", "randrange", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform",
    "triangular", "betavariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate",
})


@register_rule
class GlobalRNGRule(Rule):
    id = "RW101"
    name = "global-state-rng"
    description = (
        "Module-level RNG calls (np.random.<fn>, stdlib random.<fn>) draw "
        "from hidden global state, so results depend on call order across "
        "the whole process. Root every stream in "
        "np.random.default_rng(SeedSequence((seed, tag))) instead."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        np_roots = _numpy_random_roots(context.tree)
        rand_modules, rand_functions = _stdlib_random_names(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            root, _, fn = name.rpartition(".")
            if root in np_roots and fn in _NP_GLOBAL_FNS:
                yield self.finding(
                    context, node,
                    f"{name}() draws from numpy's global RNG; use "
                    f"np.random.default_rng(SeedSequence((seed, tag)))",
                )
            elif root in rand_modules and fn in _STDLIB_RANDOM_FNS:
                yield self.finding(
                    context, node,
                    f"{name}() draws from the stdlib global RNG; use a "
                    f"seeded np.random.Generator",
                )
            elif not root and name in rand_functions:
                yield self.finding(
                    context, node,
                    f"{name}() (from random import ...) draws from the "
                    f"stdlib global RNG; use a seeded np.random.Generator",
                )


#: RNG constructors whose positional seed argument RW102 inspects.
_RNG_CTOR_SUFFIXES = (
    "default_rng", "SeedSequence", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
)

_BAD_SEED_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
    ast.BitXor, ast.BitOr, ast.BitAnd, ast.LShift, ast.RShift,
)


def _mentions_seed(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


def _is_adhoc_seed_expr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, _BAD_SEED_OPS)
        and _mentions_seed(node)
    )


@register_rule
class SeedDerivationRule(Rule):
    id = "RW102"
    name = "ad-hoc-seed-derivation"
    description = (
        "Deriving child seeds by arithmetic or xor (seed + 1, seed ^ SALT) "
        "can collide across call sites and correlate streams. Derive with "
        "SeedSequence spawn keys: np.random.SeedSequence((seed, tag)) or "
        "repro.sampling.base.derive_seed(seed, tag)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node) or ""
            is_rng_ctor = name.endswith(_RNG_CTOR_SUFFIXES)
            candidates: list[tuple[ast.AST, str]] = []
            if is_rng_ctor and node.args:
                candidates.append((node.args[0], f"{name}()'s seed"))
            for keyword in node.keywords:
                if keyword.arg and (
                    keyword.arg == "seed" or keyword.arg.endswith("_seed")
                ):
                    candidates.append((keyword.value, f"{keyword.arg}="))
            for expr, what in candidates:
                if _is_adhoc_seed_expr(expr):
                    yield self.finding(
                        context, expr,
                        f"ad-hoc seed derivation feeding {what}: use "
                        f"SeedSequence((seed, tag)) spawn keys (or "
                        f"derive_seed) so child streams cannot collide",
                    )


def _enclosing_scope(context: FileContext, node: ast.AST) -> ast.AST:
    current = context.parent(node)
    while current is not None and not isinstance(
        current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
    ):
        current = context.parent(current)
    return current if current is not None else context.tree


def _unlinks_in(nodes: list[ast.stmt]) -> bool:
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "unlink"
            ):
                return True
    return False


@register_rule
class SharedMemoryLifecycleRule(Rule):
    id = "RW103"
    name = "shared-memory-lifecycle"
    description = (
        "A SharedMemory(create=True) segment outlives the process unless "
        "unlink() runs on every path; a crash between creation and cleanup "
        "registration leaks /dev/shm until reboot. Create inside a with "
        "block or guard the handoff with try/except+unlink (see "
        "SharedArrayStore.create)."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node) or ""
            if not name.endswith("SharedMemory"):
                continue
            creates = any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
            if not creates:
                continue
            if self._guarded(context, node):
                continue
            yield self.finding(
                context, node,
                "SharedMemory(create=True) without a guaranteed unlink: "
                "wrap in `with` or follow with try/except that close()s "
                "and unlink()s the segment before re-raising",
            )

    def _guarded(self, context: FileContext, node: ast.Call) -> bool:
        # Case 1: context-manager expression of a `with` item.
        parent = context.parent(node)
        if isinstance(parent, ast.withitem):
            return True
        # Case 2: some try/except/finally in the same scope, at or after
        # the creation site, unlinks a segment.  Deliberately loose —
        # proving "all paths" needs dataflow; the heuristic demands the
        # author at least wrote a cleanup path, and review judges it.
        scope = _enclosing_scope(context, node)
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Try):
                continue
            if sub.end_lineno is not None and sub.end_lineno < node.lineno:
                continue
            handler_bodies = [stmt for h in sub.handlers for stmt in h.body]
            if _unlinks_in(sub.finalbody) or _unlinks_in(handler_bodies):
                return True
        return False


#: Call targets that block the event loop.  Dotted entries match the
#: qualified call name's suffix; bare entries match exact bare calls.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() stalls the event loop; await "
                  "asyncio.sleep() instead",
    "os.system": "os.system() blocks; use asyncio.create_subprocess_shell",
    "subprocess.run": "subprocess.run() blocks; use asyncio subprocesses",
    "subprocess.call": "subprocess.call() blocks; use asyncio subprocesses",
    "subprocess.check_call": "blocks; use asyncio subprocesses",
    "subprocess.check_output": "blocks; use asyncio subprocesses",
    "socket.create_connection": "blocks; use asyncio.open_connection",
}

_BLOCKING_BARE = {
    "open": "synchronous file I/O on the event loop; run it in an "
            "executor (loop.run_in_executor)",
    "input": "console input blocks the event loop",
    # This repository's synchronous engine entry points: a direct call
    # from a coroutine runs the whole walk batch on the event loop,
    # freezing admission, flush timers, and every other request.
    "run_walks": "synchronous engine entry point; dispatch via "
                 "loop.run_in_executor as WalkService._execute does",
    "run_walks_batch": "synchronous engine entry point; dispatch via "
                       "loop.run_in_executor as WalkService._execute does",
    "run_software_walks": "synchronous engine entry point; dispatch via "
                          "loop.run_in_executor",
    "run_accelerator_walks": "the cycle model runs to completion on the "
                             "calling thread; dispatch via loop.run_in_executor",
    "prepare_engine": "engine preparation is CPU-bound (alias/CDF "
                      "builds); run it in an executor",
}


@register_rule
class BlockingAsyncRule(Rule):
    id = "RW104"
    name = "blocking-call-in-async"
    description = (
        "A blocking call inside an async def body stalls the event loop: "
        "micro-batch flush timers, admission, and every concurrent request "
        "stop until it returns. Await an async equivalent or dispatch via "
        "loop.run_in_executor."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from self._visit(context, context.tree, in_async=False)

    def _visit(
        self, context: FileContext, node: ast.AST, in_async: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                yield from self._visit(context, child, in_async=True)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                # A nested sync def is just a value here; it only blocks
                # if *called* on the loop, which its own body can't show.
                yield from self._visit(context, child, in_async=False)
            else:
                if in_async and isinstance(child, ast.Call):
                    finding = self._check_call(context, child)
                    if finding is not None:
                        yield finding
                yield from self._visit(context, child, in_async=in_async)

    def _check_call(self, context: FileContext, call: ast.Call) -> Finding | None:
        name = _call_name(call)
        if name is None:
            return None
        for target, why in _BLOCKING_CALLS.items():
            if name == target or name.endswith("." + target):
                return self.finding(
                    context, call, f"blocking call {name}() in async def: {why}"
                )
        if name in _BLOCKING_BARE:
            return self.finding(
                context, call,
                f"blocking call {name}() in async def: {_BLOCKING_BARE[name]}",
            )
        return None


#: Consumers that turn their argument into an *ordered* artifact.
_ORDERING_CALLS = frozenset({"list", "tuple", "enumerate"})
_ORDERING_CALL_SUFFIXES = (".array", ".asarray", ".fromiter", ".concatenate")
_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)


def _set_assignments(scope: ast.AST) -> set[str]:
    """Names bound to set-typed expressions by simple assignments."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and _is_setlike(node.value, names):
                names.add(target.id)
    return names


def _is_setlike(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setlike(node.left, set_names) or _is_setlike(
            node.right, set_names
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


@register_rule
class SetOrderRule(Rule):
    id = "RW105"
    name = "set-iteration-order"
    description = (
        "Iterating a set into an ordered output (list, array, loop body, "
        "joined string) bakes hash-table order into results; with salted "
        "str hashing that order changes across processes, breaking "
        "bit-identity. Wrap the set in sorted() first."
    )

    _advice = "set iteration order is not part of the determinism " \
              "contract; wrap it in sorted()"

    def check(self, context: FileContext) -> Iterator[Finding]:
        set_names = _set_assignments(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_setlike(node.iter, set_names):
                    yield self.finding(
                        context, node.iter,
                        f"for-loop over a set feeds ordered work: {self._advice}",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_setlike(generator.iter, set_names):
                        yield self.finding(
                            context, generator.iter,
                            f"comprehension over a set builds an ordered "
                            f"result: {self._advice}",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node, set_names)

    def _check_call(
        self, context: FileContext, call: ast.Call, set_names: set[str]
    ) -> Iterator[Finding]:
        if not call.args or not _is_setlike(call.args[0], set_names):
            return
        name = dotted_name(call.func)
        if name in _ORDERING_CALLS or (
            name is not None and name.endswith(_ORDERING_CALL_SUFFIXES)
        ):
            yield self.finding(
                context, call.args[0],
                f"{name}() over a set produces an ordered artifact: "
                f"{self._advice}",
            )
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "join":
            yield self.finding(
                context, call.args[0],
                f"str.join over a set serializes in hash order: {self._advice}",
            )


def _is_njit_name(node: ast.AST) -> bool:
    name = dotted_name(node)
    return name is not None and (name == "njit" or name.endswith(".njit"))


@register_rule
class NumbaCacheRule(Rule):
    id = "RW106"
    name = "njit-without-disk-cache"
    description = (
        "An @njit kernel without cache=True recompiles from scratch in "
        "every process — worker pools and CI lanes each pay the full "
        "nopython compile instead of hitting the on-disk cache, turning "
        "a one-time cost into a per-process stall. Decorate with "
        "@njit(cache=True)."
    )

    _advice = "pass cache=True so compiled kernels persist across processes"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                yield from self._check_decorator(context, node, decorator)

    def _check_decorator(
        self, context: FileContext, function: ast.AST, decorator: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(decorator, ast.Call):
            if not _is_njit_name(decorator.func):
                return
            for keyword in decorator.keywords:
                if keyword.arg == "cache":
                    # Any explicit cache= is a decision, not an omission;
                    # cache=False on purpose deserves an allow comment.
                    if (isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True):
                        return
                    yield self.finding(
                        context, decorator,
                        f"@njit on {function.name!r} sets cache to a "
                        f"non-True value: {self._advice}",
                    )
                    return
            yield self.finding(
                context, decorator,
                f"@njit call on {function.name!r} omits cache=True: "
                f"{self._advice}",
            )
        elif _is_njit_name(decorator):
            yield self.finding(
                context, decorator,
                f"bare @njit on {function.name!r} cannot cache its "
                f"compile: {self._advice}",
            )


def _time_time_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names that mean ``time.time`` in this module.

    Returns ``(dotted, bare)``: dotted call names from ``import time``
    (including ``import time as t`` -> ``t.time``) and bare names from
    ``from time import time`` (including ``as`` aliases).
    """
    dotted: set[str] = set()
    bare: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    dotted.add(f"{alias.asname or alias.name}.time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    bare.add(alias.asname or alias.name)
    return dotted, bare


@register_rule
class WallClockDurationRule(Rule):
    id = "RW107"
    name = "wall-clock-duration"
    description = (
        "Subtracting time.time() readings measures the wall clock, which "
        "NTP can step or slew mid-interval — durations come out wrong or "
        "negative, and telemetry (spans, latency ledgers, benchmark "
        "gates) built on them lies. Measure durations with "
        "time.perf_counter() or time.monotonic(); time.time() is only "
        "for timestamps of record."
    )

    _advice = (
        "use time.perf_counter() (or time.monotonic()) for durations; "
        "time.time() is wall-clock and not monotonic"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        dotted, bare = _time_time_names(context.tree)
        if not dotted and not bare:
            return
        # File-level aggregation of names bound to time.time() readings
        # by simple assignment — coarse (ignores scopes), but a name like
        # `started = time.time()` being subtracted anywhere in the file
        # is exactly the pattern this rule exists to catch.
        tracked: set[str] = set()
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_time_call(node.value, dotted, bare)
            ):
                tracked.add(node.targets[0].id)
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
                continue
            operands = (node.left, node.right)
            if any(self._is_time_call(op, dotted, bare) for op in operands):
                yield self.finding(
                    context, node,
                    f"time.time() difference measures a duration: {self._advice}",
                )
            elif all(
                isinstance(op, ast.Name) and op.id in tracked for op in operands
            ):
                yield self.finding(
                    context, node,
                    f"difference of wall-clock readings "
                    f"({ast.unparse(node.left)} - {ast.unparse(node.right)}) "
                    f"measures a duration: {self._advice}",
                )

    @staticmethod
    def _is_time_call(node: ast.AST, dotted: set[str], bare: set[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _call_name(node)
        return name is not None and (name in dotted or name in bare)


@register_rule
class SuppressionHygieneRule(Rule):
    """Placeholder carrying RW100's id/name/description.

    The actual checks live in :mod:`repro.analysis.core` — they need
    the post-matching suppression state no per-file AST pass can see —
    so :meth:`check` is intentionally empty.
    """

    id = HYGIENE_ID
    name = "suppression-hygiene"
    description = (
        "Every `# repro: allow[RW###]` must carry a reason, name a known "
        "rule, and actually suppress something; reason-less allows "
        "suppress nothing and stale allows are reported so waivers cannot "
        "rot silently."
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        return iter(())
