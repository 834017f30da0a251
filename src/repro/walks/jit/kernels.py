"""Fused per-walker walk kernels (nopython-compatible).

One compiled loop runs a walker's *entire* walk — CSR row slice, strategy
dispatch, move, teleport check — with no superstep barrier, which is the
RidgeWalker pipelining argument applied to a CPU backend: the hop loop
hides the next row fetch behind the current draw instead of
materializing frontier-wide arrays per step.

Bit-identity contract
---------------------
Every draw reproduces :class:`repro.sampling.vectorized.QueryStreams`
exactly: per-query uint64 state seeded from ``SeedSequence((seed,
query_id))``, advanced by the splitmix64 golden-ratio gamma, finalized
with the splitmix64 mixer, mapped to [0, 1) via the top 53 bits.  The
per-strategy draw *patterns* (how many state bumps per hop, in what
order) mirror the batch kernels one-to-one, so a walker's path is
bit-identical whether it ran here or on the frontier engine.  The
chi-square suites then come for free: same paths, same statistics.

Two traps this file works around, so edits must preserve them:

* every RNG constant and shift count is a module-level ``np.uint64`` —
  mixing a Python int into uint64 arithmetic makes numba promote the
  whole expression to float64 and silently breaks the stream;
* ``u ** e`` mirrors numpy's ``npy_pow`` shortcut branches (exponents
  2.0 / 0.5 / 1.0 / 0.0 / -1.0) because numba lowers ``**`` straight to
  libm ``pow`` — without the branches reservoir race keys can drift by
  one ulp on libms that are not correctly rounded.

The module imports (and its kernels run, interpreted) without numba —
see :mod:`repro.walks.jit.compat`.
"""

from __future__ import annotations

import numpy as np

from repro.walks.jit.compat import njit

# splitmix64 stream constants — must match repro.sampling.vectorized.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ELEMENT_GAMMA = np.uint64(0xD1B54A32D192ED03)
_TO_UNIT = 1.0 / (1 << 53)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

# Strategy codes — must match repro.sampling.hybrid.
CODE_UNIFORM = 0
CODE_ALIAS = 1
CODE_ITS = 2
CODE_REJECTION = 3
CODE_RESERVOIR = 4
CODE_ONE = 5

#: Which batch kernel CODE_ITS stands for: the prepared flat-CDF
#: ``ITSKernel`` under first-order bases, the bias-adjusted
#: ``BiasedScanKernel`` under second-order families (structural-only
#: for rejection, weighted for reservoir).
FAMILY_FIRST = 0
FAMILY_REJECTION = 1
FAMILY_RESERVOIR = 2

# Termination causes — must match repro.walks.batch.
CAUSE_LENGTH = 0
CAUSE_DANGLING = 1
CAUSE_EARLY = 2
CAUSE_PROBABILISTIC = 3

#: ``counters`` slots filled by :func:`walk_kernel`.
N_COUNTERS = 3
IDX_PROPOSALS = 0
IDX_READS = 1
IDX_REJECTION_OVERFLOW = 2

_MAX_REJECTION_ROUNDS = 10_000


@njit(cache=True)
def _mix64(z):
    """splitmix64 finalizer over one uint64 (wrapping arithmetic)."""
    z = (z ^ (z >> _S30)) * _MIX_1
    z = (z ^ (z >> _S27)) * _MIX_2
    return z ^ (z >> _S31)


@njit(cache=True)
def _to_unit(bits):
    """Map a uint64 to a float64 uniform in [0, 1) (53 usable bits)."""
    return np.float64(bits >> _S11) * _TO_UNIT


@njit(cache=True)
def _next_uniform(state):
    """Advance one stream; return ``(new_state, uniform)``."""
    state = state + _GAMMA
    return state, _to_unit(_mix64(state))


@njit(cache=True)
def _randint(u, bound):
    """``QueryStreams.randints`` for one draw: truncate, clamp to bound-1."""
    draw = np.int64(u * np.float64(bound))
    if draw > bound - 1:
        draw = bound - 1
    return draw


@njit(cache=True)
def _edge_exists(edge_keys, num_vertices, src, dst):
    """Binary-search twin of ``vectorized.EdgeSet.contains`` for one edge."""
    size = edge_keys.size
    if size == 0:
        return False
    key = src * num_vertices + dst
    lo = 0
    hi = size
    while lo < hi:
        mid = (lo + hi) // 2
        if edge_keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo >= size:
        lo = size - 1
    return edge_keys[lo] == key


@njit(cache=True)
def _race_key(u, e):
    """``u ** e`` through numpy's ``npy_pow`` shortcut branches.

    numpy's power ufunc special-cases these exponents before calling
    libm; mirroring the branches keeps reservoir race keys bit-identical
    to the vectorized kernel under any libm.
    """
    if e == 2.0:
        return u * u
    if e == 0.5:
        return np.sqrt(u)
    if e == 1.0:
        return u
    if e == 0.0:
        return 1.0
    if e == -1.0:
        return 1.0 / u
    return u ** e


@njit(cache=True)
def walk_kernel(
    row_ptr,
    col,
    weights,
    has_weights,
    edge_types,
    num_vertices,
    edge_keys,
    codes,
    family,
    slot_prob,
    slot_col,
    slot_alias_col,
    its_cdf,
    its_row_totals,
    return_bias,
    explore_bias,
    max_bias,
    p_inv,
    q_inv,
    second_order,
    needs_prev,
    admissible,
    term_prob,
    max_length,
    starts,
    states,
    paths,
    hops,
    cause,
    counters,
):
    """Run every walker's full walk; fill ``paths``/``hops``/``cause``.

    ``codes`` is the per-vertex strategy map (one column, already
    resolved for the base sampler); ``family`` disambiguates what
    CODE_ITS means.  ``slot_prob``/``slot_col``/``slot_alias_col`` are the
    field views of the packed alias slots: that branch names the next
    vertex itself, every other one a within-row ``choice``.
    ``admissible``/``term_prob`` are the spec's per-step
    hooks evaluated up front (``-1`` = no type constraint).  ``counters``
    receives [proposals, neighbor_reads, rejection_overflow].
    """
    probe_lo = min(1.0, explore_bias) / max_bias if max_bias > 0.0 else 0.0
    probe_hi = max(1.0, explore_bias) / max_bias if max_bias > 0.0 else 0.0
    proposals = np.int64(0)
    reads = np.int64(0)

    for k in range(starts.size):
        state = states[k]
        v = starts[k]
        prev = np.int64(-1)
        paths[k, 0] = v
        h = np.int64(0)
        c = CAUSE_LENGTH
        for step in range(max_length):
            lo = row_ptr[v]
            deg = row_ptr[v + 1] - lo
            if deg == 0:
                c = CAUSE_DANGLING
                break
            pp = prev if needs_prev else np.int64(-1)
            code = codes[v]
            choice = np.int64(-1)
            nxt = np.int64(-1)

            if code == CODE_ONE:
                # Degenerate row: probability 1, zero draws.
                choice = np.int64(0)
                proposals += 1
                reads += 1
            elif code == CODE_UNIFORM:
                state, u = _next_uniform(state)
                choice = _randint(u, deg)
                proposals += 1
                reads += 1
            elif code == CODE_ALIAS:
                state, u1 = _next_uniform(state)
                state, u2 = _next_uniform(state)
                slot = _randint(u1, deg)
                pos = lo + slot
                if u2 < slot_prob[pos]:
                    nxt = np.int64(slot_col[pos])
                else:
                    nxt = np.int64(slot_alias_col[pos])
                proposals += 1
                reads += 2
            elif code == CODE_ITS and family == FAMILY_FIRST:
                # Prepared flat-CDF inverse transform (ITSKernel): count
                # of CDF entries at or below the scaled target.  The CDF
                # is nondecreasing, so entries <= target form a prefix.
                state, u = _next_uniform(state)
                target = u * its_row_totals[v]
                cnt = np.int64(0)
                for i in range(deg):
                    if its_cdf[lo + i] <= target:
                        cnt += 1
                    else:
                        break
                if cnt > deg - 1:
                    cnt = deg - 1
                choice = cnt
                proposals += 1
                reads += cnt + 1
            elif code == CODE_ITS:
                # Bias-adjusted exact scan (BiasedScanKernel).  Pass 1
                # folds the row total left-to-right (identical order to
                # the vectorized per-row cumsum); pass 2 recomputes the
                # running prefix and counts entries <= target.
                if family == FAMILY_REJECTION:
                    scan_p = return_bias
                    scan_q = explore_bias
                    scan_second = True
                    scan_weights = False
                else:
                    scan_p = p_inv
                    scan_q = q_inv
                    scan_second = second_order
                    scan_weights = True
                state, u = _next_uniform(state)
                total = 0.0
                for i in range(deg):
                    pos = lo + i
                    w = weights[pos] if scan_weights and has_weights else 1.0
                    if scan_second and pp >= 0:
                        cand = col[pos]
                        if cand == pp:
                            w = w * scan_p
                        elif not _edge_exists(edge_keys, num_vertices, pp, cand):
                            w = w * scan_q
                    total = total + w
                target = u * total
                run = 0.0
                cnt = np.int64(0)
                for i in range(deg):
                    pos = lo + i
                    w = weights[pos] if scan_weights and has_weights else 1.0
                    if scan_second and pp >= 0:
                        cand = col[pos]
                        if cand == pp:
                            w = w * scan_p
                        elif not _edge_exists(edge_keys, num_vertices, pp, cand):
                            w = w * scan_q
                    run = run + w
                    if run <= target:
                        cnt += 1
                if cnt > deg - 1:
                    cnt = deg - 1
                choice = cnt
                proposals += 1
                reads += deg
            elif code == CODE_REJECTION:
                if pp < 0:
                    # Degenerate-uniform first hop: accepted outright.
                    state, u = _next_uniform(state)
                    choice = _randint(u, deg)
                    proposals += 1
                    reads += 1
                else:
                    prev_deg = row_ptr[pp + 1] - row_ptr[pp]
                    accepted = False
                    for _ in range(_MAX_REJECTION_ROUNDS):
                        state, u1 = _next_uniform(state)
                        prop = _randint(u1, deg)
                        cand = col[lo + prop]
                        state, u = _next_uniform(state)
                        proposals += 1
                        reads += 1
                        if cand == pp:
                            bias = return_bias
                        else:
                            # Honest O(deg(prev)) probe accounting even
                            # though the lookup is a (lazily skipped)
                            # binary search.
                            reads += prev_deg
                            bias = explore_bias
                            if u >= probe_lo and u < probe_hi:
                                if _edge_exists(edge_keys, num_vertices, pp, cand):
                                    bias = 1.0
                        if u < bias / max_bias:
                            choice = prop
                            accepted = True
                            break
                    if not accepted:
                        counters[IDX_REJECTION_OVERFLOW] = 1
                        counters[IDX_PROPOSALS] = proposals
                        counters[IDX_READS] = reads
                        return
            else:  # CODE_RESERVOIR
                at = admissible[step]
                state = state + _GAMMA  # one bump; per-edge values are counter-derived
                advanced = state
                best_key = -1.0
                best_i = np.int64(-1)
                for i in range(deg):
                    pos = lo + i
                    w = weights[pos] if has_weights else 1.0
                    if second_order and pp >= 0:
                        cand = col[pos]
                        if cand == pp:
                            w = w * p_inv
                        elif not _edge_exists(edge_keys, num_vertices, pp, cand):
                            w = w * q_inv
                    ok = True
                    if at >= 0:
                        ok = edge_types[pos] == at
                    if ok and w > 0.0:
                        salt = _mix64(np.uint64(i) + _ELEMENT_GAMMA)
                        u = _to_unit(_mix64(advanced ^ salt))
                        if u == 0.0:
                            u = 5e-324
                        key = _race_key(u, 1.0 / w)
                    else:
                        key = -1.0
                    # >= keeps the LAST max — the vectorized kernel's
                    # segmented argmax gives ties to the later entry.
                    if key >= best_key:
                        best_key = key
                        best_i = i
                if best_key > -0.5:
                    choice = best_i
                proposals += 1
                reads += deg

            if nxt < 0:
                if choice < 0:
                    c = CAUSE_EARLY
                    break
                nxt = col[lo + choice]
            paths[k, step + 1] = nxt
            prev = v
            v = nxt
            h += 1
            tp = term_prob[step]
            if tp > 0.0:
                state, u = _next_uniform(state)
                if u < tp:
                    c = CAUSE_PROBABILISTIC
                    break
        hops[k] = h
        cause[k] = c

    counters[IDX_PROPOSALS] = proposals
    counters[IDX_READS] = reads
