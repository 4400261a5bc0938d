"""Self-contained simplex solvers over exact integers.

``solve_lp`` maximizes ``c . x`` subject to ``A x <= b_ub``, ``N x = 0``,
``x >= 0`` and returns an exactly optimal primal/dual pair.  It takes the
one shape of LP the package poses, the compact edge-flow LP and the cycle
LP, by columns: ``A`` is 0/1, column ``j`` having a 1 in each capacity row
that ``cols[j]`` lists, and ``N`` is a node-arc matrix, column ``j`` an
arc with a ``+1`` in conservation row ``head[j]`` and a ``-1`` in row
``tail[j]`` (``-1`` for a missing end), given as ``arcs = (head, tail,
m_eq)`` (the cycle LP has none).  ``c`` and the capacities ``b_ub >= 0``
are Python ints, so every row's slack or artificial starts basic at a
non-negative value.  Neither engine has a phase 1: both start from one
spanning forest of the arcs (``_spanning_forest``).  The answer stays in
ints too: ``x`` is ``X / dx`` and ``y`` is ``Y / dy``, int numerators over
one positive denominator per vector, the least one.  The float snap works
in ints too, so the only rational ``solve_lp`` makes is the objective
value; its callers make a ``QQ`` where a value leaves them.  There are two
engines, each with its own tableau code, filled from the columns:

- Bland's rule from the forest (the reference path, immune to cycling) on
  a fraction-free tableau: each row is a list of int numerators over one
  positive denominator, and a pivot makes the exact steps of a ``QQ``
  tableau (integer-preserving elimination, Edmonds 1967, Bareiss 1968), so
  no rational is made at all: the answer is read off the rows' numerators
  and denominators;
- a numpy float simplex on the same tableau layout, used as a warm start on
  larger problems: its solution is snapped, one distinct value at a time, to
  small-denominator rationals put over one denominator per vector (each
  value's continued fraction is expanded once, in ints, and read at every
  rung of the denominator ladder, as ``Fraction.limit_denominator`` would
  answer), and accepted only when exact primal feasibility, exact dual feasibility and
  exact objective equality all hold, otherwise the exact engine runs.
  ``_forest_start`` builds the tableau of the forest's pivots directly.
  The objective row ``c`` sits under the constraints, so a pivot is one
  rank-1 update of the touched entries: the rows with a nonzero in the
  entering column, ``c`` included, times the nonzero columns of the pivot
  row, which is divided in place.  Up to ``_UPDATE_BLOCK`` entries that is
  one fancy-indexed subtraction.  A larger update covers the pivot row's
  nonzero column span only: over chunks of the touched rows when the span
  is at most ``_ROW_SPAN`` columns, one row at a time in place when it is
  wider.  Every form gives each touched entry
  ``T[i, j] - T[i, pc] * prow[j]``, and every other entry would only
  subtract zero, so the pivot sequence is that of a full dense update.  The
  capacity block is filled with one coordinate assignment per block of
  columns.  A chunk and a block hold at most ``_CHUNK`` entries (or one
  row or column), so no temporary outgrows a small fixed size or one row.

Either way the result is certified: the returned dual is exactly feasible
with objective equal to the primal's, so optimality never rests on floating
point.  ``check_certificate`` decides this on the answer's ints, so every
test is an integer sum.

An LP of the wrong shape raises ``PreconditionError``: ``cols``, ``head``
or ``tail`` of another length than ``c``, an arc end outside
``0..m_eq - 1``, an arc whose head is its tail, or a capacity row outside
``0..len(b_ub) - 1`` or listed twice in a column, found where the tableau
builds read every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, count
from math import gcd, lcm
from operator import eq, mul
from typing import Sequence

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .rational import QQ


_FLOAT_THRESHOLD = 160  # structural columns above which the warm start runs
# entries (touched rows x nonzero pivot-row columns) up to which a pivot is
# one fancy-indexed update
_UPDATE_BLOCK = 4096
# columns of the pivot row's nonzero span above which a larger update goes
# row by row in place: a fancy-indexed chunk copies its rows out and back,
# which costs more than one call per row once rows are this wide
_ROW_SPAN = 1024
# entries per chunk of rows of a larger update over a narrower span, and
# per block of rows of the tableau build
_CHUNK = 8192
_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 12, 24, 48, 60, 120, 360, 2520, 10 ** 4, 10 ** 6)


@dataclass
class LPResult:
    """An optimal primal/dual pair in ints, and the value.

    The primal is ``x[j] = X[j] / dx`` and the duals of the two row blocks
    are ``y_ub[i] = Y_ub[i] / dy`` and ``y_eq[i] = Y_eq[i] / dy``: int
    numerators over one positive denominator per vector (``Y_ub`` and
    ``Y_eq`` share ``dy``), the least one, so ``gcd(dx, *X) == 1`` and
    ``gcd(dy, *Y_ub, *Y_eq) == 1``.  ``value`` is the one ``QQ``,
    ``c . X / dx``; ``engine`` names the engine that answered.
    """

    X: list
    dx: int
    Y_ub: list
    Y_eq: list
    dy: int
    value: object
    engine: str


def solve_lp(c: Sequence[int], cols: Sequence[tuple], b_ub: Sequence[int],
             arcs: tuple | None = None) -> LPResult:
    """Maximize ``c . x`` over the LP given by its columns (see the module
    docstring); all data Python ints.

    ``cols[j]`` lists column ``j``'s capacity rows, each once, and
    ``arcs``, ``(head, tail, m_eq)`` or ``None`` for no conservation rows,
    gives its arc.  An entry of ``c`` or ``b_ub``, or an ``m_eq``, that is
    not an ``int`` (a bool, a float, a ``Fraction``) raises ``TypeError``.
    A negative ``b_ub`` entry, an LP of the wrong shape (see the module
    docstring) and unbounded input raise ``PreconditionError``; there is no
    infeasible case, as ``x = 0`` is feasible.
    """
    given = arcs is not None
    arcs = _arcs(len(c), cols, arcs)
    for v in chain(c, b_ub, arcs[2:]):
        if type(v) is not int:
            raise TypeError("LP data must be ints, got %s %r"
                            % (type(v).__name__, v))
    if min(b_ub, default=0) < 0:
        raise PreconditionError("right-hand sides must be non-negative")
    if given:
        _check_ends(*arcs)
    tree = _spanning_forest(*arcs)

    engine, got = "float+certify", None
    if len(c) > _FLOAT_THRESHOLD:
        got = _float_then_snap(c, cols, b_ub, arcs, tree)
    if got is None:
        engine = "exact"
        got = _simplex_exact(c, cols, b_ub, arcs, tree)
    X, dx, Y_ub, Y_eq, dy = got
    value = QQ(sum(ci * xi for ci, xi in zip(c, X) if xi), dx)
    return LPResult(X, dx, Y_ub, Y_eq, dy, value, engine)


def _arcs(n: int, cols, arcs) -> tuple:
    """``arcs``, or for ``None`` the missing arcs of ``n`` columns over no
    conservation row; per-column data of another length than ``c`` raise
    ``PreconditionError``."""
    if arcs is None:
        arcs = ([-1] * n, [-1] * n, 0)
    head, tail, _ = arcs
    if len(cols) != n or len(head) != n or len(tail) != n:
        raise PreconditionError(
            "%d costs, but %d, %d and %d columns of rows, heads and tails"
            % (n, len(cols), len(head), len(tail)))
    return arcs


def _check_ends(head, tail, m_eq) -> None:
    """Refuse an arc end outside ``0..m_eq - 1`` and an arc whose head is
    its tail."""
    if m_eq < 0 or head and (min(head) < -1 or min(tail) < -1
                             or max(head) >= m_eq or max(tail) >= m_eq):
        raise PreconditionError("an arc end outside 0..%d" % (m_eq - 1))
    # a column without an arc has -1 at both ends
    if any(map(eq, head, tail)) and any(
            h == t >= 0 for h, t in zip(head, tail)):
        raise PreconditionError("an arc's head is its tail")


def _row_error(m_ub: int) -> PreconditionError:
    return PreconditionError("a column lists a capacity row outside 0..%d "
                             "or twice" % (m_ub - 1))


def _spanning_forest(head, tail, m_eq) -> list:
    """The arcs phase 1 would pivot in, in order.

    Phase 1 on node-arc rows only grows a spanning forest: its reduced
    costs stay in {-1, 0, 1}, so Dantzig's and Bland's rules both pick the
    lowest column whose head row is unreached and whose tail row is reached
    or absent; it enters at its head row at ratio 0 with pivot 1 (the only
    ratio 0 where every ``b_ub`` is positive; the forest is a feasible
    start either way), so the arcs come off a heap of column indices.
    Unreached rows keep their artificials.
    """
    if not m_eq:
        return []
    # the columns leaving each row; slot m_eq, end -1, gets those leaving
    # no row, which start the heap, lowest entering column first
    out = [[] for _ in range(m_eq + 1)]
    for j, t in enumerate(tail):
        out[t].append(j)
    reached = [False] * m_eq + [True]  # an arc into no row never enters
    heap = out[-1]
    tree = []
    while heap:
        j = heappop(heap)
        h = head[j]
        if not reached[h]:
            reached[h] = True
            tree.append(j)
            for k in out[h]:
                if not reached[head[k]]:
                    heappush(heap, k)
    return tree


def check_certificate(c, cols, b_ub, arcs, X, dx, Y_ub, Y_eq, dy) -> bool:
    """Exact optimality check of ``x = X / dx`` and ``y = Y / dy``:
    primal/dual feasible with equal objectives.

    The LP is given as ``solve_lp`` takes it, and ``X``, ``Y_ub`` and
    ``Y_eq`` are int numerators and ``dx``, ``dy`` their denominators, as
    ``LPResult`` holds them.  The tests are ``X >= 0``, ``A X <= b dx``
    and ``N X = 0``, summed over the support of ``X``, then ``Y_ub >= 0``,
    ``A^T Y_ub + N^T Y_eq >= c dy``, one column at a time, and
    ``c X dy == b Y_ub dx``: integer sums on int data.  The primal tests
    come first, so a snapped ``x`` that breaks a row is refused before
    ``y`` is read.  A vector of the wrong length or a denominator that is
    not positive gives ``False``; per-column data of another length than
    ``c`` raise ``PreconditionError``.  Rows and arc ends are read as
    given: ``solve_lp`` refuses a bad one before it certifies anything.
    """
    n = len(c)
    head, tail, m_eq = _arcs(n, cols, arcs)
    if (len(X) != n or len(Y_ub) != len(b_ub) or len(Y_eq) != m_eq
            or dx <= 0 or dy <= 0):
        return False
    if min(X, default=0) < 0:
        return False
    # a missing arc end (-1) lands in the last slot of net, which no row
    # reads
    load, net = [0] * len(b_ub), [0] * (m_eq + 1)
    for j in compress(range(n), X):
        x = X[j]
        for r in cols[j]:
            load[r] += x
        net[head[j]] += x
        net[tail[j]] -= x
    if any(net[:m_eq]) or any(v > b * dx for v, b in zip(load, b_ub)):
        return False

    if min(Y_ub, default=0) < 0:
        return False
    # dual feasibility per column: A^T y >= c, where a missing end's price
    # is the last slot's 0; the capacity prices are summed only when the
    # arc's prices leave a need, as they are non-negative
    price = Y_ub.__getitem__
    ends = [*Y_eq, 0]
    for rows, h, t, cj in zip(cols, head, tail, c):
        need = cj * dy - ends[h] + ends[t]
        if need > 0 and sum(map(price, rows)) < need:
            return False
    return sum(map(mul, c, X)) * dy == sum(map(mul, b_ub, Y_ub)) * dx


# ---------------------------------------------------------------------------
# exact integer tableau
# ---------------------------------------------------------------------------

def _simplex_exact(c, cols, b_ub, arcs, tree):
    """Bland's rule from the spanning forest on a fraction-free tableau.

    Row ``i`` holds the rationals ``tab[i][j] / den[i]``: int numerators
    over one positive denominator, kept reduced by the gcd of the row.  On
    the int data every row starts over denominator 1, with its slack or
    artificial basic at the non-negative right-hand side.  A pivot
    normalizes the pivot row to ``P / dp`` and turns every row ``R / dr``
    with ``R[pc] != 0``, the objective row included, into
    ``(R * dp - R[pc] * P) / (dr * dp)``; the arithmetic is exact, so the
    pivots are those of the ``QQ`` tableau, the forest's at their head rows.
    Signs are read on numerators and the ratio test cross-multiplies (row
    denominators cancel), so no rational is made: the answer is
    ``(X, dx, Y_ub, Y_eq, dy)``, each vector over its least denominator.
    """
    head, tail, m_eq = arcs
    n, m_ub = len(c), len(b_ub)
    m = m_ub + m_eq
    art_lo = n + m_ub
    width = art_lo + m_eq + 1  # structural | slacks | artificials | rhs
    tab = [[0] * width for _ in range(m)]
    for j, rows in enumerate(cols):
        for r in rows:
            if not 0 <= r < m_ub or tab[r][j]:
                raise _row_error(m_ub)
            tab[r][j] = 1
    eq = tab[m_ub:] + [[0] * width]  # the last row takes missing ends
    for j, h, t in zip(count(), head, tail):
        eq[h][j] = 1
        eq[t][j] = -1
    for i, r in enumerate(tab):
        r[n + i] = 1
    for r, b in zip(tab, b_ub):
        r[-1] = b  # the conservation rows' right-hand sides stay 0
    basis = list(range(n, n + m))
    tab.append(list(c) + [0] * (width - n))  # row m: the objective
    den = [1] * (m + 1)

    def pivot(pr, pc):
        p = tab[pr]
        if p[pc] < 0:
            p = [-v for v in p]
        g = gcd(*p)
        if g > 1:
            p = [v // g for v in p]
        tab[pr] = p
        dp = den[pr] = p[pc]
        nz = [(j, w) for j, w in enumerate(p) if w]
        for i, r in enumerate(tab):
            a = r[pc]
            if a and i != pr:
                if dp != 1:
                    r = [v * dp for v in r]
                for j, w in nz:
                    r[j] -= a * w
                d = den[i] * dp
                if d != 1:  # over 1 the entries are ints: the gcd is 1
                    g = gcd(d, *r)
                    if g > 1:
                        r = [v // g for v in r]
                        d //= g
                tab[i], den[i] = r, d

    for j in tree:
        pivot(m_ub + head[j], j)
        basis[m_ub + head[j]] = j
    for _ in range(200000):
        # Bland: the first column with a positive reduced cost; artificials
        # never enter
        obj = tab[m]
        enter = next((j for j in range(art_lo) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            r = tab[i]
            a = r[enter]
            if a > 0:
                # r[-1] / a < rhs / piv, ties to the smaller basis index
                t = r[-1] * piv - rhs * a if leave >= 0 else -1
                if t < 0 or (t == 0 and basis[i] < basis[leave]):
                    leave, rhs, piv = i, r[-1], a
            elif a < 0 and basis[i] >= art_lo and r[-1] == 0:
                # drive a zero-valued artificial out rather than let it
                # grow positive: rows no arc reaches keep theirs
                leave = i
                break
        if leave < 0:
            raise PreconditionError("LP is unbounded")
        pivot(leave, enter)
        basis[leave] = enter
    else:
        raise InternalInvariantError("simplex iteration guard tripped")

    # x[j] is the right-hand side of its basic row over the row's
    # denominator; y = -(reduced costs of the slacks and artificials)
    dx = lcm(*[den[i] for i, j in enumerate(basis) if j < n])
    X = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            X[j] = tab[i][-1] * (dx // den[i])
    X, dx = _lowest(X, dx)
    Y, dy = _lowest([-v for v in tab[m][n:-1]], den[m])
    return X, dx, Y[:m_ub], Y[m_ub:], dy


def _lowest(nums: list, d: int) -> tuple:
    """``nums / d`` as numerators over the least common denominator."""
    g = gcd(d, *nums)
    return ([v // g for v in nums], d // g) if g > 1 else (nums, d)


# ---------------------------------------------------------------------------
# float warm start
# ---------------------------------------------------------------------------

def _simplex_float(c, cols, b_ub, arcs, tree):
    head, tail, m_eq = arcs
    n, m_ub = len(c), len(b_ub)
    m = m_ub + m_eq
    art_lo = n + m_ub
    width = art_lo + m_eq + 1  # structural | slacks | artificials | rhs
    # rows 0..m-1 the constraints, row m the objective c
    T = np.zeros((m + 1, width))
    # the capacity block's 1s as one coordinate assignment per block of
    # columns, at most _CHUNK entries a block (or one column)
    lens = list(map(len, cols))
    step = max(1, _CHUNK // max(1, max(lens, default=0)))
    for lo in range(0, n, step):
        sizes = lens[lo:lo + step]
        nnz = sum(sizes)
        rows = np.fromiter(chain.from_iterable(cols[lo:lo + step]), np.intp,
                           nnz)
        if nnz and (rows.min() < 0 or rows.max() >= m_ub):
            raise _row_error(m_ub)
        # added, not assigned, so that a row listed twice shows as a 2
        where = (rows, np.repeat(np.arange(lo, lo + len(sizes)), sizes))
        np.add.at(T, where, 1.0)
        if nnz and T[where].max() > 1.0:
            raise _row_error(m_ub)
    if m_eq:
        js = np.arange(n)
        for ends, v in ((head, 1.0), (tail, -1.0)):
            ends = np.fromiter(ends, np.intp, n)
            some = ends >= 0
            T[m_ub + ends[some], js[some]] = v
    # row i's slack or artificial is column n + i in either block
    np.fill_diagonal(T[:m, n:n + m], 1.0)
    T[:m_ub, -1] = np.fromiter(b_ub, float, m_ub)
    T[m, :n] = c
    basis = np.arange(n, n + m)
    if tree:
        _forest_start(T, basis, c, cols, arcs, tree)
    tol = 1e-9
    rhs = T[:m, -1]
    obj = T[m, :art_lo]  # the artificials never enter
    for it in range(60000):
        if it % 997 < 30:  # periodic Bland steps to break potential cycling
            enter = int((obj > tol).argmax())
        else:
            enter = int(obj.argmax())
        if obj[enter] <= tol:
            break
        # the entering column, read once: the pivot row's division leaves
        # every other row's entry as it is
        coefs = T[:, enter].copy()
        col = coefs[:m]
        cand = (col > tol).nonzero()[0]
        if not cand.size:
            return None  # unbounded direction; let exact engine decide
        leave = int(cand[(rhs[cand] / col[cand]).argmin()])
        prow = T[leave]
        prow /= prow[enter]
        coefs[leave] = 0.0
        rows = coefs.nonzero()[0]
        coefs = coefs[rows]
        cols = prow.nonzero()[0]
        if rows.size * cols.size <= _UPDATE_BLOCK:
            T[rows[:, None], cols] -= coefs[:, None] * prow[cols]
        else:
            # over the pivot row's nonzero span only
            lo, hi = cols[0], cols[-1] + 1
            span = prow[lo:hi]
            if hi - lo > _ROW_SPAN:
                for i, a in zip(rows.tolist(), coefs.tolist()):
                    T[i, lo:hi] -= a * span
            else:
                step = max(1, _CHUNK // (hi - lo))
                for r in range(0, rows.size, step):
                    T[rows[r:r + step], lo:hi] -= \
                        coefs[r:r + step, None] * span
        basis[leave] = enter
    else:
        return None  # the iteration guard
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = rhs[structural]
    # y = -(reduced costs of the slacks and artificials)
    return x.tolist(), (-T[m, n:art_lo]).tolist(), \
        (-T[m, art_lo:-1]).tolist()


def _forest_start(T, basis, c, cols, arcs, tree) -> None:
    """Put ``T`` and ``basis`` in the state the forest's pivots make: each
    reached row the sum of its subtree's original rows (artificial columns
    included), and every other row, ``c``'s too, less its original entry on
    each tree arc times the arc's row.  Every value is a small int, so the
    order of the sums does not matter."""
    head, tail, m_eq = arcs
    m = len(T) - 1
    eq = list(T[m - m_eq:m])  # row views
    # children before parents: each reached row the sum of its subtree's
    for j in reversed(tree):
        if tail[j] >= 0:
            eq[tail[j]] += eq[head[j]]
    # each tree arc's capacity rows, and the objective if the arc has a
    # cost, lose the arc's row
    for j in tree:
        s = eq[head[j]]
        for r in cols[j]:
            T[r] -= s
        if c[j]:
            T[m] -= c[j] * s
    basis[[m - m_eq + head[j] for j in tree]] = tree


def _expand(v: float) -> tuple:
    """``(n, N, steps)``: the float ``v`` as ``n / N`` in lowest terms, and
    the steps of its continued fraction as ``Fraction.limit_denominator``
    walks them, one ``(q2, p0, q0, p1, q1, d)`` per step: the convergents
    ``p0/q0`` and ``p1/q1`` before the step, the remainder's denominator
    ``d`` and the next convergent's denominator ``q2``.  The last ``q2``
    is ``N``."""
    n, N = v.as_integer_ratio()
    steps = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, d = n, N
    while d:
        t = a // d
        q2 = q0 + t * q1
        steps.append((q2, p0, q0, p1, q1, d))
        p0, q0, p1, q1 = p1, q1, p0 + t * p1, q2
        a, d = d, a - t * d
    return n, N, steps


def _closest(expansion: tuple, denom: int) -> tuple:
    """``Fraction(v).limit_denominator(denom)`` as ``(numerator,
    denominator)``, read off ``_expand(v)``: the last convergent within
    ``denom`` or the semiconvergent past it, whichever is closer to ``v``,
    the convergent on a tie."""
    n, N, steps = expansion
    if N <= denom:
        return n, N
    for q2, p0, q0, p1, q1, d in steps:
        if q2 > denom:
            break
    k = (denom - q0) // q1
    # the two candidates lie on either side of v, 1 / (q1 (q0 + k q1))
    # apart, and the convergent is d / (q1 N) from v
    if 2 * d * (q0 + k * q1) <= N:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _snap(values, denom, memo):
    """The closest rationals with denominator at most ``denom``, as
    ``(numerators, their least common denominator)``.  Each distinct value
    is snapped once (most entries are 0, 1 or a half), from its
    continued fraction, which ``memo`` keeps for every rung."""
    snapped = {}
    for v in set(values):
        ex = memo.get(v)
        if ex is None:
            ex = memo[v] = _expand(v)
        snapped[v] = _closest(ex, denom)
    d = lcm(*[q for _, q in snapped.values()])
    num = {v: p * (d // q) for v, (p, q) in snapped.items()}
    return [num[v] for v in values], d


def _float_then_snap(c, cols, b_ub, arcs, tree):
    got = _simplex_float(c, cols, b_ub, arcs, tree)
    if got is None:
        return None
    xf, yubf, yeqf = got
    # a negative float snaps to a rational <= 0 (0 is closer than any
    # positive one), so clamping first gives the same prices as clamping
    # the snapped ones
    yf = [max(v, 0.0) for v in yubf] + yeqf
    m_ub = len(yubf)
    memo = {}
    for denom in _SNAP_DENOMS:
        X, dx = _snap(xf, denom, memo)
        Y, dy = _snap(yf, denom, memo)
        Y_ub, Y_eq = Y[:m_ub], Y[m_ub:]
        if check_certificate(c, cols, b_ub, arcs, X, dx, Y_ub, Y_eq, dy):
            return X, dx, Y_ub, Y_eq, dy
    return None
