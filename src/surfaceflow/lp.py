"""Self-contained simplex solvers over exact integers.

``solve_lp`` maximizes ``c . x`` subject to ``A_ub x <= b_ub``,
``A_eq x = b_eq``, ``x >= 0`` and returns an exactly optimal primal/dual
pair.  The data are the LPs the package poses, the compact edge-flow LP and
the cycle LP: Python ints throughout (0/+-1 rows, integer capacities) with
non-negative right-hand sides.  Both engines and the certificate use the
ints as they are, and every row's slack or artificial starts basic at a
non-negative value.  Neither engine has a phase 1: equality rows must be
node-arc rows with zero right-hand sides (the compact LP's conservation
rows; the cycle LP has none), both engines start from one spanning forest
of them (``_spanning_forest``), and other equality rows are refused.  The
answer stays in ints too: ``x`` is ``X / dx`` and ``y`` is ``Y / dy``, int
numerators over one positive denominator per vector, the least one.  The
float snap works in ints too, so the only rational ``solve_lp`` makes is
the objective value; its callers make a ``QQ`` where a value leaves them.
There are two engines, each with its own tableau code:

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
  tableau is filled with one coordinate assignment per block of rows.  A
  chunk and a block hold at most ``_CHUNK`` entries (or one row), so no
  temporary outgrows a small fixed size or one row.

Either way the result is certified: the returned dual is exactly feasible
with objective equal to the primal's, so optimality never rests on floating
point.  ``check_certificate`` decides this on the answer's ints, so on int
data every test is an integer sum.

An LP of the wrong shape raises ``PreconditionError``: a ``b_ub`` or
``b_eq`` of another length than its rows, or a column outside
``0..len(c) - 1``, found where the forest and the tableau builds read
every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm
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


def solve_lp(c: Sequence[int], A_ub: Sequence[dict], b_ub: Sequence[int],
             A_eq: Sequence[dict] = (), b_eq: Sequence[int] = ()) -> LPResult:
    """Maximize ``c . x`` over the given system; all data Python ints.

    Rows are sparse dicts ``{column: int coefficient}``.  An entry of ``c``,
    ``b_ub`` or ``b_eq`` that is not an ``int`` (a bool, a float, a
    ``Fraction``) raises ``TypeError``.  A negative ``b_ub`` entry, equality
    rows other than node-arc rows with zero right-hand sides (see
    ``_spanning_forest``), an LP of the wrong shape (see the module
    docstring) and unbounded input raise ``PreconditionError``; there is no
    infeasible case, as ``x = 0`` is feasible.
    """
    for v in chain(c, b_ub, b_eq):
        if type(v) is not int:
            raise TypeError("LP data must be ints, got %s %r"
                            % (type(v).__name__, v))
    _check_rhs_lengths(A_ub, b_ub, A_eq, b_eq)
    if min(b_ub, default=0) < 0:
        raise PreconditionError("right-hand sides must be non-negative")
    forest = _spanning_forest(len(c), A_eq, b_eq)

    engine, got = "float+certify", None
    if len(c) > _FLOAT_THRESHOLD:
        got = _float_then_snap(c, A_ub, b_ub, A_eq, b_eq, forest)
    if got is None:
        engine = "exact"
        got = _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, forest)
    X, dx, Y_ub, Y_eq, dy = got
    value = QQ(sum(ci * xi for ci, xi in zip(c, X) if xi), dx)
    return LPResult(X, dx, Y_ub, Y_eq, dy, value, engine)


def _check_rhs_lengths(A_ub, b_ub, A_eq, b_eq) -> None:
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise PreconditionError(
            "%d and %d right-hand sides for %d and %d rows"
            % (len(b_ub), len(b_eq), len(A_ub), len(A_eq)))


def _column_error(n: int) -> PreconditionError:
    return PreconditionError("a row has a column outside 0..%d" % (n - 1))


def _spanning_forest(n: int, A_eq, b_eq) -> tuple:
    """``(tree, head, tail)``: the arcs phase 1 would pivot in, in order,
    and each column's head and tail row (``-1`` for none).

    A nonzero ``b_eq``, or a column with an equality entry besides one
    ``+1`` (its head) and one ``-1`` (its tail), raises
    ``PreconditionError``.  Phase 1 on node-arc rows only grows a spanning
    forest: its reduced costs stay in {-1, 0, 1}, so Dantzig's and Bland's
    rules both pick the lowest column whose head row is unreached and whose
    tail row is reached or absent; it enters at its head row at ratio 0
    with pivot 1 (the only ratio 0 where every ``b_ub`` is positive; the
    forest is a feasible start either way), so the arcs come off a heap of
    column indices.  Unreached rows keep their artificials.
    """
    if any(b_eq):
        raise PreconditionError("equality right-hand sides must be zero")
    head, tail = [-1] * n, [-1] * n
    out = [[] for _ in A_eq]  # the columns leaving each row
    for r, row in enumerate(A_eq):
        for j, v in row.items():
            if not 0 <= j < n:
                raise _column_error(n)
            if v == 1 and head[j] < 0:
                head[j] = r
            elif v == -1 and tail[j] < 0:
                tail[j] = r
                out[r].append(j)
            else:
                raise PreconditionError("equality rows must be node-arc rows")
    # the lowest entering column first; arcs out of no row start the heap
    heap = [j for j, h, t in zip(range(n), head, tail) if h >= 0 > t]
    reached = [False] * len(A_eq)
    tree = []
    while heap:
        j = heappop(heap)
        h = head[j]
        if not reached[h]:
            reached[h] = True
            tree.append(j)
            for k in out[h]:
                if head[k] >= 0 and not reached[head[k]]:
                    heappush(heap, k)
    return tree, head, tail


def check_certificate(c, A_ub, b_ub, A_eq, b_eq, X, dx, Y_ub, Y_eq,
                      dy) -> bool:
    """Exact optimality check of ``x = X / dx`` and ``y = Y / dy``:
    primal/dual feasible with equal objectives.

    ``X``, ``Y_ub`` and ``Y_eq`` are int numerators and ``dx``, ``dy``
    their denominators, as ``LPResult`` holds them.  The tests are
    ``X >= 0``, ``A X <= b dx``, ``Y_ub >= 0``, ``A^T Y >= c dy`` and
    ``c X dy == b Y dx``: integer sums on int data, on any equality rows
    (not only node-arc ones; rational data are decided exactly too, through
    ``Fraction``).  The primal tests come first, so a snapped ``x`` that
    breaks a row is refused before ``y`` is read.  A vector of the wrong
    length or a denominator that is not positive gives ``False``; a
    ``b_ub`` or ``b_eq`` of the wrong length raises ``PreconditionError``.
    Columns are read as given: ``solve_lp`` refuses a bad one before it
    certifies anything.
    """
    _check_rhs_lengths(A_ub, b_ub, A_eq, b_eq)
    n = len(c)
    if (len(X) != n or len(Y_ub) != len(A_ub) or len(Y_eq) != len(A_eq)
            or dx <= 0 or dy <= 0):
        return False
    if min(X, default=0) < 0:
        return False
    for row, b in zip(A_ub, b_ub):
        if sum(coef * X[j] for j, coef in row.items()) > b * dx:
            return False
    for row, b in zip(A_eq, b_eq):
        if sum(coef * X[j] for j, coef in row.items()) != b * dx:
            return False

    if min(Y_ub, default=0) < 0:
        return False
    # dual feasibility per column: A^T y >= c
    col_tot = [0] * n
    for rows, ys in ((A_ub, Y_ub), (A_eq, Y_eq)):
        for row, y in zip(rows, ys):
            if y:
                for j, coef in row.items():
                    col_tot[j] += coef * y
    if any(tot < cj * dy for tot, cj in zip(col_tot, c)):
        return False
    primal = sum(cj * xj for cj, xj in zip(c, X))
    dual = sum(b * y for b, y in zip(b_ub, Y_ub)) + \
        sum(b * y for b, y in zip(b_eq, Y_eq))
    return primal * dy == dual * dx


# ---------------------------------------------------------------------------
# exact integer tableau
# ---------------------------------------------------------------------------

def _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, forest):
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
    n, m_ub, m_eq = len(c), len(A_ub), len(A_eq)
    m = m_ub + m_eq
    art_lo = n + m_ub
    width = art_lo + m_eq + 1  # structural | slacks | artificials | rhs
    tab = []
    for i, (row, b) in enumerate(chain(zip(A_ub, b_ub), zip(A_eq, b_eq))):
        r = [0] * width
        for j, v in row.items():
            if not 0 <= j < n:
                raise _column_error(n)
            r[j] = v
        r[n + i] = 1
        r[-1] = b
        tab.append(r)
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
                g = gcd(d, *r)
                if g > 1:
                    r = [v // g for v in r]
                    d //= g
                tab[i], den[i] = r, d

    tree, head, _ = forest
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

def _simplex_float(c, A_ub, b_ub, A_eq, b_eq, forest):
    n, m_ub, m_eq = len(c), len(A_ub), len(A_eq)
    m = m_ub + m_eq
    art_lo = n + m_ub
    width = art_lo + m_eq + 1  # structural | slacks | artificials | rhs
    # rows 0..m-1 the constraints, row m the objective c
    T = np.zeros((m + 1, width))
    A = list(chain(A_ub, A_eq))
    lens = [len(row) for row in A]
    # the rows' entries as one coordinate assignment per block of rows,
    # at most _CHUNK entries a block (or one row)
    step = max(1, _CHUNK // max(1, *lens))
    for lo in range(0, m, step):
        block, sizes = A[lo:lo + step], lens[lo:lo + step]
        nnz = sum(sizes)
        cols = np.fromiter(chain.from_iterable(block), np.intp, nnz)
        if nnz and (cols.min() < 0 or cols.max() >= n):
            raise _column_error(n)
        T[np.repeat(np.arange(lo, lo + len(block)), sizes), cols] = \
            np.fromiter(chain.from_iterable(row.values() for row in block),
                        float, nnz)
    # row i's slack or artificial is column n + i in either block
    np.fill_diagonal(T[:m, n:n + m], 1.0)
    T[:m, -1] = np.fromiter(chain(b_ub, b_eq), float, m)
    T[m, :n] = c
    basis = np.arange(n, n + m)
    if m_eq:
        _forest_start(T, basis, c, A_ub, forest)
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


def _forest_start(T, basis, c, A_ub, forest) -> None:
    """Put ``T`` and ``basis`` in the state the forest's pivots make: each
    reached row the sum of its subtree's original rows (artificial columns
    included), and every other row, ``c``'s too, less its original entry on
    each tree arc times the arc's row.  Every value is a small int."""
    tree, head, tail = forest
    m_ub, m = len(A_ub), len(T) - 1
    eq = list(T[m_ub:m])  # row views
    # children before parents: each reached row the sum of its subtree's
    for j in reversed(tree):
        if tail[j] >= 0:
            eq[tail[j]] += eq[head[j]]
    # every other row, the objective's too, loses its original entry on
    # each tree arc times the arc's row
    arcs = set(tree)
    for i, row in zip([*range(m_ub), m], [*A_ub, {j: c[j] for j in tree}]):
        for j, a in row.items():
            if a and j in arcs:
                s = eq[head[j]]
                T[i] -= s if a == 1 else a * s
    basis[[m_ub + head[j] for j in tree]] = tree


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


def _float_then_snap(c, A_ub, b_ub, A_eq, b_eq, forest):
    got = _simplex_float(c, A_ub, b_ub, A_eq, b_eq, forest)
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
        if check_certificate(c, A_ub, b_ub, A_eq, b_eq, X, dx, Y_ub, Y_eq,
                             dy):
            return X, dx, Y_ub, Y_eq, dy
    return None
