import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (int_answer, lp_answer, pool_instances, rationals,
                      reference_check_certificate, reference_float_then_snap,
                      reference_ladder, reference_simplex_exact,
                      reference_simplex_float, with_forest)
from surfaceflow import flows, lp
from surfaceflow.errors import PreconditionError
from surfaceflow.instances import (generate_gap_family,
                                   generate_planar_random, generate_torus_grid)
from surfaceflow.lp import (_FLOAT_THRESHOLD, _float_then_snap,
                            _simplex_exact, _simplex_float, _spanning_forest,
                            check_certificate, solve_lp)
from surfaceflow.oracle import DEFAULT_BUDGET, enumerate_d_cycles
from surfaceflow.rational import QQ, rat, rat_str


def exact_engine(*lp_):
    """``_simplex_exact`` from ``lp_``'s spanning forest, as ``solve_lp``
    runs it."""
    return _simplex_exact(*with_forest(*lp_))


def float_engine(*lp_):
    """``_simplex_float`` from ``lp_``'s spanning forest."""
    return _simplex_float(*with_forest(*lp_))


def R(*vals):
    return [rat(v) for v in vals]


# a degenerate LP: three zero right-hand sides tie the ratio tests at 0,
# and Bland's rule must still end, at x5 = 1
DEGENERATE = ([1] * 6, [(0, 3), (1, 3), (2, 3), (0, 1), (1, 2), (3,)],
              [0, 0, 0, 1], None)

# the odd triangle: its one optimum puts 1/2 on each column
TRIANGLE = ([1, 1, 1], [(0, 2), (0, 1), (1, 2)], [1, 1, 1], None)


def torus(seed):
    return generate_torus_grid(6, 6, demands=4, cap_mode="random", seed=seed)


def planar(seed):
    return generate_planar_random(size=40, n_demands=3, cap_mode="random",
                                  seed=seed)


def spied_lp(monkeypatch, solve):
    """The arguments and result of the one LP that ``solve()`` hands
    ``solve_lp`` through ``flows``."""
    got = []

    def spy(c, cols, b_ub, arcs=None):
        args = (c, cols, b_ub, arcs)
        got.append((args, solve_lp(*args)))
        return got[-1][1]

    monkeypatch.setattr(flows, "solve_lp", spy)
    solve()
    (call,) = got
    return call


def compact_lp(monkeypatch, instance):
    """The arguments and result of ``solve_fractional``'s one LP."""
    return spied_lp(monkeypatch, lambda: flows.solve_fractional(instance))


def compact_lps(monkeypatch, instances) -> list:
    """The arguments of ``solve_fractional``'s LP on each instance."""
    got = []

    def spy(*args):
        got.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(flows, "solve_lp", spy)
    for inst in instances:
        flows.solve_fractional(inst)
    return got


# the generator seed of the ``oracle`` pool's (perfbench seed 1) 30-edge
# planar instance with the most D-cycles: its root cycle LP has 1,817 columns
WIDEST_CYCLE_SEED = 939657385


def root_cycle_lp(monkeypatch, seed=7):
    """The arguments and result of the oracle's root cycle LP on a 30-edge
    planar instance of the ``oracle`` mix: at seed 7, 1,029 unit columns,
    30 capacity rows, no arcs."""
    inst = generate_planar_random(size=30, n_demands=3, cap_mode="random",
                                  seed=seed)
    cycle_edges = [tuple(d >> 1 for d in c.darts)
                   for c in enumerate_d_cycles(inst, DEFAULT_BUDGET)]
    return spied_lp(monkeypatch,
                    lambda: flows.cycle_lp(cycle_edges, inst.caps))


def ladder_rungs(args) -> list:
    """The ``(X, dx, Y_ub, Y_eq, dy)`` that ``_float_then_snap`` would
    check at every denominator of its ladder on the LP ``args`` (none when
    the float engine gives up), for a comparison rung by rung."""
    got = float_engine(*args)
    if got is None:
        return []
    xf, yubf, yeqf = got
    yf = [max(v, 0.0) for v in yubf] + yeqf
    rungs, memo = [], {}
    for denom in lp._SNAP_DENOMS:
        X, dx = lp._snap(xf, denom, memo)
        Y, dy = lp._snap(yf, denom, memo)
        rungs.append((X, dx, Y[:len(yubf)], Y[len(yubf):], dy))
    return rungs


def least_ints(X, dx, Y_ub, Y_eq, dy) -> bool:
    """Int numerators over one positive denominator per vector, the least
    one."""
    return (all(type(v) is int for v in (*X, dx, *Y_ub, *Y_eq, dy))
            and dx > 0 and dy > 0 and gcd(dx, *X) == 1
            and gcd(dy, *Y_ub, *Y_eq) == 1)


def answer_of(res) -> tuple:
    return res.X, res.dx, res.Y_ub, res.Y_eq, res.dy


def digest(res):
    """sha256 of the rationals ``X / dx`` and ``Y / dy``, as ``rat_str``."""
    blob = repr([[rat_str(v) for v in vec] for vec in lp_answer(res)])
    return hashlib.sha256(blob.encode()).hexdigest()


class TestExactSimplex:
    # max 3x + 5y  s.t.  x <= 4, y <= 6, x + y <= 8
    LP = ([3, 5], [(0, 2), (1, 2)], [4, 6, 8], None)

    def test_simple_2d(self):
        res = solve_lp(*self.LP)
        assert res.value == rat(36)
        assert lp_answer(res)[0] == R(2, 6)
        assert res.engine == "exact"
        assert least_ints(*answer_of(res))

    def test_duals_satisfy_certificate(self):
        res = solve_lp(*self.LP)
        assert check_certificate(*self.LP, *answer_of(res))
        assert sum(y * bi for y, bi in zip(lp_answer(res)[1], self.LP[2])) \
            == res.value

    def test_fractional_optimum(self):
        # max x + y  s.t.  x <= 1, x + y <= 2: an integral corner; the odd
        # triangle's one optimum is all halves
        res = solve_lp([1, 1], [(0, 1), (1,)], [1, 2])
        assert res.value == rat(2)
        res = solve_lp(*TRIANGLE)
        assert lp_answer(res)[0] == R("1/2", "1/2", "1/2")
        assert res.value == rat("3/2")

    def test_node_arc_equality_row(self):
        # max x + 2y  s.t.  y - x = 0,  x + y <= 3: x runs out of the row,
        # y into it
        lp_ = ([1, 2], [(0,), (0,)], [3], ([-1, 0], [0, -1], 1))
        res = solve_lp(*lp_)
        assert lp_answer(res)[0] == [rat("3/2"), rat("3/2")]
        assert (res.X, res.dx) == ([3, 3], 2)
        assert res.value == rat("9/2")
        assert check_certificate(*lp_, *answer_of(res))

    def test_unbounded(self):
        with pytest.raises(PreconditionError):
            solve_lp([1, 1], [(0,), ()], [5])

    def test_negative_ub_rhs_rejected(self):
        with pytest.raises(PreconditionError):
            solve_lp([1], [(0,)], [-1])

    def test_zero_objective(self):
        res = solve_lp([0, 0], [(0,), (0,)], [2])
        assert res.value == 0

    @pytest.mark.parametrize("where", ["c", "b_ub", "m_eq"])
    @pytest.mark.parametrize("bad", [
        True, 1.0, pytest.param(Fraction(1), id="Fraction")])
    def test_bool_and_float_data_refused(self, where, bad):
        """Only ints: a bool, a float or a ``Fraction``, even an integral
        one, is refused."""
        data = {"c": [1, 1], "b_ub": [2], "m_eq": [1]}
        data[where] = [bad] + data[where][1:]
        with pytest.raises(TypeError):
            solve_lp(data["c"], [(0,), (0,)], data["b_ub"],
                     ([0, -1], [-1, 0], *data["m_eq"]))

    def test_degenerate_does_not_cycle(self):
        # ties at ratio 0 under Bland's rule; it must terminate
        assert solve_lp(*DEGENERATE).value == rat(1)


class TestExactPinned:
    """The exact engine on compact LPs that the pipeline gives the float
    engine: the first 10 seed-1 ``planar`` and ``oracle`` pool instances
    (all but the ``oracle`` pool's two 3x3 tori) and gap n=2.  The sha256
    of its answers, as ``rat_str``, was recorded while it still ran Bland's
    phase 1 over the equality rows: a change to its pivot sequence fails
    here."""

    PINNED = {
        "gap2":
        "148e793b683258c371e76fa2d3ab29d59eaf1e274bb4c290e51d044f5e714f14",
        "oracle":
        "cfcbe2789e7bef2032006bb63548f56372af062c0ee895b1ae189b35726d32ca",
        "planar":
        "cd3f04999476d513c70277478e3513268c3451834aba71e50f2f03384a356355",
    }

    @pytest.mark.parametrize("pool", sorted(PINNED))
    def test_compact_lps_are_pinned(self, monkeypatch, pool):
        if pool == "gap2":
            insts = [generate_gap_family(2)]
        else:
            insts = pool_instances(pool, limit=10)
        lps = compact_lps(monkeypatch, insts)
        assert len(lps) == (1 if pool == "gap2" else 10)
        blob = repr([[[rat_str(v) for v in vec]
                      for vec in rationals(*exact_engine(*args))]
                     for args in lps])
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            self.PINNED[pool]


# a float-engine LP: one row over every column of a width above the
# threshold
WIDE = _FLOAT_THRESHOLD + 1


class TestShape:
    """An LP of the wrong shape is refused; a certificate of the wrong
    length is not certified."""

    @pytest.mark.parametrize("n", [1, WIDE], ids=["exact", "float"])
    @pytest.mark.parametrize("past_end", [True, False],
                             ids=["past-end", "negative"])
    def test_capacity_row_outside_b_ub_refused(self, n, past_end):
        """Row 1 would land in the objective (exact) or the first
        conservation row, row -1 in the objective."""
        cols = [(0,)] * n
        cols[-1] = (0, 1 if past_end else -1)
        with pytest.raises(PreconditionError, match="capacity row"):
            solve_lp([1] * n, cols, [5], ([-1] * n, [-1] * n, 1))

    @pytest.mark.parametrize("n", [1, WIDE], ids=["exact", "float"])
    def test_capacity_row_listed_twice_refused(self, n):
        """A repeated row would be one 1 in the tableau but count twice in
        the certificate."""
        cols = [(0,)] * n
        cols[-1] = (0, 0)
        with pytest.raises(PreconditionError, match="twice"):
            solve_lp([1] * n, cols, [5])

    @pytest.mark.parametrize("end", [1, -2], ids=["past-m_eq", "below-minus-1"])
    @pytest.mark.parametrize("which", ["head", "tail"])
    def test_arc_end_outside_rows_refused(self, end, which):
        """End 1 would land in the objective row or past it, end -2 in the
        last capacity row."""
        arcs = {"head": [0, -1], "tail": [-1, 0]}
        arcs[which][0] = end
        with pytest.raises(PreconditionError, match="arc end"):
            solve_lp([1, 1], [(0,), (0,)], [2],
                     (arcs["head"], arcs["tail"], 1))

    def test_negative_m_eq_refused(self):
        with pytest.raises(PreconditionError, match="arc end"):
            solve_lp([1], [(0,)], [2], ([-1], [-1], -1))

    def test_arc_from_its_head_refused(self):
        """``head == tail`` would put ``+1`` and ``-1`` in one entry; a
        column with no arc has ``-1`` at both ends and is taken."""
        with pytest.raises(PreconditionError, match="head is its tail"):
            solve_lp([1, 1], [(0,), (0,)], [2], ([-1, 0], [-1, 0], 1))
        assert solve_lp([1, 1], [(0,), (0,)], [2],
                        ([-1, -1], [-1, -1], 1)).value == 2

    @pytest.mark.parametrize("which, change", [
        (1, [(0,)] * 3), (1, [(0,)]), (3, ([0], [-1, 0], 1)),
        (3, ([0, -1], [-1, 0, -1], 1))],
        ids=["long-cols", "short-cols", "short-head", "long-tail"])
    def test_column_data_length_refused(self, which, change):
        lp_ = list(self.LP)
        lp_[which] = change
        with pytest.raises(PreconditionError, match="columns"):
            solve_lp(*lp_)
        with pytest.raises(PreconditionError, match="columns"):
            check_certificate(*lp_, *self.CERT)

    # max x0 + x1 s.t. x0 + x1 <= 2, x0 - x1 = 0: x = (1, 1), y = (1, 0)
    LP = ([1, 1], [(0,), (0,)], [2], ([0, -1], [-1, 0], 1))
    CERT = ([1, 1], 1, [1], [0], 1)

    @pytest.mark.parametrize("which, change", [
        (0, [1]), (0, [1, 1, 0]), (2, []), (2, [1, 0]), (3, []),
        (3, [0, 0]), (1, 0), (4, 0), (4, -1)],
        ids=["short-X", "long-X", "short-Y_ub", "long-Y_ub", "short-Y_eq",
             "long-Y_eq", "zero-dx", "zero-dy", "negative-dy"])
    def test_wrong_certificate_shape_not_certified(self, which, change):
        assert check_certificate(*self.LP, *self.CERT)
        cert = list(self.CERT)
        cert[which] = change
        assert not check_certificate(*self.LP, *cert)


# (_UPDATE_BLOCK, _ROW_SPAN, _CHUNK) that force one update form on every
# pivot; None keeps the module's value
UPDATE_FORMS = [(0, 0, None), (0, 10 ** 9, 1), (0, 10 ** 9, None),
                (0, 10 ** 9, 10 ** 9), (10 ** 9, None, None)]
UPDATE_FORM_IDS = ["rows", "row-chunks", "chunks", "one-chunk", "block"]


def update_form(mp, block, row_span, chunk):
    for name, value in (("_UPDATE_BLOCK", block), ("_ROW_SPAN", row_span),
                        ("_CHUNK", chunk)):
        if value is not None:
            mp.setattr(lp, name, value)


class TestFloatPath:
    def test_large_lp_uses_float_warm_start(self):
        # transportation-style LP with > 160 columns: row sums at most
        # 2i + 1, column sums at most 3j + 2
        k = 15
        n = k * k
        c = [(i % 7) + 1 for i in range(n)]
        cols = [(i, k + j) for i in range(k) for j in range(k)]
        b_ub = [2 * i + 1 for i in range(k)] + [3 * j + 2 for j in range(k)]
        res = solve_lp(c, cols, b_ub)
        assert check_certificate(c, cols, b_ub, None, *answer_of(res))
        snapped = _float_then_snap(*with_forest(c, cols, b_ub))
        if snapped is not None:
            X, dx = snapped[:2]
            assert rat(sum(ci * xi for ci, xi in zip(c, X))) / dx == \
                res.value

    def test_rows_without_entries(self):
        """A float-engine LP whose every column is empty: no block of the
        tableau build is sized by a zero column length."""
        res = solve_lp([0] * WIDE, [()] * WIDE, [5],
                       ([-1] * WIDE, [-1] * WIDE, 1))
        assert res.engine == "float+certify" and res.value == 0

    def test_snap_recovers_halves(self):
        got = _float_then_snap(*with_forest(*TRIANGLE))
        assert got is not None
        X, dx = got[:2]
        assert X == [1, 1, 1] and dx == 2
        assert check_certificate(*TRIANGLE, *got)

    def test_snap_makes_no_fraction(self, monkeypatch):
        """The ladder snaps in ints: no rung makes a ``Fraction``."""
        lp_ = with_forest(*compact_lp(monkeypatch, generate_torus_grid(
            4, 4, 3, cap_mode="random", seed=1))[0])
        made, new = [], Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        got = _float_then_snap(*lp_)
        monkeypatch.undo()
        assert made == [] and got is not None and least_ints(*got)

    @settings(max_examples=400, deadline=None, database=None)
    @given(v=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10 ** 6, 10 ** 6).map(float),
        st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 2),
        st.tuples(st.fractions(max_denominator=5000),
                  st.floats(-1e-9, 1e-9)).map(lambda t: float(t[0]) + t[1])),
        denom=st.one_of(st.sampled_from(lp._SNAP_DENOMS),
                        st.integers(1, 10 ** 7)))
    def test_closest_is_limit_denominator(self, v, denom):
        """Each rung's rational, read off the continued fraction in ints,
        is ``Fraction.limit_denominator``'s: negatives, integers and halves
        included, and a tie goes the same way."""
        q = Fraction(v).limit_denominator(denom)
        assert lp._closest(lp._expand(v), denom) \
            == (q.numerator, q.denominator)

    # sha256 of the compact LP's (x, y_ub, y_eq) on 6x6 torus grids, recorded
    # with full dense pivots: a change to the float pivot sequence fails here
    PINNED = {
        0: "0ffb89c03f3ff3495ec471bdcfdf94da18bcbbc7aa6ac11d4c123d0a0b9119d6",
        1: "957978a26da18bd63bf4912a9df3610a4e016db1dbe727447deadae2ff0bc2f4",
    }
    # the same on 40-edge random planar graphs, recorded while the compact
    # LP was still built from rationals
    PLANAR_PINNED = {
        0: "898a153025af1b5245aa9eb48e61c82fe97e0a31e0fa124b3d909b13331016fe",
        1: "9ab0b915b482df3eaa41ecc98a89013dc60501dabbb1c7d33ee2124d138c0a10",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_torus_compact_lp_is_pinned(self, monkeypatch, seed):
        _, res = compact_lp(monkeypatch, torus(seed))
        assert res.engine == "float+certify"
        assert digest(res) == self.PINNED[seed]

    @pytest.mark.parametrize("seed", sorted(PLANAR_PINNED))
    def test_planar_compact_lp_is_pinned(self, monkeypatch, seed):
        _, res = compact_lp(monkeypatch, planar(seed))
        assert res.engine == "float+certify"
        assert digest(res) == self.PLANAR_PINNED[seed]

    # the same for the oracle's root cycle LP, which has no equality rows
    CYCLE_PINNED = \
        "7200c6ad74a78599bd731a01251ac86de1ce62e92fcba9916377822858064cf4"

    def test_root_cycle_lp_is_pinned(self, monkeypatch):
        (c, _, b_ub, arcs), res = root_cycle_lp(monkeypatch)
        assert len(c) > _FLOAT_THRESHOLD and len(b_ub) == 30 and arcs is None
        assert res.engine == "float+certify"
        assert digest(res) == self.CYCLE_PINNED

    @pytest.mark.parametrize("lp_of", ["torus0", "torus1", "planar0",
                                       "planar1", "cycle"])
    def test_snap_ladder_same_as_reference(self, monkeypatch, lp_of):
        """The clamp before the snap and the memo shared by ``x``, ``y_ub``
        and ``y_eq`` give the ladder's rationals on the pinned LPs."""
        if lp_of == "cycle":
            args = root_cycle_lp(monkeypatch)[0]
        else:
            make = torus if lp_of.startswith("torus") else planar
            args = compact_lp(monkeypatch, make(int(lp_of[-1])))[0]
        got = _float_then_snap(*with_forest(*args))
        assert got is not None and least_ints(*got)
        assert rationals(*got) == reference_float_then_snap(*args)

    # 6x6 torus grids whose compact LP has refused rungs: 3 at seed 5, 4
    # at seed 8 (after a certified first rung), 6 at seed 13
    REFUSING = ("torus5", "torus8", "torus13")

    @pytest.mark.parametrize("lp_of", ["torus0", "torus1", "planar0",
                                       "planar1", "cycle", *REFUSING])
    def test_every_rung_same_verdict_as_reference(self, monkeypatch, lp_of):
        """Every rung of the ladder, refused or certified, is the
        reference's rationals over their least denominators, and
        ``check_certificate`` on its ints gives the reference's verdict."""
        if lp_of == "cycle":
            args = root_cycle_lp(monkeypatch)[0]
        else:
            make = torus if lp_of.startswith("torus") else planar
            seed = int(lp_of.removeprefix("torus").removeprefix("planar"))
            args = compact_lp(monkeypatch, make(seed))[0]
        rungs = ladder_rungs(args)
        reference = reference_ladder(*args)
        assert [rationals(*rung) for rung in rungs] == reference
        assert all(least_ints(*rung) for rung in rungs)
        verdicts = [check_certificate(*args, *rung) for rung in rungs]
        assert verdicts == [reference_check_certificate(*args, *rung)
                            for rung in reference]
        assert len(verdicts) == len(lp._SNAP_DENOMS) and any(verdicts)
        assert all(verdicts) == (lp_of not in self.REFUSING)

    @pytest.mark.parametrize("form", UPDATE_FORMS, ids=UPDATE_FORM_IDS)
    def test_each_update_form_keeps_the_pins(self, monkeypatch, form):
        """Every pivot row by row, in chunks of rows (of one row, of the
        default size, or all rows at once), or as one block update: the
        pivot sequence, and so the pinned answers, stay the same."""
        update_form(monkeypatch, *form)
        assert digest(root_cycle_lp(monkeypatch)[1]) == self.CYCLE_PINNED
        assert digest(compact_lp(monkeypatch, torus(0))[1]) == \
            self.PINNED[0]

    @pytest.mark.parametrize("lp_of", ["torus", "planar", "cycle",
                                       "widest-cycle"])
    def test_peak_memory_is_the_tableau(self, monkeypatch, lp_of):
        """One float solve allocates its ``(m + 1) x width`` tableau and at
        most 256 KiB besides: neither the forest, nor the build, nor the
        forest start, nor an update makes a rows x width temporary."""
        if lp_of in ("torus", "planar"):
            make = torus if lp_of == "torus" else planar
            args = compact_lp(monkeypatch, make(0))[0]
        else:
            seed = 7 if lp_of == "cycle" else WIDEST_CYCLE_SEED
            args = root_cycle_lp(monkeypatch, seed)[0]
        c, _, b_ub, arcs = args
        m = len(b_ub) + (arcs[2] if arcs else 0)
        width = len(c) + m + 1
        tracemalloc.start()
        try:
            assert float_engine(*args) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (m + 1) * width * 8 + 256 * 1024

    @pytest.mark.parametrize("make", [torus, planar])
    def test_compact_lp_data_are_ints(self, monkeypatch, make):
        """solve_fractional hands solve_lp no rational: every entry of ``c``,
        ``b_ub``, the columns and the arcs is an int; the answer is ints
        over their least denominators, and only the value is ``QQ``."""
        (c, cols, b_ub, (head, tail, m_eq)), res = compact_lp(monkeypatch,
                                                              make(0))
        data = list(chain(c, b_ub, head, tail, [m_eq], *cols))
        assert data and all(type(v) is int for v in data)
        assert least_ints(*answer_of(res))
        assert type(res.value) is QQ


def by_columns(rows, n) -> list:
    """Each of ``n`` columns' capacity rows, from each row's columns."""
    cols = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(i)
    return [tuple(col) for col in cols]


@st.composite
def network_lps(draw, columns=(_FLOAT_THRESHOLD + 1, _FLOAT_THRESHOLD + 60),
                verts=(8, 40)):
    """An LP with arcs and positive ``b_ub``, so that the forest is where
    the two-phase references' phase 1 ends.  By default it is above
    ``_FLOAT_THRESHOLD``; ``columns`` and ``verts`` bound its size.

    The first vertices are roots with no row, so an arc at a root keeps
    only its other end.  The last vertices are islands that only islands
    point into, so their rows stay unreached.  Some columns have no arc,
    and some repeat or reverse an earlier arc, so parallel and antiparallel
    arcs abound.  The rows come in a drawn order.  The capacity rows have
    0/1 supports, and the last one, over every column, keeps the LP
    bounded; every arc has a nonzero cost.  Hypothesis draws the shape and
    a seed; the entries come from the seed.
    """
    n = draw(st.integers(*columns))
    verts = draw(st.integers(*verts))
    roots = draw(st.integers(1, 4))
    reach = verts - draw(st.integers(0, 4))  # islands from here on
    m_ub = draw(st.integers(0, 8))
    density = draw(st.sampled_from([0.02, 0.1, 0.4]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def allowed(u, v):
        return u != v and (v < reach or u >= reach)

    arcs = []
    while len(arcs) < n:
        kind = rng.random()
        if kind < 0.1:
            arcs.append(None)  # no arc
        elif kind < 0.3 and any(arcs):
            u, v = rng.choice([a for a in arcs if a])
            if kind < 0.2:
                arcs.append((u, v))
            elif allowed(v, u):
                arcs.append((v, u))
        else:
            u, v = rng.randrange(verts), rng.randrange(verts)
            if allowed(u, v):
                arcs.append((u, v))
    order = list(range(roots, verts))
    rng.shuffle(order)
    row_of = {v: i for i, v in enumerate(order)}
    head = [row_of.get(arc[1], -1) if arc else -1 for arc in arcs]
    tail = [row_of.get(arc[0], -1) if arc else -1 for arc in arcs]
    c = [rng.choice((-2, -1, 1, 2)) if arc else rng.choice((0, 1, 2))
         for arc in arcs]
    rows = [[j for j in range(n) if rng.random() < density]
            for _ in range(m_ub)]
    rows.append(range(n))
    b_ub = [rng.randint(1, 3) for _ in range(m_ub)] + [rng.randint(1, 6)]
    return c, by_columns(rows, n), b_ub, (head, tail, len(order))


# the size of the LPs with arcs the exact engine is checked on beside the
# ``QQ`` reference
SMALL_NETWORK = {"columns": (1, 24), "verts": (2, 10)}


@st.composite
def feasible_lps(draw):
    """A small bounded LP without arcs, with 0/1 capacity supports and a
    known feasible point ``x0``; the arcs come from ``network_lps``."""
    n = draw(st.integers(1, 4))
    x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    c = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    rows = [[j for j, on in enumerate(draw(st.lists(
        st.booleans(), min_size=n, max_size=n))) if on]
        for _ in range(draw(st.integers(0, 3)))]
    b_ub = [sum(x0[j] for j in row) + draw(st.integers(0, 2))
            for row in rows]
    rows.append(range(n))  # keeps the LP bounded
    b_ub.append(sum(x0) + 1)
    return c, by_columns(rows, n), b_ub, None


class TestIntegerCertificate:
    """The integer certificate gives the rational reference's verdict."""

    # (c, cols, b_ub, arcs, x, y_ub, y_eq), each failing exactly one test
    # of the certificate, which random mutations rarely isolate
    ONE_FAULT = {
        "negative x": ([0], [(0,)], [0], None, [-1], [0], []),
        "negative y_ub": ([-1], [(0,)], [0], None, [0], [-1], []),
        "inequality row": ([0], [(0,)], [0], None, [1], [0], []),
        "equality row": ([0], [(0,)], [2], ([0], [-1], 1), [1], [0], [0]),
        "dual row": ([1], [(0,)], [0], None, [0], [0], []),
        "dual arc": ([1], [()], [], ([0], [-1], 1), [0], [], [0]),
        "objective": ([1], [(0,)], [1], None, [0], [1], []),
    }

    @pytest.mark.parametrize("denom", [1, 3])
    @pytest.mark.parametrize("halved", [False, True])
    @pytest.mark.parametrize("fault", sorted(ONE_FAULT))
    def test_each_test_alone(self, fault, halved, denom):
        """With the certificate's ints over denominator 1 or 3, and the
        dual's over the same denominator or (halved) over twice it."""
        *lp_, x, y_ub, y_eq = self.ONE_FAULT[fault]
        assert not reference_check_certificate(*lp_, x, y_ub, y_eq)
        dy = 2 * denom if halved else denom
        X = [denom * v for v in x]
        Y_ub, Y_eq = ([dy * v for v in vec] for vec in (y_ub, y_eq))
        assert not check_certificate(*lp_, X, denom, Y_ub, Y_eq, dy)

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(lp=st.one_of(feasible_lps(), network_lps(**SMALL_NETWORK)),
           data=st.data())
    def test_same_verdict_as_reference(self, lp, data):
        """The exact engine's ints are the reference engine's rationals,
        and a mutated certificate gets the reference's verdict."""
        got = exact_engine(*lp)
        assert least_ints(*got)
        x, y_ub, y_eq = rationals(*got)
        assert [x, y_ub, y_eq] == list(reference_simplex_exact(*lp))
        assert check_certificate(*lp, *got)
        assert reference_check_certificate(*lp, x, y_ub, y_eq)

        vecs = {"x": x, "y_ub": y_ub, "y_eq": y_eq}
        name = data.draw(st.sampled_from(
            [k for k in sorted(vecs) if vecs[k]]))
        vec = list(vecs[name])
        i = data.draw(st.integers(0, len(vec) - 1))
        how = data.draw(st.sampled_from(
            ["plus", "minus", "negative", "longer", "shorter"]))
        if how == "plus":
            vec[i] += Fraction(1, 7)
        elif how == "minus":
            vec[i] -= Fraction(1, 7)
        elif how == "negative":
            vec[i] = -abs(vec[i]) - Fraction(1, 7)
        elif how == "longer":
            vec.append(Fraction(1, 7))
        else:
            del vec[i]
        vecs[name] = vec
        cert = (vecs["x"], vecs["y_ub"], vecs["y_eq"])
        assert check_certificate(*lp, *int_answer(*cert)) == \
            reference_check_certificate(*lp, *cert)


@st.composite
def any_lps(draw):
    """``feasible_lps`` or a small ``network_lps`` with, sometimes, the
    bounding row (the last) dropped: the LP may be unbounded.  The drawn
    data keep their degenerate ties."""
    c, cols, b_ub, arcs = draw(st.one_of(
        feasible_lps(), network_lps(**SMALL_NETWORK)))
    if draw(st.booleans()):
        last = len(b_ub) - 1
        cols = [tuple(r for r in rows if r != last) for rows in cols]
        b_ub = b_ub[:-1]
    return c, cols, b_ub, arcs


def outcome(engine, lp):
    """The returned rational vectors, or the refusal's message.  An int
    answer ``(X, dx, Y_ub, Y_eq, dy)`` must be over least denominators and
    is read as its rationals."""
    try:
        got = engine(*lp)
    except PreconditionError as exc:
        return str(exc)
    if len(got) == 5:
        assert least_ints(*got)
        got = rationals(*got)
    return [list(vec) for vec in got]


class TestIntegerTableau:
    """The fraction-free engine against the ``QQ`` tableau it replaced."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(lp=any_lps())
    def test_same_result_as_reference(self, lp):
        assert outcome(exact_engine, lp) == \
            outcome(reference_simplex_exact, lp)

    @pytest.mark.parametrize("lp", [
        DEGENERATE,
        # -x = 0: x runs out of a row no arc reaches, whose artificial stays
        # basic at zero; without the drive-out, x would grow to 3
        ([1], [(0,)], [3], ([-1], [0], 1)),
        # two rows joined by antiparallel arcs and no root: no forest arc,
        # and x0 drives row 1's artificial out
        ([1, 1], [(0,), (0,)], [3], ([0, 1], [1, 0], 2)),
        ([1, 1], [(0,), ()], [5], None),             # unbounded
    ], ids=["degenerate", "drive-out", "rootless-cycle", "unbounded"])
    def test_edge_cases_match_reference(self, lp):
        assert outcome(exact_engine, lp) == \
            outcome(reference_simplex_exact, lp)

    @pytest.mark.parametrize("lp", [
        "compact", ([2, 3], [(0, 1), (0,)], [4, 3], ([-1, 0], [0, -1], 1))],
        ids=["compact", "equality-row"])
    def test_int_data_make_no_fraction(self, monkeypatch, lp):
        """On int data the engine makes no rational: its answer is ints
        over one denominator per vector."""
        if lp == "compact":
            lp = compact_lp(monkeypatch, generate_planar_random(
                size=12, n_demands=3, cap_mode="random", seed=0))[0]
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        got = exact_engine(*lp)
        monkeypatch.undo()
        assert made == [] and least_ints(*got)
        assert any(chain(got[0], got[2], got[3]))
        assert reference_check_certificate(*lp, *rationals(*got))

    @pytest.mark.parametrize("lp_", ["compact", TRIANGLE],
                             ids=["compact", "triangle"])
    def test_pivot_over_one_skips_the_gcd(self, monkeypatch, lp_):
        """A touched row whose new denominator is 1 holds ints over 1, so
        the pivot takes no gcd of it (the row's gcd is the only one with a
        row's width plus one arguments), and the answer is the
        reference's all the same.  The compact LP keeps every row over 1;
        the triangle's halves take some gcds."""
        if lp_ == "compact":
            lp_ = compact_lp(monkeypatch, generate_planar_random(
                size=12, n_demands=3, cap_mode="random", seed=0))[0]
        c, cols, b_ub, arcs = with_forest(*lp_)[:4]
        width = len(c) + len(b_ub) + arcs[2] + 1
        rows = []

        def counting(*args):
            if len(args) == width + 1:
                rows.append(args[0])
            return gcd(*args)

        monkeypatch.setattr(lp, "gcd", counting)
        got = exact_engine(*lp_)
        monkeypatch.undo()
        assert rationals(*got) == reference_simplex_exact(*lp_)
        assert 1 not in rows and bool(rows) == (lp_ is TRIANGLE)


@st.composite
def wide_lps(draw):
    """An LP above ``_FLOAT_THRESHOLD`` without arcs, with 0/1 capacity
    supports, costs in 0..2 and right-hand sides that are often 0, so
    pricing and ratio ties abound; the arcs come from ``network_lps``.

    Hypothesis draws the shape and a seed; the hundreds of entries come
    from the seed.  ``b_ub`` is at or above ``A x0`` for a drawn
    ``x0 >= 0``.
    """
    n = draw(st.integers(_FLOAT_THRESHOLD + 1, _FLOAT_THRESHOLD + 60))
    m_ub = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.02, 0.1, 0.4]))
    bounded = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    x0 = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
    c = [rng.choice((0, 1, 1, 2)) for _ in range(n)]
    rows = [[j for j in range(n) if rng.random() < density]
            for _ in range(m_ub)]
    b_ub = [sum(x0[j] for j in row) + rng.choice((0, 0, 1)) for row in rows]
    if bounded:
        rows.append(range(n))
        b_ub.append(sum(x0) + 1)
    return c, by_columns(rows, n), b_ub, None


def network_lp(n=_FLOAT_THRESHOLD + 10):
    """An LP with arcs that the forest start takes: vertex 0 has no row,
    column ``j`` runs from vertex ``j % 6`` to vertex ``(j + 1) % 6``, and
    one row bounds the total flow."""
    def row(v):
        return v - 1  # vertex 0's row is -1, none

    return ([1 + j % 3 for j in range(n)], [(0,)] * n, [7],
            ([row((j + 1) % 6) for j in range(n)],
             [row(j % 6) for j in range(n)], 5))


class TestFloatTableau:
    """The float engine against the dense-row engine it replaced: the same
    pivots give the same floats, with each update form on its own."""

    @pytest.mark.parametrize("form", [(None, None, None), *UPDATE_FORMS],
                             ids=["default", *UPDATE_FORM_IDS])
    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(lp_=wide_lps())
    def test_same_result_as_reference(self, form, lp_):
        with pytest.MonkeyPatch.context() as mp:
            update_form(mp, *form)
            got = float_engine(*lp_)
        assert got == reference_simplex_float(*lp_)

    def test_network_lp_takes_the_forest_start(self):
        lp_ = network_lp()
        got = float_engine(*lp_)
        assert got is not None and got == reference_simplex_float(*lp_)
        assert solve_lp(*lp_).engine == "float+certify"

    @pytest.mark.parametrize("change", [
        "end-past-rows", "end-below-minus-1", "loop"])
    def test_outside_the_arc_form_refused(self, change):
        c, cols, b_ub, (head, tail, m_eq) = network_lp()
        if change == "end-past-rows":
            head[0] = m_eq  # the objective row
        elif change == "end-below-minus-1":
            tail[1] = -2  # the capacity row
        else:
            tail[2] = head[2]
        with pytest.raises(PreconditionError):
            solve_lp(c, cols, b_ub, (head, tail, m_eq))

    @pytest.mark.parametrize("arc", [0, 5], ids=["tree-arc", "other-arc"])
    def test_zero_b_ub_is_answered_from_the_forest(self, arc):
        """A row ``x[arc] <= 0``: on tree arc 0, phase 1 would pivot on it
        instead (a tie at ratio 0 that the slack's lower index wins); the
        forest is a feasible start all the same.  Either way the certified
        answer has the two-phase reference's value."""
        c, cols, b_ub, arcs = network_lp()
        cols = list(cols)
        cols[arc] += (1,)
        lp_ = (c, cols, b_ub + [0], arcs)
        tree = _spanning_forest(*arcs)
        assert (arc in tree) == (arc == 0)
        x = reference_simplex_exact(*lp_)[0]
        value = sum((ci * xi for ci, xi in zip(c, x)), QQ(0))
        res = solve_lp(*lp_)
        assert res.engine == "float+certify" and res.value == value
        X, dx, *_ = got = exact_engine(*lp_)
        assert check_certificate(*lp_, *got)
        assert QQ(sum(ci * xi for ci, xi in zip(c, X)), dx) == value

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(lp_=st.one_of(wide_lps(), network_lps()))
    def test_snap_ladder_same_as_reference(self, lp_):
        got = _float_then_snap(*with_forest(*lp_))
        if got is not None:
            assert least_ints(*got)
            got = rationals(*got)
        assert got == reference_float_then_snap(*lp_)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(lp_=st.one_of(wide_lps(), network_lps()))
    def test_every_rung_same_verdict_as_reference(self, lp_):
        rungs, reference = ladder_rungs(lp_), reference_ladder(*lp_)
        assert [rationals(*rung) for rung in rungs] == reference
        for rung, ref in zip(rungs, reference):
            assert check_certificate(*lp_, *rung) \
                == reference_check_certificate(*lp_, *ref)


class TestForestStart:
    """Both engines start from the spanning forest.  On LPs with arcs and
    positive ``b_ub`` they give the answers of the two-phase references,
    whose phase 1 pivots: the float engine its floats under each update
    form, the exact engine its rationals."""

    @pytest.mark.parametrize("form", [(None, None, None), *UPDATE_FORMS],
                             ids=["default", *UPDATE_FORM_IDS])
    @settings(max_examples=40, deadline=None, database=None,
              derandomize=True)
    @given(lp_=network_lps())
    def test_same_result_as_reference(self, form, lp_):
        assert min(lp_[2]) > 0
        with pytest.MonkeyPatch.context() as mp:
            update_form(mp, *form)
            got = float_engine(*lp_)
        assert got is not None
        assert got == reference_simplex_float(*lp_)

    @settings(max_examples=20, deadline=None, database=None,
              derandomize=True)
    @given(lp_=network_lps())
    def test_exact_engine_same_as_reference(self, lp_):
        assert outcome(exact_engine, lp_) == \
            outcome(reference_simplex_exact, lp_)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(lp_=network_lps(), change=st.sampled_from(
        ["past-rows", "below-minus-1", "loop"]), data=st.data())
    def test_outside_the_form_refused(self, lp_, change, data):
        """One change takes the arcs out of their form: an end past the
        last row or below -1, or an arc from its head into it."""
        c, cols, b_ub, (head, tail, m_eq) = lp_
        head, tail = list(head), list(tail)
        ends = [(side, j) for side in (head, tail)
                for j, e in enumerate(side) if e >= 0]
        assume(ends)
        side, j = data.draw(st.sampled_from(ends))
        if change == "past-rows":
            side[j] = m_eq + data.draw(st.integers(0, 2))
        elif change == "below-minus-1":
            side[j] = -data.draw(st.integers(2, 4))
        else:
            head[j] = tail[j] = side[j]
        with pytest.raises(PreconditionError, match="arc"):
            solve_lp(c, cols, b_ub, (head, tail, m_eq))
