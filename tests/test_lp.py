import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_check_certificate
from surfaceflow import flows
from surfaceflow.errors import PreconditionError
from surfaceflow.instances import generate_torus_grid
from surfaceflow.lp import (_float_then_snap, _simplex_exact,
                            check_certificate, solve_lp)
from surfaceflow.rational import rat, rat_str


def R(*vals):
    return [rat(v) for v in vals]


def row(**kw):
    return {int(k[1:]): rat(v) for k, v in kw.items()}


class TestExactSimplex:
    def test_simple_2d(self):
        # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
        res = solve_lp(R(3, 5),
                       [row(x0=1), row(x1=2), row(x0=3, x1=2)],
                       R(4, 12, 18))
        assert res.value == rat(36)
        assert res.x == R(2, 6)
        assert res.engine == "exact"

    def test_duals_satisfy_certificate(self):
        c = R(3, 5)
        A = [row(x0=1), row(x1=2), row(x0=3, x1=2)]
        b = R(4, 12, 18)
        res = solve_lp(c, A, b)
        assert check_certificate(c, A, b, [], [], res.x, res.y_ub, res.y_eq)
        assert sum(y * bi for y, bi in zip(res.y_ub, b)) == res.value

    def test_fractional_optimum(self):
        # max x + y  s.t.  2x + y <= 3, x + 2y <= 3  ->  x = y = 1 at corner,
        # then perturb to force a non-integer vertex
        res = solve_lp(R(1, 1), [row(x0=2, x1=1), row(x0=1, x1=2)], R(3, 3))
        assert res.value == rat(2)
        res = solve_lp(R(2, 1), [row(x0=3, x1=1), row(x0=1, x1=3)], R(4, 4))
        assert res.x == [rat(1), rat(1)]
        assert res.value == rat(3)

    def test_equality_rows(self):
        # max x + 2y  s.t.  x + y = 1,  y <= 3/4
        res = solve_lp(R(1, 2), [row(x1=1)], [rat("3/4")],
                       [row(x0=1, x1=1)], R(1))
        assert res.x == [rat("1/4"), rat("3/4")]
        assert res.value == rat("7/4")
        assert check_certificate(R(1, 2), [row(x1=1)], [rat("3/4")],
                                 [row(x0=1, x1=1)], R(1),
                                 res.x, res.y_ub, res.y_eq)

    def test_infeasible_equalities(self):
        with pytest.raises(PreconditionError):
            solve_lp(R(1), [row(x0=1)], R(1),
                     [row(x0=1), row(x0=1)], R(1, 2))

    def test_unbounded(self):
        with pytest.raises(PreconditionError):
            solve_lp(R(1, 1), [row(x0=1)], R(5))

    def test_negative_ub_rhs_rejected(self):
        with pytest.raises(PreconditionError):
            solve_lp(R(1), [row(x0=-1)], R(-1))

    def test_zero_objective(self):
        res = solve_lp(R(0, 0), [row(x0=1, x1=1)], R(2))
        assert res.value == 0

    def test_degenerate_does_not_cycle(self):
        # classic cycling-prone instance (Beale); Bland's rule must terminate
        c = R("3/4", -150, "1/50", -6)
        A = [row(x0="1/4", x1=-60, x2="-1/25", x3=9),
             row(x0="1/2", x1=-90, x2="-1/50", x3=3),
             row(x2=1)]
        b = R(0, 0, 1)
        res = solve_lp(c, A, b)
        assert res.value == rat("1/20")


class TestFloatPath:
    def test_large_lp_uses_float_warm_start(self):
        # transportation-style LP with > 160 columns and a rational optimum
        k = 15
        n = k * k
        c = [rat((i % 7) + 1) for i in range(n)]
        A_ub, b_ub = [], []
        for i in range(k):  # row sums
            A_ub.append({i * k + j: rat(1) for j in range(k)})
            b_ub.append(rat("%d/2" % (2 * i + 1)))
        for j in range(k):  # column sums
            A_ub.append({i * k + j: rat(1) for i in range(k)})
            b_ub.append(rat("%d/3" % (3 * j + 2)))
        res = solve_lp(c, A_ub, b_ub)
        assert check_certificate(c, A_ub, b_ub, [], [],
                                 res.x, res.y_ub, res.y_eq)
        snapped = _float_then_snap(c, A_ub, b_ub, [], [])
        if snapped is not None:
            assert snapped.value == res.value

    def test_snap_recovers_halves(self):
        c = [rat(1)] * 2
        A = [row(x0=2), row(x1=2), row(x0=1, x1=1)]
        b = R(1, 1, 1)
        got = _float_then_snap(c, A, b, [], [])
        assert got is not None
        assert got.value == rat(1)
        assert check_certificate(c, A, b, [], [], got.x, got.y_ub, got.y_eq)

    # sha256 of the compact LP's (x, y_ub, y_eq) on 6x6 torus grids, recorded
    # with full dense pivots: a change to the float pivot sequence fails here
    PINNED = {
        0: "0ffb89c03f3ff3495ec471bdcfdf94da18bcbbc7aa6ac11d4c123d0a0b9119d6",
        1: "957978a26da18bd63bf4912a9df3610a4e016db1dbe727447deadae2ff0bc2f4",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_torus_compact_lp_is_pinned(self, monkeypatch, seed):
        got = []

        def spy(*args):
            got.append(solve_lp(*args))
            return got[-1]

        monkeypatch.setattr(flows, "solve_lp", spy)
        flows.solve_fractional(generate_torus_grid(
            6, 6, demands=4, cap_mode="random", seed=seed))
        (res,) = got
        assert res.engine == "float+certify"
        blob = repr([[rat_str(v) for v in vec]
                     for vec in (res.x, res.y_ub, res.y_eq)])
        assert hashlib.sha256(blob.encode()).hexdigest() == self.PINNED[seed]


FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
COEFS = st.one_of(st.integers(-3, 3), FRACS)


@st.composite
def feasible_lps(draw):
    """A small bounded LP with a known feasible point ``x0``."""
    n = draw(st.integers(1, 4))
    x0 = draw(st.lists(st.fractions(0, 2, max_denominator=6),
                       min_size=n, max_size=n))
    c = [rat(v) for v in draw(st.lists(FRACS, min_size=n, max_size=n))]

    def rows(k):
        return [{j: v for j, v in enumerate(draw(st.lists(
                    COEFS, min_size=n, max_size=n))) if v}
                for _ in range(k)]

    def at(row, x):
        return sum((coef * x[j] for j, coef in row.items()), Fraction(0))

    A_ub = rows(draw(st.integers(0, 3)))
    b_ub = [rat(max(at(row, x0), 0) + draw(st.fractions(0, 2,
                                                          max_denominator=6)))
            for row in A_ub]
    A_ub.append({j: 1 for j in range(n)})  # keeps the LP bounded
    b_ub.append(rat(sum(x0) + 1))
    A_eq = rows(draw(st.integers(0, 2)))
    b_eq = [rat(at(row, x0)) for row in A_eq]
    return c, A_ub, b_ub, A_eq, b_eq


class TestIntegerCertificate:
    """The integer certificate gives the rational reference's verdict."""

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(lp=feasible_lps(), data=st.data())
    def test_same_verdict_as_reference(self, lp, data):
        c, A_ub, b_ub, A_eq, b_eq = lp
        x, y_ub, y_eq = _simplex_exact(c, A_ub, b_ub, A_eq, b_eq)
        assert check_certificate(*lp, x, y_ub, y_eq)
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
        args = (*lp, vecs["x"], vecs["y_ub"], vecs["y_eq"])
        assert check_certificate(*args) == reference_check_certificate(*args)
