"""Tests for the association measures: direct forms, coordinate forms,
axis limits, axioms and closed-form gradients."""

from __future__ import annotations

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from twobytwo import (
    MarginCoords,
    MeasureKind,
    ProbTable,
    UnsupportedKind,
    corr_r,
    d_prime,
    d_raw,
    entropy,
    entropy_diag,
    eval_in_coords,
    evaluate,
    hs,
    kappa,
    margin_limit,
    mut_inf,
    odds_ratio,
    psi,
    s_mut_inf,
    theta,
    yule_q,
    yule_y,
)
from twobytwo.cli import main
from twobytwo.measures import CLI_NAMES, MEASURES
from conftest import (
    axiom_suite_errors,
    ensure_lambda_above_one,
    kappa_symmetry_violation,
    max_cross_form_errors,
    mp_measures,
    mp_psi_weights,
    random_tables,
    s8_closed_form,
    s9_closed_form,
    s10_closed_form,
)

T = ProbTable(0.4, 0.1, 0.2, 0.3)
MIDPOINT = ProbTable(1, 1, 1, 1)


def diag_table(lam):
    root = math.sqrt(lam)
    return psi(MarginCoords(math.log(root), 0.0, 0.0))


def three_equal_table(lam):
    x = 0.5 * math.log(lam)
    return psi(MarginCoords(x, x, -x))


def mut_inf_oracle(t):
    """Independent summation form: sum p * log2(p / (row * col))."""
    rows = (t.row0, t.row0, t.row1, t.row1)
    cols = (t.col0, t.col1, t.col0, t.col1)
    return sum(p * math.log2(p / (r * c)) for p, r, c in zip(t.cells, rows, cols))


class TestDirectForms:
    def test_odds_ratio(self):
        assert odds_ratio(T) == pytest.approx(6.0, rel=1e-12)

    def test_yule_q(self):
        assert yule_q(T) == pytest.approx(5.0 / 7.0, rel=1e-12)

    def test_yule_y(self):
        root = math.sqrt(6.0)
        assert yule_y(T) == pytest.approx((root - 1.0) / (root + 1.0), rel=1e-12)
        assert yule_y(T) == pytest.approx(0.420204, abs=5e-7)

    def test_d_raw(self):
        assert d_raw(T) == pytest.approx(0.10, abs=1e-15)

    def test_d_prime_positive_case(self):
        # det > 0: D_max = min(row0*col1, col0*row1) = min(0.20, 0.30).
        assert d_prime(T) == pytest.approx(0.5, rel=1e-12)

    def test_d_prime_negative_case(self):
        t = ProbTable(0.1, 0.4, 0.3, 0.2)
        # det = -0.10 < 0: D_max = min(row0*col0, row1*col1) = min(0.2, 0.3).
        assert d_prime(t) == pytest.approx(-0.5, rel=1e-12)

    def test_corr_r(self):
        assert corr_r(T) == pytest.approx(0.1 / math.sqrt(0.06), rel=1e-12)

    def test_mut_inf_against_summation_oracle(self):
        for t in random_tables(300, 31):
            assert mut_inf(t) == pytest.approx(mut_inf_oracle(t), abs=1e-12)

    def test_mut_inf_bounds(self):
        for t in random_tables(1000, 32):
            mi = mut_inf(t)
            assert -1e-12 <= mi <= 1.0 + 1e-12

    def test_s_mut_inf_value_and_sign(self):
        assert s_mut_inf(T) == pytest.approx(0.1245112, abs=5e-7)
        flipped = ProbTable(0.1, 0.4, 0.3, 0.2)
        assert s_mut_inf(flipped) == pytest.approx(-mut_inf(flipped), rel=1e-12)

    def test_s_mut_inf_approaches_one_on_near_diagonal(self):
        eps = 1e-9
        t = ProbTable(0.5 - eps, eps, eps, 0.5 - eps)
        assert s_mut_inf(t) == pytest.approx(1.0, abs=1e-7)

    def test_kappa_examples(self):
        assert kappa(ProbTable(0.45, 0.05, 0.05, 0.45)) == pytest.approx(0.8)
        assert kappa(MIDPOINT) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_examples(self):
        assert entropy(MIDPOINT) == pytest.approx(2.0, abs=1e-12)
        assert entropy(T) == pytest.approx(1.8464393, abs=5e-7)

    def test_entropy_diag_matches_diagonal_representant(self):
        assert entropy_diag(T) == pytest.approx(1.8685894, abs=5e-7)
        assert entropy_diag(T) == pytest.approx(entropy(diag_table(6.0)), abs=1e-10)

    def test_hs_examples(self):
        # Diagonal table: H == Hdiag so HS equals Y.
        assert hs(diag_table(10.0)) == pytest.approx(0.519, abs=1e-3)
        assert hs(three_equal_table(50.0)) == pytest.approx(0.821, abs=1e-3)
        assert hs(T) == pytest.approx(0.388, abs=1e-3)

    def test_hs_with_zero_exponent_is_yule_y(self):
        for t in random_tables(200, 33):
            assert hs(t, 0.0) == yule_y(t)

    @pytest.mark.parametrize("n", [1e10, 1e300, sys.float_info.max])
    @pytest.mark.parametrize("shape", ["T", "L-shaped"])
    def test_hs_at_a_huge_exponent_matches_mpmath(self, shape, n):
        # exp(n * (Hdiag - H)), and at DBL_MAX n * (Hdiag - H) itself, leave
        # the doubles.  |HS| = exp(-exp(g)), g = n (Hdiag - H) + log(-log|Y|),
        # is too far out for mpmath to take both exps, so g is checked: on T
        # (H < Hdiag) |HS| is below half the smallest subnormal and rounds to
        # 0; on an L-shaped table past the magic L (H > Hdiag) it is within
        # 2^-54 of 1 and, as Y > 0, HS rounds to 1.
        t = T if shape == "T" else three_equal_table(50.0)
        with mpmath.workdps(50):
            m = mp_measures(t.cells, dps=50)
            assert m["yule_y"] > 0
            g = n * (m["entropy_diag"] - m["entropy"]) + mpmath.log(-mpmath.log(m["yule_y"]))
            if shape == "T":
                assert g > mpmath.log(1075 * mpmath.log(2))
            else:
                assert g < -54 * mpmath.log(2)
        want = 0.0 if shape == "T" else 1.0
        assert hs(t, n) == want
        assert eval_in_coords(MeasureKind("hs", n), theta(t)) == want
        # The axis limit shares the HS form; its split entropy, at most 1
        # bit, is below Hdiag(x = 1), so it goes to 0 as well.
        assert margin_limit(MeasureKind("hs", n), 1.0, "y", "+", 0.0) == 0.0

    def test_hs_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            hs(T, -1.0)
        with pytest.raises(ValueError):
            hs(T, math.nan)

    def test_table1_spot_values(self):
        assert yule_y(diag_table(5.0)) == pytest.approx(0.382, abs=1e-3)
        assert d_prime(three_equal_table(10.0)) == pytest.approx(0.744, abs=1e-3)
        assert corr_r(three_equal_table(20.0)) == pytest.approx(0.452, abs=1e-3)


class TestMeasureKind:
    def test_every_cli_name_dispatches(self):
        for name in CLI_NAMES:
            kind = MeasureKind.from_cli(name)
            assert kind.cli_name == name
            assert math.isfinite(evaluate(kind, T))

    def test_unknown_cli_name(self):
        with pytest.raises(UnsupportedKind):
            MeasureKind.from_cli("phi")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            MeasureKind("phi")

    def test_hs_kind_validates_n(self):
        with pytest.raises(ValueError):
            MeasureKind("hs", -2.0)

    @pytest.mark.parametrize("tag", [tag for tag in MEASURES if tag != "hs"])
    def test_n_matters_only_to_hs(self, tag):
        a, b = MeasureKind(tag, 2.0), MeasureKind(tag)
        assert a == b and hash(a) == hash(b)
        assert MeasureKind("hs", 2.0) != MeasureKind("hs")

    def test_kappa_on_a_nearly_pure_table_matches_mpmath(self):
        # Chance agreement rounds to 1 on this table; kappa = 2D / (row0 col1
        # + row1 col0) is about 0.5.
        t = ProbTable(1, 1e-300, 1e-300, 1e-300)
        want = mp_measures(t.cells)["kappa"]
        assert abs(kappa(t) - want) <= 1e-10 * abs(want)
        assert evaluate(MeasureKind.from_cli("kappa"), t) == kappa(t)
        result = CliRunner().invoke(
            main, ["measure", "--table", "1,1e-300,1e-300,1e-300", "--measures", "kappa"]
        )
        assert result.exit_code == 0
        assert result.output == "kappa,0.500000\n"

    def test_r_on_a_nearly_pure_table_matches_mpmath(self):
        # row1 * col1 underflows to 0 on this table; r is about 0.5.
        t = ProbTable(1, 1e-300, 1e-300, 1e-300)
        want = mp_measures(t.cells)["corr_r"]
        assert abs(corr_r(t) - want) <= 1e-10 * abs(want)
        result = CliRunner().invoke(
            main, ["measure", "--table", "1,1e-300,1e-300,1e-300", "--measures", "r"]
        )
        assert result.exit_code == 0
        assert result.output == "r,0.500000\n"

    def test_true_overflow_raises_and_cli_exits_cleanly(self):
        # lambda = 1e600 here: past the largest double.
        t = ProbTable(1, 1e-300, 1e-300, 1)
        with pytest.raises(FloatingPointError):
            odds_ratio(t)
        result = CliRunner().invoke(
            main, ["measure", "--table", "1,1e-300,1e-300,1", "--measures", "Y,lambda"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: lambda: overflow encountered in exp\n"

    def test_lambda_overflows_in_both_forms(self):
        # psi takes this point, and 2x = 1.8e308 is past the largest double:
        # the one table and the array column each raise, with lambda's name.
        c = MarginCoords(9.077298877188321e307, 0.0, 400.0)
        kind = MeasureKind("odds_ratio")
        assert psi(c).x == c.x
        message = "^lambda: overflow encountered in multiply$"
        with pytest.raises(FloatingPointError, match=message):
            eval_in_coords(kind, c)
        with pytest.raises(FloatingPointError, match=message):
            kind.on_coords(*(np.array([v]) for v in (c.x, c.y, c.z)))
        # The axis limit is the same function of x, named by the same path:
        # at this x, and at x = 400, where e^2x overflows as at (400, 0, 0).
        with pytest.raises(FloatingPointError, match=message):
            margin_limit(kind, c.x, "y", "+", 0.0)
        for call in (lambda: eval_in_coords(kind, MarginCoords(400.0, 0.0, 0.0)),
                     lambda: margin_limit(kind, 400.0, "y", "+", 0.0)):
            with pytest.raises(FloatingPointError, match="^lambda: overflow encountered in exp$"):
                call()

    @pytest.mark.parametrize("form", ["on_cells", "on_coords"])
    def test_a_floating_point_error_names_the_measure_once(self, form):
        # r at the grid point (1e308, 1e308) of L = 2, where psi_cells
        # overflows, and lambda where it is 1e600, where the kernel does.
        if form == "on_coords":
            kind, args = MeasureKind("corr_r"), (0.5 * math.log(2.0), 1e308, 1e308)
        else:
            t = ProbTable(1, 1e-300, 1e-300, 1)
            kind, args = MeasureKind("odds_ratio"), (t.cells, t.logs, t.x)
        with pytest.raises(FloatingPointError) as info:
            getattr(kind, form)(*args)
        assert str(info.value).startswith(f"{kind.cli_name}: overflow encountered in ")
        assert str(info.value).count(":") == 1


    @pytest.mark.parametrize("x", [1e10, -1e10, 1e16, -1e16, 5e307, -5e307])
    def test_determinant_family_on_a_nearly_diagonal_table(self, x):
        # The table at (x, 0, 0) is nearly (1/2, 0; 0, 1/2) for x > 0, and its
        # mirror for x < 0: D = +-1/4, and D', r and kappa are +-1.
        t = psi(MarginCoords(x, 0.0, 0.0))
        sign = math.copysign(1.0, x)
        assert d_raw(t) == 0.25 * sign
        assert (d_prime(t), corr_r(t), kappa(t)) == (sign, sign, sign)


class TestCoordinateForms:
    def test_cross_form_sweep(self):
        worst = max_cross_form_errors(count=2000, seed=41)
        for tag, err in worst.items():
            assert err < 1e-10, f"{tag}: {err}"

    def test_yule_y_is_tanh_half_x(self):
        c = MarginCoords(0.5 * math.log(6.0), -0.7, 1.3)
        assert eval_in_coords(MeasureKind("yule_y"), c) == pytest.approx(
            math.tanh(0.25 * math.log(6.0)), rel=1e-12
        )

    def test_d_prime_continuous_across_case_switch(self):
        # The D_max case switch sits on y == z (for x > 0); the value must
        # match from both sides even though the slopes differ.
        x = 0.5 * math.log(40.0)
        kind = MeasureKind("d_prime")
        h = 1e-9
        lo = eval_in_coords(kind, MarginCoords(x, 1.0 - h, 1.0))
        at = eval_in_coords(kind, MarginCoords(x, 1.0, 1.0))
        hi = eval_in_coords(kind, MarginCoords(x, 1.0 + h, 1.0))
        assert lo == pytest.approx(at, abs=1e-8)
        assert hi == pytest.approx(at, abs=1e-8)

    def test_d_prime_kink_slopes_differ(self):
        x = 0.5 * math.log(40.0)
        kind = MeasureKind("d_prime")
        h = 1e-6

        def g(s):
            return eval_in_coords(kind, MarginCoords(x, 1.0 + s, 1.0))

        left = (g(0.0) - g(-h)) / h
        right = (g(h) - g(0.0)) / h
        assert abs(left - right) > 1e-3

    def test_extreme_coordinates_stay_finite(self):
        kinds = [MeasureKind(tag) for tag in ("corr_r", "d_prime", "hs", "entropy")]
        for coords in ((400.0, -380.0, 390.0), (-500.0, 500.0, -500.0)):
            c = MarginCoords(*coords)
            for kind in kinds:
                assert math.isfinite(eval_in_coords(kind, c))

    def test_mut_inf_has_a_coordinate_form_and_an_axis_limit(self):
        # Every measure has a coordinate form and an axis limit; MI's is 0.
        assert eval_in_coords(MeasureKind("mut_inf"), MarginCoords(0, 0, 0)) == 0.0
        assert margin_limit(MeasureKind("mut_inf"), 1.0, "y", "+", 0.0) == 0.0


# Margin coordinates over psi's documented domain, |x|, |y|, |z| <= 500.
DOMAIN_COORDS = st.builds(
    MarginCoords, *[st.floats(-500.0, 500.0, allow_nan=False)] * 3
)

# Four inputs at the edge of the manifold, with cells far below the smallest
# double or rounding to 1: name -> (table, its margin coordinates, the true
# table's coordinates or weights).
_FAR, _HIGH, _CORNER = (
    MarginCoords(1.0, 400.0, -400.0),
    MarginCoords(300.0, 200.0, 0.0),
    MarginCoords(500.0, 500.0, 500.0),
)
_PURE = ProbTable(1, 1e-300, 1e-300, 1e-300)
EDGE_CASES = {
    "psi(1, 400, -400)": (psi(_FAR), _FAR, _FAR),
    "psi(300, 200, 0)": (psi(_HIGH), _HIGH, _HIGH),
    "theta(psi(500, 500, 500))": (psi(theta(psi(_CORNER))), theta(psi(_CORNER)), _CORNER),
    "ProbTable(1, 1e-300, 1e-300, 1e-300)": (_PURE, theta(_PURE), (1, 1e-300, 1e-300, 1e-300)),
}

# MI and sMI at psi(1, 400, -400) are 2.3e-347, below the smallest double, but
# the sum of p * ln p terms of about 4e-171 leaves rounding noise of 1e-186.
EDGE_NOISE = {("psi(1, 400, -400)", "mut_inf"), ("psi(1, 400, -400)", "s_mut_inf")}


def outcome(fn):
    """fn(), or the type of the ArithmeticError it raises."""
    try:
        return fn()
    except ArithmeticError as exc:
        return type(exc)


def float_bits(value):
    """The bits of a float outcome, so that 0.0 and -0.0 differ; an error type as it is."""
    return value if isinstance(value, type) else np.float64(value).view(np.int64)


class TestDocumentedDomain:
    """Every measure over |coords| <= 500, and at the edge of the manifold."""

    @given(DOMAIN_COORDS)
    @settings(max_examples=300, deadline=None)
    def test_table_and_coordinates_give_one_value(self, c):
        # The array form (the grids' path) against the point form, which
        # builds psi's table: one value to the bit, sign included, or one
        # error type.
        column = [np.array([v]) for v in (c.x, c.y, c.z)]
        for tag in MEASURES:
            kind = MeasureKind(tag)
            on_array = outcome(lambda: kind.on_coords(*column)[0])
            at_point = outcome(lambda: eval_in_coords(kind, c))
            assert float_bits(on_array) == float_bits(at_point), (tag, on_array, at_point)

    def test_whole_arrays_give_the_values_at_points(self):
        rng = np.random.default_rng(23)
        coords = rng.uniform(-500.0, 500.0, size=(3, 4000))
        # Near independence, where x is a difference of logs near 0.
        coords[0, :1000] = rng.uniform(-1e-6, 1e-6, size=1000)
        points = [MarginCoords(*map(float, column)) for column in coords.T]
        for tag in MEASURES:
            kind = MeasureKind(tag)
            at_points = [outcome(lambda: eval_in_coords(kind, c)) for c in points]
            # An array raises if one of its points does: it takes the rest.
            kept = np.array([not isinstance(v, type) for v in at_points])
            assert kept.sum() >= 3000, tag
            want = np.array([v for v in at_points if not isinstance(v, type)])
            got = kind.on_coords(*coords[:, kept])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), tag

    def test_mi_is_even_and_smi_odd_under_the_row_and_column_swaps(self):
        # psi permutes the cells exactly under each symmetry, and MI adds its
        # margin terms as (row0 + row1) + (col0 + col1), which a swap keeps.
        rng = np.random.default_rng(29)
        x, y, z = rng.uniform(-500.0, 500.0, size=(3, 50_000))
        x[:10_000] = rng.uniform(-1e-6, 1e-6, size=10_000)
        mi, smi = MeasureKind("mut_inf"), MeasureKind("s_mut_inf")
        want_mi, want_smi = mi.on_coords(x, y, z), smi.on_coords(x, y, z)
        # The row swap, the column swap, the transpose and the point reflection.
        for coords, sign in (((-x, -y, z), -1.0), ((-x, y, -z), -1.0),
                             ((x, z, y), 1.0), ((x, -y, -z), 1.0)):
            got_mi, got_smi = mi.on_coords(*coords), smi.on_coords(*coords)
            assert np.array_equal(got_mi.view(np.int64), want_mi.view(np.int64)), sign
            assert np.array_equal(got_smi.view(np.int64), (sign * want_smi).view(np.int64)), sign

    @given(DOMAIN_COORDS)
    @settings(max_examples=300, deadline=None)
    def test_theta_inverts_psi(self, c):
        back = theta(psi(c))
        for got, want in ((back.x, c.x), (back.y, c.y), (back.z, c.z)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (back, c)

    @given(DOMAIN_COORDS)
    @settings(max_examples=300, deadline=None)
    def test_finite_or_a_true_overflow(self, c):
        t = psi(c)
        for tag in MEASURES:
            value = outcome(lambda: evaluate(MeasureKind(tag), t))
            if isinstance(value, type):
                # Only lambda = e^{2x} can pass the largest double.
                assert tag == "odds_ratio" and value is FloatingPointError, (tag, value)
                assert mpmath.exp(2 * mpmath.mpf(c.x)) > sys.float_info.max
            else:
                assert math.isfinite(value), tag

    def test_theta_of_psi_at_the_corner(self):
        back = theta(psi(MarginCoords(500.0, 500.0, 500.0)))
        for v in (back.x, back.y, back.z):
            assert abs(v - 500.0) <= 1e-10 * 500.0

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_tables_match_mpmath(self, case):
        t, coords, truth_at = EDGE_CASES[case]
        if isinstance(truth_at, MarginCoords):
            truth_at = mp_psi_weights(truth_at)
        want = mp_measures(truth_at)
        for tag in MEASURES:
            kind = MeasureKind(tag)
            truth = want[tag]
            for form, fn in (("direct", lambda: evaluate(kind, t)),
                             ("coords", lambda: eval_in_coords(kind, coords))):
                got = outcome(fn)
                if abs(truth) > sys.float_info.max:
                    assert got is FloatingPointError, (tag, form, got)
                elif (case, tag) in EDGE_NOISE:
                    assert 0.0 <= got <= 1e-185, (tag, form, got)
                else:
                    tol = 1e-10 * max(abs(truth), sys.float_info.min)
                    assert abs(got - truth) <= tol, (tag, form, got, truth)


# The measures whose kernels read x, held to 1e-10 relative over the domain.
# MI and sMI are left out: on nearly pure tables their sums of p log p cancel.
X_MEASURES = ("odds_ratio", "yule_q", "yule_y", "d_raw", "d_prime", "corr_r", "kappa",
              "entropy", "entropy_diag", "hs")


def accuracy_points(seed=46):
    """100 seeded points in |coords| <= 20, 100 in <= 500, and 100 near
    independence, |x| <= 1e-6 with |y|, |z| <= 30."""
    rng = np.random.default_rng(seed)
    near = np.column_stack([rng.uniform(-1e-6, 1e-6, 100), rng.uniform(-30, 30, (100, 2))])
    points = np.concatenate([rng.uniform(-20, 20, (100, 3)), rng.uniform(-500, 500, (100, 3)), near])
    return [MarginCoords(*point) for point in points.tolist()]


def oracle_digits(c):
    """40 digits plus the decimal span of the point: of its four cell
    exponents, which the determinant and 1 - chance cancel over, and of
    its coordinates, such as a tiny x beside y + z."""
    exponents = (c.x + c.y + c.z, c.y, c.z, c.x)
    coords = [abs(v) for v in (c.x, c.y, c.z) if v != 0.0]
    span = (max(exponents) - min(exponents)) / math.log(10.0)
    return 40 + math.ceil(span + math.log10(max(coords) / min(coords)))


class TestAccuracyOfTheMeasuresThatReadX:
    def test_relative_error_against_mpmath(self):
        worst = {}
        for c in accuracy_points():
            dps = oracle_digits(c)
            want = mp_measures(mp_psi_weights(c, dps), dps=dps)
            for tag in X_MEASURES:
                truth = want[tag]
                if not sys.float_info.min <= abs(truth) <= sys.float_info.max:
                    continue
                got = outcome(lambda: eval_in_coords(MeasureKind(tag), c))
                if isinstance(got, type):
                    continue
                error = float(abs((got - truth) / truth))
                worst[tag] = max(worst.get(tag, 0.0), error)
                assert error <= 1e-10, (tag, c, got, truth)
        assert set(worst) == set(X_MEASURES)


MI_CANCELS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: MI, and sMI = sign(x) MI, cancel to up to 8e-17 where their limit is 0",
)


class TestMarginLimits:
    def test_d_r_mi_smi_and_kappa_vanish(self):
        for tag in ("d_raw", "corr_r", "mut_inf", "s_mut_inf", "kappa"):
            kind = MeasureKind(tag)
            assert margin_limit(kind, 1.3, "y", "+", -0.4) == 0.0
            assert margin_limit(kind, -2.0, "z", -1, 1.5) == 0.0

    def test_yule_y_is_constant(self):
        x = 0.9
        want = math.tanh(0.5 * x)
        for axis in ("y", "z"):
            for direction in ("+", "-"):
                assert margin_limit(MeasureKind("yule_y"), x, axis, direction, 7.0) == want

    def test_d_prime_example(self):
        # x = ln sqrt(2), y -> +inf, z = -x: (e^{2x}-1)/(e^{2x}+e^{x-x}) = 1/3.
        x = 0.5 * math.log(2.0)
        got = margin_limit(MeasureKind("d_prime"), x, "y", "+", -x)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_hs_limit_below_yule_y_magnitude(self):
        rng = np.random.default_rng(42)
        kind = MeasureKind("hs", 4.0)
        for _ in range(200):
            x = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
            other = rng.uniform(-2.0, 2.0)
            limit = margin_limit(kind, x, "y", "+", other)
            assert abs(limit) < abs(math.tanh(0.5 * x))
            assert math.copysign(1.0, limit) == math.copysign(1.0, x)

    @pytest.mark.parametrize("tag", list(MEASURES))
    def test_limits_match_coordinate_forms_far_out(self, tag):
        rng = np.random.default_rng(43)
        kind = MeasureKind(tag, 4.0)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0)
            other = rng.uniform(-2.0, 2.0)
            for axis in ("y", "z"):
                for s in (1.0, -1.0):
                    want = margin_limit(kind, x, axis, s, other)
                    assert math.isfinite(want)
                    if axis == "y":
                        c = MarginCoords(x, 30.0 * s, other)
                    else:
                        c = MarginCoords(x, other, 30.0 * s)
                    assert eval_in_coords(kind, c) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize(
        "tag", [pytest.param(t, marks=MI_CANCELS) if "mut_inf" in t else t for t in MEASURES]
    )
    def test_limits_at_coordinate_400(self, tag):
        # Nonzero limits to 1e-10 relative; a zero limit to 1e-80 absolute,
        # which D, r and kappa meet by e^-400 and MI and sMI miss by cancellation.
        rng = np.random.default_rng(45)
        kind = MeasureKind(tag)
        for _ in range(50):
            x, other = rng.uniform(-2.0, 2.0, size=2)
            for axis in ("y", "z"):
                for s in (1.0, -1.0):
                    want = margin_limit(kind, x, axis, s, other)
                    c = MarginCoords(x, *((400.0 * s, other) if axis == "y" else (other, 400.0 * s)))
                    got = eval_in_coords(kind, c)
                    bound = 1e-10 * abs(want) if want != 0.0 else 1e-80
                    assert abs(got - want) <= bound, (tag, x, axis, s, other, got, want)

    def test_s_mut_inf_limit_matches_table_form(self):
        kind = MeasureKind("s_mut_inf")
        for x, other in ((1.2, -0.5), (-0.8, 1.7)):
            t = psi(MarginCoords(x, 30.0, other))
            assert evaluate(kind, t) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize(
        "tag,x,axis,direction,other,want",
        [
            # -2|x| overflows in log |e^{2x} - 1|.
            ("d_prime", -1e308, "z", "-", 1e308, -0.5),
            # 2x and x + other both overflow; t = other - x is 0.
            ("d_prime", 1e308, "y", "+", 1e308, 0.5),
            # x + other overflows; the split 1 : e^inf has no entropy.
            ("hs", 1e308, "y", "+", 1e308, 1.0),
            # The same split's entropy is +0.0, as is one of 1 : e^900.
            ("entropy", 1e308, "y", "+", 1e308, 0.0),
            ("entropy", 1.0, "y", "+", 900.0, 0.0),
        ],
    )
    def test_intermediate_overflow_with_a_finite_limit(self, tag, x, axis, direction, other, want):
        got = margin_limit(MeasureKind(tag), x, axis, direction, other)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "x,axis,direction,other,want",
        [
            # 2x overflows; the limit (1 - e^-2x) / (1 + e^(other - x)) is 1.
            (9.1e307, "z", "+", 795.8, 1.0),
            # 2x - (x - other) overflows.
            (8e307, "y", "-", 1e308, 1.0),
            # x - s * other overflows; the limit is -(1 - e^2x) = -1.
            (-9.6e307, "z", "-", -9.2e307, -1.0),
        ],
    )
    def test_d_prime_with_x_near_the_largest_double(self, x, axis, direction, other, want):
        assert margin_limit(MeasureKind("d_prime"), x, axis, direction, other) == want

    @pytest.mark.parametrize("x", [1e7, 1e13, 4e15, 5e15, 1e300, 1e308])
    def test_d_prime_at_other_equal_to_x(self, x):
        # (1 - e^-2x) / (1 + e^(x - x)): no cancellation of 2x against x + other.
        assert margin_limit(MeasureKind("d_prime"), x, "y", "+", x) == 0.5
        assert margin_limit(MeasureKind("d_prime"), -x, "z", "-", x) == -0.5

    def test_d_prime_matches_mpmath_up_to_the_largest_double(self):
        rng = np.random.default_rng(44)

        def magnitude():
            band = rng.integers(3)
            if band == 0:
                return rng.uniform(0.0, 50.0)
            lo, hi = ((-3.0, 20.0), (290.0, 308.25))[band - 1]
            return 10.0 ** rng.uniform(lo, hi)

        kind = MeasureKind("d_prime")
        for _ in range(6000):
            x = float(rng.choice((-1.0, 1.0)) * magnitude())
            axis, direction = str(rng.choice(("y", "z"))), str(rng.choice(("+", "-")))
            s = 1.0 if direction == "+" else -1.0
            if rng.random() < 0.25:
                # t = sign(x) s other - |x| within 30 of 0, where the limit is
                # neither 0 nor +-1.
                shifted = min(abs(x) + float(rng.uniform(-30.0, 30.0)), 1.7e308)
                other = math.copysign(1.0, x) * s * shifted
            else:
                other = float(rng.choice((-1.0, 1.0)) * magnitude())
            got = margin_limit(kind, x, axis, direction, other)
            with mpmath.workdps(50):
                mx, mo = mpmath.mpf(x), mpmath.mpf(other)
                sign = mpmath.sign(mx)
                want = sign * -mpmath.expm1(-2 * abs(mx)) / (1 + mpmath.exp(sign * s * mo - abs(mx)))
                err = abs(got - want)
            if abs(want) < sys.float_info.min:
                assert err <= 1e-300, (x, axis, direction, other, got)
            else:
                assert err <= 1e-12 * abs(want), (x, axis, direction, other, got)

    @pytest.mark.parametrize("tag", list(MEASURES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_or_other_raises_value_error(self, tag, bad):
        # The held coordinate is z along the y axis and y along the z axis.
        kind = MeasureKind(tag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for axis, held in (("y", "z"), ("z", "y")):
                for direction in ("+", "-"):
                    with pytest.raises(ValueError, match="coordinate x must be finite"):
                        margin_limit(kind, bad, axis, direction, 0.5)
                    with pytest.raises(ValueError, match=f"coordinate {held} must be finite"):
                        margin_limit(kind, 0.5, axis, direction, bad)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            margin_limit(MeasureKind("yule_y"), 1.0, "x", "+", 0.0)
        with pytest.raises(ValueError):
            margin_limit(MeasureKind("yule_y"), 1.0, "y", 0, 0.0)

    @pytest.mark.parametrize("direction", [True, False, np.True_, np.False_], ids=repr)
    def test_bool_direction_is_rejected(self, direction):
        # True == 1, but a bool is not a direction.
        with pytest.raises(ValueError, match="direction must be"):
            margin_limit(MeasureKind("d_prime"), 1.0, "y", direction, 0.5)

    def test_sign_and_number_directions_agree(self):
        kind = MeasureKind("d_prime")
        plus = margin_limit(kind, 1.0, "y", "+", 0.5)
        minus = margin_limit(kind, 1.0, "y", "-", 0.5)
        assert plus != minus
        for direction in (1, 1.0, np.int64(1), np.float64(1.0)):
            assert margin_limit(kind, 1.0, "y", direction, 0.5) == plus
        for direction in (-1, -1.0, np.int64(-1)):
            assert margin_limit(kind, 1.0, "y", direction, 0.5) == minus
        # H's limit is the entropy of the split 1 : e^(x + other), 0.589066...
        p = 1.0 / (1.0 + math.exp(1.8))
        want = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
        for direction in ("+", 1, 1.0):
            got = margin_limit(MeasureKind("entropy"), 1.1, "y", direction, 0.7)
            assert got == pytest.approx(want, rel=1e-14) and round(got, 6) == 0.589066


class TestAxioms:
    def test_axiom_suite(self):
        report = axiom_suite_errors(count=2000, seed=44)
        for tag, (indep, mono, transpose, flip) in report.items():
            assert indep < 1e-10, f"{tag} independence: {indep}"
            assert mono > 0.0, f"{tag} monotonicity: {mono}"
            assert transpose < 1e-10, f"{tag} transpose: {transpose}"
            assert flip < 1e-10, f"{tag} sign flip: {flip}"

    def test_kappa_breaks_sign_flip(self):
        assert kappa_symmetry_violation() > 1e-3

    def test_kappa_counterexample(self):
        # Same association strength, different margins, different kappa.
        a = ProbTable(0.45, 0.05, 0.05, 0.45)
        b = psi(MarginCoords(math.log(9.0), 3.0, -3.0))
        assert odds_ratio(a) == pytest.approx(odds_ratio(b), rel=1e-10)
        assert kappa(a) == pytest.approx(0.8)
        assert abs(kappa(a) - kappa(b)) > 0.5

    def test_measures_agree_on_diagonal_tables(self):
        # Y, r, D' and HS all coincide on diagonal-symmetric tables.
        rng = np.random.default_rng(45)
        for _ in range(1000):
            lam = math.exp(rng.uniform(-6.0, 6.0))
            t = diag_table(lam)
            y = yule_y(t)
            assert corr_r(t) == pytest.approx(y, abs=1e-12)
            assert d_prime(t) == pytest.approx(y, abs=1e-12)
            assert hs(t) == pytest.approx(y, abs=1e-12)

    def test_entropy_diag_even_and_decreasing(self):
        xs = [0.1 * i for i in range(1, 60)]
        kind = MeasureKind("entropy_diag")
        values = [eval_in_coords(kind, MarginCoords(x, 0, 0)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))
        for x, v in zip(xs, values):
            assert eval_in_coords(kind, MarginCoords(-x, 0, 0)) == pytest.approx(
                v, abs=1e-12
            )
        assert eval_in_coords(kind, MarginCoords(0, 0, 0)) == pytest.approx(2.0)


def mu_shift(t, mu):
    """Odds-ratio preserving perturbation used in the stationarity checks."""
    return ProbTable(mu * t.p00, t.p01, t.p10, t.p11 / mu)


class TestGradients:
    def test_diagonal_table_is_stationary_under_mu_shift(self):
        t = diag_table(5.0)
        h = 1e-6
        fd = (entropy(mu_shift(t, 1.0 + h)) - entropy(mu_shift(t, 1.0 - h))) / (2 * h)
        assert abs(fd) < 1e-6

    def test_asymmetric_table_is_not_stationary(self):
        h = 1e-6
        fd = (entropy(mu_shift(T, 1.0 + h)) - entropy(mu_shift(T, 1.0 - h))) / (2 * h)
        assert abs(fd) > 1e-3

    def test_closed_form_eps_gradients(self):
        for raw in random_tables(300, 46):
            t = ensure_lambda_above_one(raw)
            h = 1e-5 * min(t.cells)

            def fd(f):
                up = f(ProbTable(t.p00 + h, t.p01 - h, t.p10 - h, t.p11 + h))
                dn = f(ProbTable(t.p00 - h, t.p01 + h, t.p10 + h, t.p11 - h))
                return (up - dn) / (2.0 * h)

            assert fd(entropy_diag) == pytest.approx(s8_closed_form(t), rel=1e-4)
            assert fd(entropy) == pytest.approx(s9_closed_form(t), rel=1e-4)

    def test_s10_identity_and_sign(self):
        for raw in random_tables(500, 47):
            t = ensure_lambda_above_one(raw)
            s10 = s10_closed_form(t)
            assert s10 == pytest.approx(
                s8_closed_form(t) - s9_closed_form(t), abs=1e-10
            )
            assert s10 <= 1e-12

    def test_s10_vanishes_only_on_diagonal(self):
        assert abs(s10_closed_form(diag_table(7.0))) < 1e-12
        assert s10_closed_form(ensure_lambda_above_one(T)) < -1e-6
