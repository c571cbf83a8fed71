"""Association measures on 2x2 probability tables.

``MEASURES`` is the one list of measures.  Each record holds the one formula
of its measure, a numpy kernel of (p, l, x, n), broadcast over arrays: the
four normalised cells ``p``, their exact natural logs ``l`` (``p`` may be
rounded to a subnormal, ``l`` is not), x = ln sqrt(odds-ratio) as the
``tables`` producer of the cells gives it, and the HS exponent ``n``.
lambda, Q, Y and Hdiag read x, D, D', r and kappa x and ``l``, H,
MI and sMI weight by ``p`` and take their logs from ``l``, and HS joins Y,
Hdiag and H.  ``evaluate`` runs a kernel on a ProbTable, ``eval_in_coords``
on ``tables.psi`` at margin coordinates, the grids on ``tables.psi_cells``
and the scanner on counts, so a measure gives one number however its table
arrives.  D, D', r and kappa take log|D| from the larger diagonal product,
so that no sum of logs cancels.  ``margin_limit`` gives each measure's
closed-form limit as one margin coordinate goes to +-infinity.

Conventions: mutual information, entropy and the HS exponent use base-2
logarithms; the coordinates themselves are natural-log scale.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .tables import MarginCoords, cell_total, psi, psi_cells, real

__all__ = [
    "Measure",
    "MEASURES",
    "MeasureKind",
    "UnsupportedKind",
    "CLI_NAMES",
    "odds_ratio",
    "yule_q",
    "yule_y",
    "d_raw",
    "d_prime",
    "corr_r",
    "mut_inf",
    "s_mut_inf",
    "kappa",
    "entropy",
    "entropy_diag",
    "hs",
    "evaluate",
    "eval_in_coords",
    "margin_limit",
]

_LN2 = math.log(2.0)

DEFAULT_HS_N = 4.0

# Formulas raise FloatingPointError on division by zero, overflow and invalid
# operations, where numpy would otherwise return a silent inf or nan.
_strict = np.errstate(divide="raise", over="raise", invalid="raise")


class UnsupportedKind(ValueError):
    """An unknown measure name."""


# --- kernels of (p, l, x, n): the cells, their logs, x and the HS exponent --


def _logaddexp(a, b):
    """log(e^a + e^b); the max is exact, so a log margin of -3e-300 survives."""
    return np.maximum(a, b) + np.log1p(np.exp(-abs(a - b)))


def _margins(v, add):
    """(row0, col0, col1, row1) of the cells v, or of their logs with _logaddexp,
    so that ``cell_total`` adds (row0 + row1) + (col0 + col1), as the swaps keep."""
    v00, v01, v10, v11 = v
    return add(v00, v01), add(v00, v10), add(v01, v11), add(v10, v11)


def _log1m_exp_2a(a):
    """log(1 - e^{-2a}) for a > 0; 0 at a = 0, where callers scale by sign(x)."""
    # Past a = 19, 1 - e^{-2a} rounds to 1; the cap keeps -2a from overflowing.
    return np.log((a == 0.0) - np.expm1(-2.0 * np.minimum(a, 19.0)))


def _det_over(l, x, log_den):
    """The determinant p00 p11 - p01 p10 over e^log_den: sign(x) times the larger
    diagonal product times 1 - e^{-2|x|}, so that no sum of logs cancels."""
    l00, l01, l10, l11 = l
    log_top = np.maximum(l00 + l11, l01 + l10)
    return np.sign(x) * np.exp(log_top + _log1m_exp_2a(abs(x)) - log_den)


def _d_prime(p, l, x, n):
    row0, col0, col1, row1 = _margins(l, _logaddexp)
    log_d_max = np.where(
        x >= 0.0,
        np.minimum(row0 + col1, col0 + row1),
        np.minimum(row0 + col0, row1 + col1),
    )
    return _det_over(l, x, log_d_max)


def _corr_r(p, l, x, n):
    row0, col0, col1, row1 = _margins(l, _logaddexp)
    return _det_over(l, x, 0.5 * ((row0 + row1) + (col0 + col1)))


def _kappa(p, l, x, n):
    # (p00 + p11 - chance) / (1 - chance) = 2D / (row0 col1 + row1 col0).
    row0, col0, col1, row1 = _margins(l, _logaddexp)
    return _det_over(l, x, _logaddexp(row0 + col1, row1 + col0) - _LN2)


def _sum_p_log_p(p, l):
    """Sum of p * l as ``cell_total``: the table symmetries keep every bit."""
    return cell_total([pi * li for pi, li in zip(p, l)])


def _entropy(p, l, x, n):
    return -_sum_p_log_p(p, l) / _LN2


def _mut_inf(p, l, x, n):
    margins = _margins(p, operator.add), _margins(l, _logaddexp)
    return (_sum_p_log_p(p, l) - _sum_p_log_p(*margins)) / _LN2


def _s_mut_inf(p, l, x, n):
    return np.sign(x) * np.abs(_mut_inf(p, l, x, n))


def _hs(p, l, x, n):
    return _weighted_y(x, _entropy(p, l, x, n), n)


def _entropy_diag_x(x):
    """Entropy of the diagonal table at x, in t = e^-|x| so that no term cancels."""
    a = abs(x)
    t = np.exp(-a)
    return 1.0 + (np.log1p(t) + a * t / (1.0 + t)) / _LN2


def _weighted_y(x, h, n):
    """HS at x and entropy h: sign(Y) * |Y|^exp(n * (Hdiag - h)), Y and Hdiag of x."""
    y = _tanh_half_x(x)
    # n * (Hdiag - h) or its exp may overflow: a weight of inf or 0 gives the
    # limit, sign(Y) * |Y|^inf (0 for |Y| < 1) or sign(Y).
    with np.errstate(over="ignore"):
        weight = np.exp(n * (_entropy_diag_x(x) - h))
    return np.sign(y) * np.power(np.abs(y), weight)


def _tanh_half_x(x):
    """Yule's Y at x."""
    return np.tanh(0.5 * x)


# --- limits along one margin axis: functions of (x, s, other, n) -----------


def _zero_limit(*_):
    return 0.0


def _d_prime_limit(x, s, other, n):
    # sign(x) (1 - e^-2|x|) / (1 + e^t), t = sign(x) s other - |x|, for
    # y -> +-inf (other = z) and z -> +-inf (other = y).  Past |t| = 800 the
    # limit no longer moves (e^-800 is 0), so an overflow of t is capped there.
    a, sign = abs(x), np.sign(x)
    with np.errstate(over="ignore"):
        t = np.clip(sign * s * other - a, -800.0, 800.0)
    return sign * np.exp(_log1m_exp_2a(a) - _logaddexp(t, 0.0))


def _split_limit(cells, x, s, other, n):
    # The kernel ``cells`` on the limit table at x, a single binary split in the
    # ratio 1 : e^a.  Past |a| = 800 its smaller side underflows to 0, so a is
    # capped.  The empty cells weigh -0.0, so that a pure split's H is +0.0.
    with np.errstate(over="ignore"):
        a = np.clip(x + s * other, -800.0, 800.0)
    l0, l1 = -_logaddexp(0.0, a), -_logaddexp(-a, 0.0)
    return cells((np.exp(l0), np.exp(l1), 0.0, 0.0), (l0, l1, -0.0, -0.0), x, n)


# --- the registry ----------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """One association measure: its names and its formulas.

    ``cells(p, l, x, n)`` is the one formula of the measure: ``p`` is the
    four normalised cells (p00, p01, p10, p11), ``l`` their exact natural
    logs, each four arrays (or floats), and ``x`` the x that ``tables`` gives.
    ``limit(x, s, other, n)`` is the closed-form limit of ``cells`` as one
    margin coordinate goes to s * infinity (s = +-1) with the other held.
    ``n`` is the HS exponent; only measures with ``uses_n`` read it.
    """

    tag: str
    cli_name: str
    cells: Callable
    limit: Callable
    uses_n: bool = False


def _of_x(tag, cli_name, f):
    """A measure of x alone: f(x) is its kernel and, as x is held, its limit."""
    return Measure(tag, cli_name, lambda p, l, x, n: f(x), lambda x, s, other, n: f(x))


MEASURES = {
    m.tag: m
    for m in (
        # 2x in numpy, so that it overflows under _strict for a float x too.
        _of_x("odds_ratio", "lambda", lambda x: np.exp(np.multiply(2.0, x))),
        _of_x("yule_q", "Q", np.tanh),
        _of_x("yule_y", "Y", _tanh_half_x),
        Measure("d_raw", "D", lambda p, l, x, n: _det_over(l, x, 0.0), _zero_limit),
        Measure("d_prime", "Dprime", _d_prime, _d_prime_limit),
        Measure("corr_r", "r", _corr_r, _zero_limit),
        Measure("mut_inf", "MI", _mut_inf, _zero_limit),
        Measure("s_mut_inf", "sMI", _s_mut_inf, _zero_limit),
        Measure("kappa", "kappa", _kappa, _zero_limit),
        Measure("entropy", "H", _entropy, partial(_split_limit, _entropy)),
        _of_x("entropy_diag", "Hdiag", _entropy_diag_x),
        Measure("hs", "HS", _hs, partial(_split_limit, _hs), uses_n=True),
    )
}

CLI_NAMES = {m.cli_name: m.tag for m in MEASURES.values()}


@dataclass(frozen=True)
class MeasureKind:
    """A measure selector; ``n`` is the weighting exponent of hs, None for the rest."""

    tag: str
    n: float | None = field(default=DEFAULT_HS_N)

    def __post_init__(self):
        if not isinstance(self.tag, str) or self.tag not in MEASURES:
            raise ValueError(f"unknown measure tag {self.tag!r}")
        # The other measures drop n, so that their kinds compare equal.
        n = real(self.n) if self.measure.uses_n else None
        if n is not None and not (math.isfinite(n) and n >= 0.0):
            raise ValueError(f"{self.tag} needs n >= 0, got {self.n!r}")
        object.__setattr__(self, "n", n)

    @classmethod
    def from_cli(cls, name, n=DEFAULT_HS_N):
        if not isinstance(name, str) or name not in CLI_NAMES:
            raise UnsupportedKind(f"unknown measure name {name!r}")
        return cls(CLI_NAMES[name], n)

    @property
    def measure(self):
        """The registry record of this measure."""
        return MEASURES[self.tag]

    @property
    def cli_name(self):
        return self.measure.cli_name

    def on_cells(self, p, l, x):
        """The kernel on cells p, their logs l (each four arrays) and x, broadcast."""
        return self._named(self.measure.cells, None, p, l, x)

    def on_coords(self, x, y, z):
        """The kernel on ``psi_cells`` at (x, y, z), which keeps x as it is."""
        return self._named(self.measure.cells, psi_cells, x, y, z)

    @_strict
    def _named(self, formula, producer, *args):
        """formula (kernel or limit) on producer(*args), or args; its error names the measure."""
        try:
            return formula(*(producer(*args) if producer else args), self.n)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{self.cli_name}: {exc}") from None


def evaluate(kind, t):
    """Evaluate a MeasureKind on a table: its kernel on the cells, logs and x."""
    return float(kind.on_cells(t.cells, t.logs, t.x))


def eval_in_coords(kind, c):
    """Evaluate a MeasureKind at margin coordinates: ``evaluate`` of ``psi(c)``."""
    return evaluate(kind, psi(c))


# The direct form of each measure as a function of one table.
odds_ratio = partial(evaluate, MeasureKind("odds_ratio"))
yule_q = partial(evaluate, MeasureKind("yule_q"))
yule_y = partial(evaluate, MeasureKind("yule_y"))
d_raw = partial(evaluate, MeasureKind("d_raw"))
d_prime = partial(evaluate, MeasureKind("d_prime"))
corr_r = partial(evaluate, MeasureKind("corr_r"))
mut_inf = partial(evaluate, MeasureKind("mut_inf"))
s_mut_inf = partial(evaluate, MeasureKind("s_mut_inf"))
kappa = partial(evaluate, MeasureKind("kappa"))
entropy = partial(evaluate, MeasureKind("entropy"))
# Entropy of the diagonal-symmetric table with the same odds-ratio.
entropy_diag = partial(evaluate, MeasureKind("entropy_diag"))


def hs(t, n=DEFAULT_HS_N):
    """Entropy-weighted Yule's Y: sign(Y) * |Y|^exp(n * (Hdiag - H))."""
    return evaluate(MeasureKind("hs", n), t)


def margin_limit(kind, x, axis, direction, other):
    """Closed-form limit of a measure along one margin axis.

    ``axis`` is "y" or "z", ``direction`` is +1/-1 (or "+"/"-") and
    ``other`` is the held-fixed remaining coordinate; x and other must be
    finite (ValueError, as in ``MarginCoords``).  Supported: every measure, by
    its ``limit``, whose FloatingPointError names the measure as a kernel's does.
    """
    if not isinstance(axis, str) or axis not in ("y", "z"):
        raise ValueError(f"axis must be 'y' or 'z', got {axis!r}")
    s = {"+": 1.0, "-": -1.0}.get(direction) if isinstance(direction, str) else real(direction)
    if s not in (1.0, -1.0):
        raise ValueError(f"direction must be '+'/'-' or +-1, got {direction!r}")
    # A NaN or infinite x or held coordinate (z on the y axis, y on z) raises here.
    c = MarginCoords(x, *((0.0, other) if axis == "y" else (other, 0.0)))
    # As numpy floats, so that an intermediate inf or nan raises under _strict.
    held = np.float64(c.z if axis == "y" else c.y)
    return float(kind._named(kind.measure.limit, None, np.float64(c.x), s, held))
