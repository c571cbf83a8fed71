"""Association measures on 2x2 probability tables.

``MEASURES`` is the one list of measures.  Each record holds a numpy kernel
for the direct form, on cell arrays (p00, p01, p10, p11), and where a closed
form exists a kernel on margin coordinates (x, y, z) and the limit along one
margin axis.  The two kernels broadcast over arrays; ``evaluate``,
``eval_in_coords`` and the named functions from ``odds_ratio`` to ``hs`` wrap
them for one table and return a float, as ``margin_limit`` does the limits.

Conventions: mutual information, entropy and the HS exponent use base-2
logarithms; the coordinates themselves are natural-log scale.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "Measure",
    "MEASURES",
    "MeasureKind",
    "UndefinedKappa",
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


class UndefinedKappa(ArithmeticError):
    """Cohen's kappa is undefined: chance agreement equals 1."""


class UnsupportedKind(ValueError):
    """The requested measure has no formula of the requested kind."""


# --- direct forms: kernels of (p00, p01, p10, p11, n) ----------------------


def _margins(p00, p01, p10, p11):
    """(row0, row1, col0, col1)."""
    return p00 + p01, p10 + p11, p00 + p10, p01 + p11


def _plogp(*ps):
    """Sum of p * log2(p), left to right."""
    return sum(p * np.log2(p) for p in ps)


def _odds_ratio(p00, p01, p10, p11, n):
    return (p00 * p11) / (p01 * p10)


def _yule_q(p00, p01, p10, p11, n):
    lam = _odds_ratio(p00, p01, p10, p11, n)
    return (lam - 1.0) / (lam + 1.0)


def _yule_y(p00, p01, p10, p11, n):
    root = np.sqrt(_odds_ratio(p00, p01, p10, p11, n))
    return (root - 1.0) / (root + 1.0)


def _det(p00, p01, p10, p11, n):
    return p00 * p11 - p01 * p10


def _d_prime(p00, p01, p10, p11, n):
    d = _det(p00, p01, p10, p11, n)
    row0, row1, col0, col1 = _margins(p00, p01, p10, p11)
    d_max = np.where(
        d >= 0.0,
        np.minimum(row0 * col1, col0 * row1),
        np.minimum(row0 * col0, row1 * col1),
    )
    return d / d_max


def _corr_r(p00, p01, p10, p11, n):
    row0, row1, col0, col1 = _margins(p00, p01, p10, p11)
    return _det(p00, p01, p10, p11, n) / np.sqrt(row0 * col0 * row1 * col1)


def _mut_inf(p00, p01, p10, p11, n):
    row0, row1, col0, col1 = _margins(p00, p01, p10, p11)
    return _plogp(p00, p01, p10, p11) - _plogp(row0, row1) - _plogp(col0, col1)


def _s_mut_inf(p00, p01, p10, p11, n):
    return np.sign(_det(p00, p01, p10, p11, n)) * np.abs(_mut_inf(p00, p01, p10, p11, n))


def _kappa(p00, p01, p10, p11, n):
    row0, row1, col0, col1 = _margins(p00, p01, p10, p11)
    chance = row0 * col0 + row1 * col1
    if np.any(chance == 1.0):
        raise UndefinedKappa("chance agreement equals 1")
    return (p00 + p11 - chance) / (1.0 - chance)


def _entropy(p00, p01, p10, p11, n):
    return -_plogp(p00, p01, p10, p11)


def _entropy_diag(p00, p01, p10, p11, n):
    return _entropy_diag_x(0.5 * np.log(_odds_ratio(p00, p01, p10, p11, n)))


def _hs(p00, p01, p10, p11, n):
    y = _yule_y(p00, p01, p10, p11, n)
    h_gap = _entropy_diag(p00, p01, p10, p11, n) - _entropy(p00, p01, p10, p11, n)
    return _weighted_y(y, n, h_gap)


def _weighted_y(y, n, h_gap):
    """sign(Y) * |Y|^exp(n * h_gap), the HS form shared by every HS formula."""
    return np.sign(y) * np.power(np.abs(y), np.exp(n * h_gap))


# --- margin-coordinate forms: kernels of (x, y, z, n) ----------------------


def _log_e2x_minus_1(x):
    """log |e^{2x} - 1| for x != 0; 0 at x = 0, where callers scale by sign(x)."""
    a = np.abs(x)
    return a + x + np.log1p((a == 0.0) - np.exp(-2.0 * a))


def _log_margins(x, y, z):
    """Logs of (row0, col0, col1, row1) of the table (e^{x+y+z}, e^y; e^z, e^x)."""
    s = x + y + z
    return np.logaddexp(s, y), np.logaddexp(s, z), np.logaddexp(x, y), np.logaddexp(x, z)


def _tanh_half_x(x, *_):
    """Yule's Y at x, and its limit along every margin axis."""
    return np.tanh(0.5 * x)


def _coord_r(x, y, z, n):
    log_den = 0.5 * sum(_log_margins(x, y, z))
    return np.sign(x) * np.exp(_log_e2x_minus_1(x) + y + z - log_den)


def _coord_d_prime(x, y, z, n):
    row0, col0, col1, row1 = _log_margins(x, y, z)
    log_dmax = np.where(
        x > 0,
        np.where(y < z, row0 + col1, col0 + row1),
        np.where(y < -z, row0 + col0, col1 + row1),
    )
    return np.sign(x) * np.exp(_log_e2x_minus_1(x) + y + z - log_dmax)


def _coord_entropy(x, y, z, n):
    exps = (x + y + z, y, z, x)
    m = np.maximum(np.maximum(exps[0], exps[1]), np.maximum(exps[2], exps[3]))
    weights = [np.exp(e - m) for e in exps]
    total = sum(weights)
    weighted = sum(e * w for e, w in zip(exps, weights))
    return (m + np.log(total)) / _LN2 - weighted / (_LN2 * total)


def _entropy_diag_x(x, *_):
    return 1.0 + np.logaddexp(0.0, x) / _LN2 - x / (_LN2 * (np.exp(-x) + 1.0))


def _coord_hs(x, y, z, n):
    h_gap = _entropy_diag_x(x) - _coord_entropy(x, y, z, n)
    return _weighted_y(_tanh_half_x(x), n, h_gap)


# --- limits along one margin axis: functions of (x, s, other, n) -----------


def _zero_limit(*_):
    return 0.0


def _d_prime_limit(x, s, other, n):
    # Same two-case formula for y->+-inf (other = z) and z->+-inf (other = y).
    if x > 0:
        log_den = np.logaddexp(2.0 * x, x + s * other)
    else:
        log_den = np.logaddexp(x - s * other, 0.0)
    return np.sign(x) * np.exp(_log_e2x_minus_1(x) - log_den)


def _hs_limit(x, s, other, n):
    # The limit table keeps a single binary split with success probability p.
    p = 1.0 / (1.0 + np.exp(x + s * other))
    h_split = -_plogp(p, 1.0 - p) if 0.0 < p < 1.0 else 0.0
    return _weighted_y(_tanh_half_x(x), n, _entropy_diag_x(x) - h_split)


# --- the registry ----------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """One association measure: its names and its formulas.

    ``cells(p00, p01, p10, p11, n)`` is the direct form and
    ``coords(x, y, z, n)`` the closed margin-coordinate form, if any; both
    broadcast over arrays.  ``limit(x, s, other, n)`` is the closed-form
    limit as one margin coordinate goes to s * infinity (s = +-1) with the
    other held.  ``n`` is the HS exponent; only measures with ``uses_n``
    read it.
    """

    tag: str
    cli_name: str
    cells: Callable
    coords: Callable | None = None
    limit: Callable | None = None
    uses_n: bool = False


MEASURES = {
    m.tag: m
    for m in (
        Measure("odds_ratio", "lambda", _odds_ratio),
        Measure("yule_q", "Q", _yule_q),
        Measure("yule_y", "Y", _yule_y, _tanh_half_x, _tanh_half_x),
        Measure("d_raw", "D", _det),
        Measure("d_prime", "Dprime", _d_prime, _coord_d_prime, _d_prime_limit),
        Measure("corr_r", "r", _corr_r, _coord_r, _zero_limit),
        Measure("mut_inf", "MI", _mut_inf),
        Measure("s_mut_inf", "sMI", _s_mut_inf, limit=_zero_limit),
        Measure("kappa", "kappa", _kappa),
        Measure("entropy", "H", _entropy, _coord_entropy),
        Measure("entropy_diag", "Hdiag", _entropy_diag, _entropy_diag_x),
        Measure("hs", "HS", _hs, _coord_hs, _hs_limit, uses_n=True),
    )
}

CLI_NAMES = {m.cli_name: m.tag for m in MEASURES.values()}


@dataclass(frozen=True)
class MeasureKind:
    """A measure selector; ``n`` is the weighting exponent, used by hs only."""

    tag: str
    n: float = field(default=DEFAULT_HS_N)

    def __post_init__(self):
        if self.tag not in MEASURES:
            raise ValueError(f"unknown measure tag {self.tag!r}")
        n = float(self.n)
        if self.measure.uses_n and not (math.isfinite(n) and n >= 0.0):
            raise ValueError(f"{self.tag} needs n >= 0, got {self.n!r}")
        object.__setattr__(self, "n", n)

    @classmethod
    def from_cli(cls, name, n=DEFAULT_HS_N):
        try:
            tag = CLI_NAMES[name]
        except KeyError:
            raise UnsupportedKind(f"unknown measure name {name!r}") from None
        return cls(tag, n)

    @property
    def measure(self):
        """The registry record of this measure."""
        return MEASURES[self.tag]

    @property
    def cli_name(self):
        return self.measure.cli_name

    @_strict
    def on_cells(self, p00, p01, p10, p11):
        """The direct form on cell arrays, broadcast."""
        return self.measure.cells(p00, p01, p10, p11, self.n)

    @_strict
    def on_coords(self, x, y, z):
        """The closed margin-coordinate form on coordinate arrays, broadcast."""
        coords = self.measure.coords
        if coords is None:
            raise UnsupportedKind(f"{self.tag} has no margin-coordinate form")
        return coords(x, y, z, self.n)


def evaluate(kind, t):
    """Evaluate a MeasureKind on a table (direct form).

    The formula is the ``cells`` kernel of the measure's record in
    ``MEASURES``, the one place that lists the measures.
    """
    return float(kind.on_cells(*t.cells))


def eval_in_coords(kind, c):
    """Evaluate a measure at margin coordinates using its closed form.

    The formula is the ``coords`` kernel of the measure's record in
    ``MEASURES``, the one place that lists the measures.  Measures without
    one raise UnsupportedKind; evaluate them on psi(c).
    """
    return float(kind.on_coords(c.x, c.y, c.z))


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


@_strict
def margin_limit(kind, x, axis, direction, other):
    """Closed-form limit of a margin weighting function along one axis.

    ``axis`` is "y" or "z", ``direction`` is +1/-1 (or "+"/"-") and
    ``other`` is the held-fixed remaining coordinate.  Supported: the
    measures with a ``limit`` in ``MEASURES``.
    """
    if axis not in ("y", "z"):
        raise ValueError(f"axis must be 'y' or 'z', got {axis!r}")
    if direction in ("+", 1, +1.0):
        s = 1.0
    elif direction in ("-", -1, -1.0):
        s = -1.0
    else:
        raise ValueError(f"direction must be '+'/'-' or +-1, got {direction!r}")
    limit = kind.measure.limit
    if limit is None:
        raise UnsupportedKind(f"{kind.tag} has no closed-form axis limit")
    return float(limit(x, s, other, kind.n))
