"""Every public entry point takes a caller's number by the one rule of
``tables.real``: a bool, a non-real or a real past the double range raises
the entry point's own typed error, and any other real acts as its float.
A malformed name, direction or list of counts raises the function's own
error too."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from twobytwo import (
    BinaryMatrix,
    DegenerateTable,
    DomainError,
    GridSpec,
    MarginCoords,
    MeasureKind,
    ProbTable,
    UnsupportedKind,
    counts_to_table,
    critical_points,
    entropy_grid_argmax,
    hs,
    lambert_w0,
    lambert_w_minus1,
    margin_limit,
    margin_transform,
    psi_cells,
    ray_limit,
    scan,
    symmetry_apply,
)

TABLE = ProbTable(0.4, 0.1, 0.2, 0.3)
MATRIX = BinaryMatrix(["a", "b", "c"], np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], np.int8))
Y = MeasureKind("yule_y")

# name: (call of one number, the typed error it raises for a bad one)
ENTRY_POINTS = {
    "ProbTable": (lambda v: ProbTable(v, 1.0, 1.0, 1.0), DegenerateTable),
    "MarginCoords": (lambda v: MarginCoords(0.0, v, 0.0), ValueError),
    "psi_cells": (lambda v: psi_cells(v, 0.0, 0.0), ValueError),
    "margin_transform": (lambda v: margin_transform(TABLE, v, 1.0), DegenerateTable),
    "GridSpec": (lambda v: GridSpec(MeasureKind("entropy"), v, 1.0, 0.5), ValueError),
    "critical_points": (critical_points, DomainError),
    "entropy_grid_argmax": (lambda v: entropy_grid_argmax(v, 1.0, 0.5), DomainError),
    "lambert_w0": (lambert_w0, DomainError),
    "lambert_w_minus1": (lambert_w_minus1, DomainError),
    "MeasureKind": (lambda v: MeasureKind("hs", v), ValueError),
    "hs": (lambda v: hs(TABLE, v), ValueError),
    "margin_limit x": (lambda v: margin_limit(MeasureKind("d_prime"), v, "y", 1, 0.5), ValueError),
    "margin_limit other": (lambda v: margin_limit(MeasureKind("hs"), 1.0, "z", -1, v), ValueError),
    "ray_limit": (lambda v: ray_limit((1.0, v, 0.0)), ValueError),
    "counts_to_table": (lambda v: counts_to_table((1, 2, 3, 4), v), ValueError),
    "counts_to_table count": (lambda v: counts_to_table((v, 2, 3, 4), 0.5), ValueError),
    "scan": (lambda v: scan(MATRIX, [Y], Y, 3, v), ValueError),
}

BAD = {
    "10**400": 10**400,
    "-10**400": -(10**400),
    "True": True,
    "np.True_": np.True_,
    "'1'": "1",
    "None": None,
}

TWOS = {
    "int": 2,
    "np.float32": np.float32(2),
    "np.int64": np.int64(2),
    "Fraction": Fraction(2),
}


def outcome(call, value):
    """repr of what the call returns, or the type and text of what it raises."""
    try:
        return repr(call(value))
    except ValueError as exc:  # lambert_w_minus1 has no value at 2
        return type(exc), str(exc)


@pytest.mark.parametrize("value", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_a_bad_number_raises_the_typed_error(entry, value):
    call, error = entry
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("value", TWOS.values(), ids=TWOS.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_any_real_acts_as_its_float(entry, value):
    call, _ = entry
    assert outcome(call, value) == outcome(call, 2.0)


# name: (call of a malformed name, direction or count list, its typed error, its text)
MALFORMED = {
    "MeasureKind list": (lambda: MeasureKind(["hs"]), ValueError, "unknown measure tag"),
    "from_cli list": (lambda: MeasureKind.from_cli(["HS"]), UnsupportedKind, "unknown measure name"),
    "symmetry_apply list": (lambda: symmetry_apply(TABLE, ["swap_rows"]), ValueError, "op must be one of"),
    "ray_limit int": (lambda: ray_limit(5), ValueError, "direction must be three finite reals"),
    "ray_limit None": (lambda: ray_limit(None), ValueError, "direction must be three finite reals"),
    "ray_limit pair": (lambda: ray_limit((1, 2)), ValueError, "direction must be three finite reals"),
    "counts_to_table three": (lambda: counts_to_table((1, 2, 3), 0.5), ValueError, "needs four counts"),
    "counts_to_table int": (lambda: counts_to_table(5, 0.5), ValueError, "needs four counts"),
    "margin_limit axis array": (
        lambda: margin_limit(Y, 1.0, np.array(["y", "z"]), "+", 0.0),
        ValueError,
        "axis must be",
    ),
    "margin_limit direction array": (
        lambda: margin_limit(Y, 1.0, "y", np.array([1, -1]), 0.0),
        ValueError,
        "direction must be",
    ),
}


@pytest.mark.parametrize("call, error, text", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_name_or_direction_raises_the_typed_error(call, error, text):
    with pytest.raises(error, match=text):
        call()
