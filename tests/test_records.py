"""The record contract: every record is an immutable named tuple; AST
nodes compare by node type, jets are no sequence to numpy, and the
validating records refuse bad data however they are built."""

import math

import numpy as np
import pytest

from warpgeo.expr import Const, Num, Var, parse
from warpgeo.hypersurface import ChartBox
from warpgeo.intrinsic import grid_geometry
from warpgeo.jets import Jet2, eval_jet2
from warpgeo.rotational import RotationalProfile


def test_records_refuse_assignment(hyperplane):
    geometry = grid_geometry(hyperplane, [hyperplane.chart.center()])
    records = [
        (Num(1.0), "value"),
        (Jet2.constant(1.0, 2), "grad"),
        (ChartBox(("u",), (0.0,), (1.0,)), "lower"),
        (RotationalProfile(theta=0.5, f="exp(t)", n=2), "theta"),
        (geometry, "lam"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_nodes_compare_by_type():
    assert Var("pi") != Const("pi")
    assert not Var("pi") == Const("pi")
    assert hash(Var("pi")) != hash(Const("pi"))
    assert len({Var("pi"), Const("pi"), Var("pi")}) == 2
    assert Num(2.0) != (2.0,)
    assert parse("sin(t)^2+pi*t") == parse("sin(t) ^ 2 + pi * t")
    assert hash(parse("sin(t)^2+pi*t")) == hash(parse("sin(t) ^ 2 + pi * t"))
    assert parse("t*pi") != parse("t*t")


@pytest.mark.parametrize("t", [0.3, np.array([0.3, -1.2, 2.0])], ids=["point", "batch"])
@pytest.mark.parametrize("order", [2, 3])
def test_numpy_scalars_defer_to_jet_operators(t, order):
    jet = eval_jet2(parse("sin(t)*exp(t)"), {"t": t}, ("t",), order)
    two = np.float64(2.0)
    for left, right in [(two * jet, jet * 2.0), (two + jet, jet + 2.0), (two - jet, 2.0 - jet),
                        (two / jet, 2.0 / jet)]:
        assert isinstance(left, Jet2)
        for a, b in zip(left.slots(), right.slots(), strict=True):
            np.testing.assert_array_equal(a, b)


def test_validating_records_refuse_bad_data():
    box = ChartBox(("u", "v"), (0.0, 0.0), (1.0, 2.0))
    for lower, upper in [((0.0, 2.0), (1.0, 2.0)), ((0.0, -math.inf), (1.0, 2.0)), ((0.0,), (1.0, 2.0))]:
        with pytest.raises(ValueError):
            ChartBox(("u", "v"), lower, upper)
        with pytest.raises(ValueError):
            box._replace(lower=lower, upper=upper)
    assert box._replace(upper=(1.0, 3.0)).upper == (1.0, 3.0)

    prof = RotationalProfile(theta=0.5, f="exp(t)", n=2)
    assert prof.f == parse("exp(t)") and prof.u_range == (-1.0, 1.0)
    for theta in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError):
            RotationalProfile(theta=theta, f="exp(t)", n=2)
        with pytest.raises(ValueError):
            prof._replace(theta=theta)
    with pytest.raises(ValueError):
        prof._replace(u_range=(1.0, -1.0))
    assert prof._replace(f="cosh(t)").f == parse("cosh(t)")
