"""The record contract: every record is an immutable named tuple; AST
nodes compare by node type, jets are no sequence to numpy, and the
validating records refuse bad data however they are built."""

import math

import numpy as np
import pytest

from warpgeo.expr import Const, Num, Var, parse, variables_in
from warpgeo.hypersurface import ChartBox, point_jets
from warpgeo.intrinsic import grid_geometry
from warpgeo.jets import eval_jet2
from warpgeo.rotational import RotationalProfile


def test_records_refuse_assignment(hyperplane):
    geometry = grid_geometry(hyperplane, [hyperplane.chart.center()])
    records = [
        (Num(1.0), "value"),
        (eval_jet2(parse("1"), {}, ("t", "u")), "grad"),
        (ChartBox(("u",), (0.0,), (1.0,)), "lower"),
        (RotationalProfile(theta=0.5, f="exp(t)", n=2), "theta"),
        (geometry, "lam"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


# the shape of every batched field, in letters: n chart, d = n + 1 ambient
# dimensions, N points, always the last axis
GEOMETRY_SHAPES = {
    "chart": "nN", "frame": "dnN", "metric": "nnN", "metric_inverse": "nnN", "normal": "dN",
    "shape_operator": "nnN", "second_fundamental": "nnN", "mean_curvature": "N", "theta": "N",
    "grad_h": "nN", "grad_h_norm2": "N", "hess_identity": "nnN", "hess_direct": "nnN",
    "identity_error": "N", "ric": "nnN", "scal_gauss": "N", "lam": "N", "residual": "N",
    "lap_gradient": "nN",
}
JET_SHAPES = {
    "chart": "nN", "frame": "dnN", "second": "dnnN", "third": "dnnnN", "D": "dN", "dD": "dKN",
    "metric": "nnN", "factor": "nnN",
}


@pytest.mark.parametrize("fixture", ["hyperplane", "sphere3"])
def test_records_carry_a_trailing_point_axis(fixture, request):
    imm = request.getfixturevalue(fixture)
    points = imm.chart.grid(4, 0.2)[:7]  # N = 7 matches no other axis
    # K: dD's columns, t alone on the flat fiber where f depends on t; none for these t-free f
    K = int("t" in variables_in(imm.ambient.f))
    assert K == imm.ambient.columns == 0
    sizes = {"n": imm.n, "d": imm.n + 1, "K": K, "N": len(points)}
    geometry, jets = grid_geometry(imm, points, order=3), point_jets(imm, points, order=3)
    for record, shapes in ((geometry, GEOMETRY_SHAPES), (jets, JET_SHAPES)):
        for name, letters in shapes.items():
            assert getattr(record, name).shape == tuple(sizes[c] for c in letters), name
        # the heights, fiber coordinates and warping triple: one value per point
        values = [record.ambient_point.t, *record.ambient_point.x, *record.warping]
        assert all(np.shape(a) == (len(points),) for a in values)
    assert geometry.n == imm.n
    d2D = imm.ambient.diagonal_jets(jets.ambient_point.x, jets.warping, second=True)[2]
    assert d2D.shape == (sizes["d"], sizes["K"], sizes["K"], len(points))


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
def test_jet_arithmetic_raises_type_error(t, order):
    # a jet has no arithmetic: as a tuple it would concatenate or repeat, and
    # numpy, with a scalar on the left, defers to the jet
    jet = eval_jet2(parse("sin(t)*exp(t)"), {"t": t}, ("t",), order)
    for operation in [lambda: np.float64(2.0) * jet, lambda: jet * 2, lambda: 2 * jet, lambda: jet + jet]:
        with pytest.raises(TypeError, match="^a Jet2 has no arithmetic: "):
            operation()


def test_validating_records_refuse_bad_data():
    box = ChartBox(("u", "v"), (0.0, 0.0), (1.0, 2.0))
    for lower, upper in [((0.0, 2.0), (1.0, 2.0)), ((0.0, -math.inf), (1.0, 2.0)), ((0.0,), (1.0, 2.0)),
                         ((-1e308, 0.0), (1e308, 2.0))]:
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
