import numpy as np
import pytest

from warpgeo.catalogue import (
    hyperplane_immersion,
    rotational_soliton_immersion,
    slice_immersion,
    sphere_immersion,
)
from warpgeo.rotational import RotationalProfile

from oracles import (
    build_rotational,
    euclidean_ambient,
    horosphere_immersion,
    spherical_cap_ambient,
    standard_catalogue,
)


@pytest.fixture(scope="session")
def catalogue():
    return standard_catalogue()


@pytest.fixture(scope="session")
def horosphere():
    return horosphere_immersion()


@pytest.fixture(scope="session")
def hyperplane():
    return hyperplane_immersion(euclidean_ambient(2))


@pytest.fixture(scope="session")
def sphere2():
    return sphere_immersion(euclidean_ambient(2))


@pytest.fixture(scope="session")
def sphere3():
    return sphere_immersion(euclidean_ambient(3))


@pytest.fixture(scope="session")
def rotational_soliton():
    return rotational_soliton_immersion()


@pytest.fixture(scope="session")
def rotational_cosh():
    """The rotational surface of theta = 0.5 in cosh(t), whose beta comes from the interpolant."""
    return build_rotational(RotationalProfile(theta=0.5, f="cosh(t)", n=2, u_range=(-1.5, 1.5)))


@pytest.fixture(scope="session")
def spherical_slice():
    return slice_immersion(spherical_cap_ambient(2), 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
