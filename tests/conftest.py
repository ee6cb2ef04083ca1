import numpy as np
import pytest

from warpgeo.catalogue import (
    hyperplane_immersion,
    rotational_soliton_immersion,
    slice_immersion,
    sphere_immersion,
)

from oracles import (
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
def spherical_slice():
    return slice_immersion(spherical_cap_ambient(2), 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
