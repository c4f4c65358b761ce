import numpy as np
import pytest

from polyxport import presets


@pytest.fixture(scope="session")
def two_squares():
    return presets.two_squares_2d()


@pytest.fixture(scope="session")
def single_square():
    return presets.single_square_2d()


@pytest.fixture(scope="session")
def tiled_crystal():
    return presets.tiled_box_2d(side=0.35, medium="crystal")


@pytest.fixture(scope="session")
def tiled_poisson():
    return presets.tiled_box_2d(side=0.35, medium="poisson")


def random_unit(rng, d=2):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="session")
def tiled_crystal_3d():
    from polyxport import (ConvexGrain, CrystalMedium, PeriodicBox,
                           make_scene)
    g = ConvexGrain.box(1, (0.0, 0.0, 0.0), (0.14, 0.14, 0.14))
    m = CrystalMedium(presets.identity_lattice(3, (0.318, 0.577, 0.236)),
                      mode="random-offset")
    return make_scene(3, (g,), (m,),
                      periodic_box=PeriodicBox((0.0,) * 3, (0.14,) * 3),
                      anchor=(0.07,) * 3)
