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


@pytest.fixture(scope="session")
def mixed_squares():
    """presets.two_squares_2d geometry: a crystal grain, then a Poisson one."""
    from polyxport import ConvexGrain, make_scene
    from polyxport.lattice import CrystalMedium, PoissonMedium
    g1 = ConvexGrain.box(1, (0.0, 0.0), (0.3, 0.3))
    g2 = ConvexGrain.box(2, (0.35, 0.0), (0.65, 0.3))
    m1 = CrystalMedium(presets.identity_lattice(2, (0.318, 0.577)))
    return make_scene(2, (g1, g2), (m1, PoissonMedium()), anchor=(0.15, 0.15))


@pytest.fixture()
def no_run(monkeypatch):
    """Fails the test if an experiment runner, the limit quadrature or the
    tau_1 sampler starts."""
    from polyxport import harness, microsim

    def fail(*args, **kwargs):
        raise AssertionError("work started before the config was checked")
    for kind in harness.RUNNERS:
        monkeypatch.setitem(harness.RUNNERS, kind, fail)
    monkeypatch.setattr(harness, "limit_freepath_cdf", fail)
    monkeypatch.setattr(harness, "sample_tau1", fail)
    monkeypatch.setattr(microsim, "sample_tau1_distribution", fail)
