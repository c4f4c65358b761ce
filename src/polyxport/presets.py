"""Ready-made scenes used by the demos, the harness defaults and the tests."""
from __future__ import annotations

import numpy as np

from .geometry import ConvexGrain, PeriodicBox, make_scene
from .lattice import AffineLattice, CrystalMedium, PoissonMedium, bcc_matrix


def rotation_2d(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def rotation_3d(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def identity_lattice(d, omega=None):
    rows = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    return AffineLattice.from_rows(rows, omega)


def rotated_lattice_2d(angle, omega=None):
    """Irrational orientation (no rational form): incommensurable with Z^2."""
    return AffineLattice(rotation_2d(angle),
                         np.zeros(2) if omega is None else omega)


def two_squares_2d(side=0.3, gap=0.05, medium="crystal",
                   omega1=(0.318, 0.577), omega2=(0.414, 0.162),
                   angle2=1.0, mode="anchored"):
    """Two crystal squares separated by a gap along the x axis.

    Grain 1 carries the integer lattice, grain 2 an incommensurably
    rotated copy.  Diameters stay below the d=2 explicit range.
    """
    g1 = ConvexGrain.box(1, (0.0, 0.0), (side, side))
    g2 = ConvexGrain.box(2, (side + gap, 0.0), (2 * side + gap, side))
    if medium == "crystal":
        media = (CrystalMedium(identity_lattice(2, omega1), mode=mode),
                 CrystalMedium(rotated_lattice_2d(angle2, omega2), mode=mode))
    else:
        media = (PoissonMedium(), PoissonMedium())
    return make_scene(2, (g1, g2), media,
                      anchor=(side / 2, side / 2),
                      assume_incommensurable=True)


def single_square_2d(side=0.34, medium="crystal", omega=(0.318, 0.577)):
    g = ConvexGrain.box(1, (0.0, 0.0), (side, side))
    m = CrystalMedium(identity_lattice(2, omega)) if medium == "crystal" \
        else PoissonMedium()
    return make_scene(2, (g,), (m,), anchor=(side / 2, side / 2))


def tiled_box_2d(side=0.35, medium="crystal", omega=(0.318, 0.577),
                 mode="random-offset"):
    """Periodic plane fully tiled by one square grain (stationarity runs)."""
    g = ConvexGrain.box(1, (0.0, 0.0), (side, side))
    if medium == "crystal":
        m = CrystalMedium(identity_lattice(2, omega), mode=mode)
    else:
        m = PoissonMedium()
    return make_scene(2, (g,), (m,),
                      periodic_box=PeriodicBox((0.0, 0.0), (side, side)),
                      anchor=(side / 2, side / 2))


def poisson_gap_squares_2d(side=0.4, gap=0.15, n_pairs=3):
    """Row of disordered squares with gaps (defective free paths)."""
    grains, media = [], []
    x0 = 0.0
    for i in range(n_pairs):
        grains.append(ConvexGrain.box(i + 1, (x0, 0.0), (x0 + side, side)))
        media.append(PoissonMedium())
        x0 += side + gap
    return make_scene(2, tuple(grains), tuple(media),
                      anchor=(side / 2, side / 2))


def single_box_3d(side=0.14, medium="crystal", omega=(0.318, 0.577, 0.236),
                  use_bcc=False, angle=0.0):
    g = ConvexGrain.box(1, (0.0, 0.0, 0.0), (side, side, side))
    if medium == "crystal":
        M = bcc_matrix() if use_bcc else np.eye(3)
        if angle:
            M = M @ rotation_3d((1.0, 0.7, 0.3), angle)
        lat = AffineLattice(M, np.asarray(omega, dtype=float))
        m = CrystalMedium(lat)
    else:
        m = PoissonMedium()
    return make_scene(3, (g,), (m,), anchor=(side / 2,) * 3)


def two_boxes_3d(side=0.12, gap=0.04, medium="crystal"):
    g1 = ConvexGrain.box(1, (0, 0, 0), (side, side, side))
    g2 = ConvexGrain.box(2, (side + gap, 0, 0), (2 * side + gap, side, side))
    if medium == "crystal":
        media = (CrystalMedium(AffineLattice(np.eye(3), np.array([0.318, 0.577, 0.236]))),
                 CrystalMedium(AffineLattice(rotation_3d((1.0, 0.3, 0.2), 0.9),
                                             np.array([0.141, 0.733, 0.528]))))
    else:
        media = (PoissonMedium(), PoissonMedium())
    return make_scene(3, (g1, g2), media, anchor=(side / 2,) * 3,
                      assume_incommensurable=True)


def random_scene_2d(rng, n_grains=3, medium="crystal"):
    """Non-overlapping random boxes on a diagonal strip (property tests)."""
    grains, media = [], []
    x = rng.uniform(-0.2, 0.0)
    y = rng.uniform(-0.2, 0.0)
    for i in range(n_grains):
        w = rng.uniform(0.1, 0.33)
        h = rng.uniform(0.1, np.sqrt(max(0.25 - w * w, 0.012)))
        grains.append(ConvexGrain.box(i + 1, (x, y), (x + w, y + h)))
        if medium == "crystal":
            media.append(CrystalMedium(
                rotated_lattice_2d(rng.uniform(0.1, 1.4),
                                   rng.uniform(0, 1, 2))))
        else:
            media.append(PoissonMedium())
        x += w + rng.uniform(0.0, 0.15)
        y += rng.uniform(0.0, h * 0.8)
    return make_scene(2, tuple(grains), tuple(media),
                      anchor=grains[0].vertices.mean(axis=0),
                      assume_incommensurable=True)
