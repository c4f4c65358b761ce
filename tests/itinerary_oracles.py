"""Slow, independent itineraries and density products: the test oracles of
the segment table (polyxport.geometry.segment_table), of the blocked
products over it (polyxport.polykernel.family_curves and family_rows),
and of the ordered sums over their rows
(polyxport.harness._survival_row_sum).

A ray's grain segments come from clipping it against each grain of a finite
scene, or from stepping a tiled box's cell walk one face crossing at a
time, then a scalar merge loop; each density is a Python loop product over
that list.  The sums over rays build each ray's survival curve on the whole
grid from that list, one KernelModel call per segment, and add the curves
in ray order.
"""
import numpy as np

from polyxport import harness, scattering
from polyxport.geometry import (REL_TOL, ItinerarySegment, SceneError,
                                cell_clock, ray_grain_intersect)
from polyxport.kernels import KernelModel, sigma_bar
from polyxport.polykernel import check_ball

_HORIZON_PAD = 1e-9


def medium_of(scene, grain_id):
    return scene.media[[g.id for g in scene.grains].index(grain_id)]


def kernel_for_grain(scene, grain_id):
    return KernelModel(medium_of(scene, grain_id).kind, scene.dimension)


def _segments_plain(scene, x, v, horizon):
    raw = []
    for g in scene.grains:
        hit = ray_grain_intersect(g, x, v)
        if hit is not None and hit[0] < horizon:
            raw.append((hit[0], hit[1], g.id))
    raw.sort()
    return raw


def _segments_periodic(scene, x, v, horizon):
    """The cells of a tiled box, one scalar step per face crossing."""
    tnext, delta = cell_clock(scene.periodic_box, x[None], v[None])
    tnext, delta = tnext[0], delta[0]
    gid = scene.grains[0].id
    raw = []
    t = 0.0
    while t < horizon:
        i = int(np.argmin(tnext))
        raw.append((t, tnext[i], gid))
        t = tnext[i]
        tnext[i] += delta[i]
    return raw


def itinerary(scene, x, v, horizon):
    """Ordered disjoint grain segments along x+tv with entry < horizon.

    The first segment has entry 0 exactly when x is in a grain or on its
    boundary with v pointing inwards.  Nearly-coincident exit/entry pairs of
    adjacent grains are merged so tilings chain without spurious gaps.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if scene.periodic_box is not None:
        raw = _segments_periodic(scene, x, v, horizon)
    else:
        raw = _segments_plain(scene, x, v, horizon)

    segs = []
    prev_exit = 0.0
    for a, b, gid in raw:
        tol = REL_TOL * (1.0 + abs(a))
        if a <= tol:
            a = 0.0
        if segs:
            if a < prev_exit - REL_TOL * (1.0 + abs(a)):
                raise SceneError("overlapping itinerary segments "
                                 "(scene grains overlap along the ray)")
            if a - prev_exit <= REL_TOL * (1.0 + abs(a)):
                a = prev_exit
        if b <= a:
            continue
        segs.append(ItinerarySegment(gid, a, b))
        prev_exit = b
    return segs


def inside_indicator(scene, x, v):
    """True iff x is interior to a grain, or on a boundary with v inwards:
    within REL_TOL of it, the tolerance at which itinerary snaps a first
    entry to 0."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if scene.periodic_box is not None:
        return True     # a tiled box has no outside
    for g in scene.grains:
        hit = ray_grain_intersect(g, x, v)
        if hit is not None and hit[0] <= REL_TOL * (1.0 + hit[0]):
            return True
    return False


def _segments_upto(scene, x, v, xi):
    return itinerary(scene, x, v, xi * (1.0 + _HORIZON_PAD) + _HORIZON_PAD)


def _locate(segs, xi):
    """Index of the segment with entry <= xi < exit, else None."""
    idx = None
    for i, s in enumerate(segs):
        if s.entry <= xi:
            idx = i
        else:
            break
    if idx is not None and xi < segs[idx].exit:
        return idx
    return None


def _product_before(scene, segs, n):
    out = 1.0
    for s in segs[:n]:
        out *= kernel_for_grain(scene, s.grain_id).d_phi(s.exit - s.entry)
    return out


def psi(scene, x, v, xi):
    """Free path density for a generic start (product form)."""
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    segs = _segments_upto(scene, x, v, xi)
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    return _product_before(scene, segs, nu) * float(kern.phi(xi - segs[nu].entry))


def psi_marg_w(scene, x, v, xi, w):
    """Joint path/impact density for a generic start."""
    check_ball(w, scene.dimension)
    segs = _segments_upto(scene, x, v, xi)
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    return _product_before(scene, segs, nu) * float(kern.phi_marg(xi - segs[nu].entry, w))


def _first_branch_ok(scene, x, v, segs):
    return bool(segs) and segs[0].entry == 0.0 and inside_indicator(scene, x, v)


def psi0_marg(scene, x, v, xi, w):
    """Path density for a start on a scatterer with exit parameter w."""
    check_ball(w, scene.dimension)
    segs = _segments_upto(scene, x, v, xi)
    if not _first_branch_ok(scene, x, v, segs):
        return 0.0
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if nu == 0:
        return float(k1.phi0_marg(xi, w))
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    mid = 1.0
    for s in segs[1:nu]:
        mid *= kernel_for_grain(scene, s.grain_id).d_phi(s.exit - s.entry)
    return float(k1.phi_marg(segs[0].exit - segs[0].entry, w)) * mid \
        * float(kern.phi(xi - segs[nu].entry))


def psi0_full(scene, x, v, xi, w, z):
    """Joint path/impact density for a start on a scatterer.

    w is the impact parameter at distance xi, z the exit parameter at the
    start.  Zero unless x is in a grain or on its boundary with v inwards.
    """
    check_ball(w, scene.dimension)
    check_ball(z, scene.dimension)
    segs = _segments_upto(scene, x, v, xi)
    if not _first_branch_ok(scene, x, v, segs):
        return 0.0
    nu = _locate(segs, xi)
    if nu is None:
        return 0.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if nu == 0:
        return float(k1.phi0(xi, w, z))
    kern = kernel_for_grain(scene, segs[nu].grain_id)
    mid = 1.0
    for s in segs[1:nu]:
        mid *= kernel_for_grain(scene, s.grain_id).d_phi(s.exit - s.entry)
    return float(k1.phi_marg(segs[0].exit - segs[0].entry, z)) * mid \
        * float(kern.phi_marg(xi - segs[nu].entry, w))


def survival_psi(scene, x, v, t, horizon=None):
    """P(path length >= t) = int_t^inf psi + escape mass, in closed form."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    segs = itinerary(scene, x, v, (horizon or t) * (1 + _HORIZON_PAD) + _HORIZON_PAD)
    out = 1.0
    for s in segs:
        if s.exit <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(s.exit - s.entry)
        elif s.entry <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(t - s.entry)
            break
        else:
            break
    return float(out)


def survival_psi0_marg(scene, x, v, t, w):
    """P(path length >= t) for the scatterer-start marginal with exit w."""
    check_ball(w, scene.dimension)
    if t < 0:
        raise ValueError("t must be nonnegative")
    segs = _segments_upto(scene, x, v, max(t, 1.0))
    if not _first_branch_ok(scene, x, v, segs):
        raise ValueError("scatterer-start survival needs an in-grain start")
    if t == 0:
        return 1.0
    k1 = kernel_for_grain(scene, segs[0].grain_id)
    if t < segs[0].exit:
        return float(k1.phi_marg(t, w))
    out = float(k1.phi_marg(segs[0].exit - segs[0].entry, w))
    for s in segs[1:]:
        if s.exit <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(s.exit - s.entry)
        elif s.entry <= t:
            out *= kernel_for_grain(scene, s.grain_id).d_phi(t - s.entry)
            break
        else:
            break
    return float(out)


def survival_curve(scene, x, v, grid, z=None):
    """The survival curve of the ray x + t v on a sorted grid: of the
    scatterer-start marginal with exit z given z, else generic-start.

    The product runs segment by segment over the ray's itinerary: the
    points inside a segment take the product before it times the
    segment's factor, one KernelModel call on all of them, and the points
    at or past its exit take the product through it.
    """
    segs = _segments_upto(scene, x, v, grid[-1])
    if z is not None and not _first_branch_ok(scene, x, v, segs):
        raise ValueError("scatterer-start survival needs an in-grain start")
    out = np.ones(len(grid))
    before = 1.0
    for k, s in enumerate(segs):
        kern = kernel_for_grain(scene, s.grain_id)
        factor = kern.d_phi if z is None or k > 0 else (
            lambda t: kern.phi_marg(t, z))
        inside = (s.entry <= grid) & (grid < s.exit)
        out[inside] = before * factor(grid[inside] - s.entry)
        before = before * factor(s.exit - s.entry)
        out[grid >= s.exit] = before
    return out


def survival_row_loop(scene, xs, vs, grid, z=None, weights=None):
    """Sum of the survival curves S of the rays on the whole grid, one row
    at a time in row order; of (1 - S) * weights[row] given weights."""
    acc = np.zeros(len(grid))
    for k in range(len(xs)):
        curve = survival_curve(scene, xs[k], vs[k], grid,
                               None if z is None else z[k])
        acc += curve if weights is None else (1.0 - curve) * weights[k]
    return acc


def limit_freepath_cdf(scene, x, on_scatterer=False, beta=None, m_dirs=2048):
    """The limit free-path CDF on its default grid, direction by direction."""
    grid = np.linspace(0.0, 4.0 / sigma_bar(scene.dimension), 2049)
    dirs, wts = harness.direction_grid(scene, m_dirs)
    z = None
    if on_scatterer:
        K = scattering.to_frame(np.eye(scene.dimension), dirs[:, None, :])
        z = (beta(dirs)[:, None, :] @ K)[:, 0, 1:]
    xs = np.broadcast_to(np.asarray(x, dtype=float), dirs.shape)
    return grid, survival_row_loop(scene, xs, dirs, grid, z, wts)


def mean_survival_curve(scene, xs, vs, grid):
    """The mean survival curve over rays, ray by ray."""
    return survival_row_loop(scene, xs, vs, grid) / len(xs)
