"""The limiting Markov random flight process on the extended phase space.

States carry (x, v, xi, v_plus): position, velocity, distance to the next
collision, and the velocity thereafter.  Flight lengths and impact
parameters are drawn from the polycrystal limit densities by one sampler
for every kernel family: the length segment by segment, by inversion of
its marginal over the impact parameter, and then the impact parameter
given the length (uniform on the ball where the family does not depend on
it, a short rejection against its bound over the ball for the d=3
crystal).  Its independent slow oracle, exact rejection of (xi, w) jointly
against the gap-discounted exponential envelope, lives with the tests.

Ensemble operations are vectorized over particles.  The sampler draws once
per segment and steps one segment per round (geometry's cursor over the
segment table, or the cell walker that the tiled table is built from); the
n=0 oracle averages polykernel's survival product over that table.
Escapes are first-class: a particle whose flight never meets another grain
gets xi = +inf and flies straight forever.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as KK
from . import scattering, stats, streams
from .geometry import FiniteSceneWalker, SceneError, TiledBoxWalker

_MAX_ROUNDS = 20000


def make_walker(scene, xs, vs):
    if scene.periodic_box is not None:
        return TiledBoxWalker(scene, xs, vs)
    return FiniteSceneWalker(scene, xs, vs)


def _uniform_kernel(scene):
    kinds = {m.kind for m in scene.media}
    if len(kinds) != 1:
        raise SceneError("flight sampling needs a single medium kind per scene")
    return KK.KernelModel(kinds.pop(), scene.dimension)


# ---------------------------------------------------------------------------
# flight-length + impact-parameter sampling
# ---------------------------------------------------------------------------

def sample_xi_w(scene, xs, vs, rng, kind="psi", z=None):
    """Draw (xi, w) from the joint limit density, one row per particle.

    kind 'psi' is the generic-start family (initial condition), 'psi0' the
    scatterer-start family with exit parameters z.  Escapes come back as
    xi = +inf with a zero parameter row.

    xi is drawn segment by segment by inversion of its w-free marginal:
    integrated over w, the joint density of a segment is D_Phi on a
    segment it survives, Phi inside the one it ends in, and on the first
    segment of a scatterer start Phi(., z) and Phi_0(., z).  So each round
    walks the pending rows one segment on, hits with that segment's mass
    and inverts its CDF.  w then follows the conditional law given where
    xi fell (_sample_w_given_xi), which is uniform on the ball for the
    w-free families.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    kern = _uniform_kernel(scene)
    if kind == "psi0":
        if z is None:
            raise ValueError("scatterer-start sampling needs exit parameters z")
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if len(z) != len(xs):
            raise ValueError("need one exit parameter per particle")
    n = len(xs)
    xi = np.full(n, np.inf)
    off = np.zeros(n)                     # offset of xi inside its segment
    lead = np.zeros(n, dtype=bool)        # xi in a scatterer start's first
    walker = make_walker(scene, xs, vs)
    act = np.arange(n)                    # the pending rows, ascending
    # only round 0 walks a scatterer start's first segment; a disordered
    # medium is memoryless: its first segment is like any other
    first = kind == "psi0" and kern.medium == "crystal"
    if kind == "psi0":     # off-grain starts have no mass
        act = np.flatnonzero(walker.current()[0] == 0.0)
    for _ in range(_MAX_ROUNDS):
        entry, exit_, _, valid = walker.current()
        if valid is not None:     # exhausted walkers stay at xi = inf
            act = act[valid[act]]
        if not len(act):
            break
        ell = exit_[act] - entry[act]
        if first:
            mass = 1.0 - np.asarray(kern.phi_marg(ell, z[act]))
        else:
            mass = 1.0 - np.asarray(kern.d_phi(ell))
        hit = rng.random(len(act)) < mass
        if hit.any():
            rows = act[hit]
            vsel = rng.random(len(rows))
            if not first:
                u = np.asarray(kern.invert_phi_cdf(vsel * mass[hit]))
            elif kern.wz_free:    # planar: Phi(., z) is linear in xi
                u = vsel * ell[hit]
            else:
                u = KK.invert_phi_marginal(vsel * mass[hit], z[rows])
            xi[rows] = entry[rows] + u
            off[rows] = u
            lead[rows] = first
            act = act[~hit]
        if len(act):
            walker.advance(act)
        first = False
    else:
        raise RuntimeError("flight-length sampling did not terminate")
    if kern.wz_free:
        w = scattering.sample_ball(rng, scene.dimension - 1, n)
        w[~np.isfinite(xi)] = 0.0
        return xi, w
    return xi, _sample_w_given_xi(rng, xi, off, lead, z)


def _sample_w_given_xi(rng, xi, off, lead, z):
    """Impact parameters of the d=3 crystal given the flight length.

    Given xi, w has density proportional to Phi(off, w), or to
    phi0_3d(xi, w, z) when xi fell in the first segment of a scatterer
    start.  Proposals are uniform on the disk, accepted against the bound
    of each over w (kernels.phi_marginal_max, kernels.phi0_3d_max), which
    accepts 85% or more.  Escapes keep w = 0.
    """
    w = np.zeros((len(xi), 2))
    pending = np.flatnonzero(np.isfinite(xi))
    for _ in range(_MAX_ROUNDS):
        if not len(pending):
            return w
        m = len(pending)
        wprop = scattering.sample_ball(rng, 2, m)
        f = lead[pending]
        target = np.empty(m)
        bound = np.empty(m)
        if f.any():
            rf = pending[f]
            target[f] = KK.phi0_3d(xi[rf], wprop[f], z[rf])
            bound[f] = KK.phi0_3d_max(xi[rf])
        if (~f).any():
            u = off[pending[~f]]
            target[~f] = KK.phi_marginal(u, wprop[~f], 3)
            bound[~f] = KK.phi_marginal_max(u)
        accept = rng.random(m) * bound < target
        w[pending[accept]] = wprop[accept]
        pending = pending[~accept]
    raise RuntimeError("impact-parameter sampling did not terminate")


# ---------------------------------------------------------------------------
# ensembles and evolution
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """Extended-phase-space particle ensemble (escapes carry xi = inf)."""
    x: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    v_plus: np.ndarray
    nu: np.ndarray
    time: float = 0.0

    @property
    def n(self):
        return len(self.xi)

    @property
    def escaped(self):
        return ~np.isfinite(self.xi)

    @property
    def escape_fraction(self):
        return float(np.mean(self.escaped))

    def copy(self):
        return Ensemble(self.x.copy(), self.v.copy(), self.xi.copy(),
                        self.v_plus.copy(), self.nu.copy(), self.time)


def sample_positions(scene, n, rng):
    """Spatial part of f0: uniform in the periodic box of a tiled scene,
    uniform over the grains (weighted by volume) otherwise."""
    d = scene.dimension
    box = scene.periodic_box
    if box is not None:
        return rng.uniform(box.lo, box.hi, size=(n, d))
    vols = np.array([g.volume() for g in scene.grains])
    probs = vols / vols.sum()
    choice = rng.choice(len(scene.grains), size=n, p=probs)
    out = np.empty((n, d))
    for j, g in enumerate(scene.grains):
        rows = np.flatnonzero(choice == j)
        if not len(rows):
            continue
        verts = g.vertices
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        need = rows
        while len(need):
            cand = rng.uniform(lo, hi, size=(len(need), d))
            good = g.contains_rows(cand)
            out[need[good]] = cand[good]
            need = need[~good]
    return out


def sample_initial(scene, n, rng):
    """Ensemble distributed as f0(x, v) times the stationary kernel.

    Positions follow the scene's spatial law (sample_positions), velocities
    are uniform on the sphere, and (xi, v_plus) follow the generic-start
    joint density with the hard-sphere cross section.
    """
    xs = sample_positions(scene, n, rng)
    vs = scattering.sample_direction(rng, scene.dimension, n)
    xi, w = sample_xi_w(scene, xs, vs, rng, kind="psi")
    return Ensemble(xs, vs, xi, _deflect_finite(vs, xi, w),
                    np.zeros(n, dtype=int))


def _deflect_finite(vs, xi, w, fr=None):
    """The velocities after the next collision: each row of vs deflected by
    its impact parameter w, or kept where xi = inf (an escape).  fr, given,
    is scattering.frame(vs)."""
    finite = np.isfinite(xi)
    if finite.all():      # a tiled box: no gather, no scatter
        return scattering.deflect_many(vs, w, fr)
    fin = np.flatnonzero(finite)
    out = vs.copy()
    if len(fin):
        new = scattering.deflect_many(np.take(vs, fin, axis=0),
                                      np.take(w, fin, axis=0))
        for k in range(vs.shape[1]):
            out[:, k][fin] = new[:, k]
    return out


def sample_collision(scene, x_col, v_prev, v_now, rng):
    """Draw (xi, v_plus) after a collision at x_col.

    v_prev/v_now are the velocities before/after the collision; the exit
    parameter enters the scatterer-start density with a sign flip.
    """
    x_col = np.atleast_2d(np.asarray(x_col, dtype=float))
    v_prev = np.atleast_2d(np.asarray(v_prev, dtype=float))
    v_now = np.atleast_2d(np.asarray(v_now, dtype=float))
    fr = scattering.frame(v_now)      # the exit and the deflection share it
    s = scattering.exit_params_many(v_now, v_prev, fr)
    xi, w = sample_xi_w(scene, x_col, v_now, rng, kind="psi0", z=-s)
    return xi, _deflect_finite(v_now, xi, w, fr)


def evolve(scene, ens, dt, rng):
    """Advance the ensemble by dt: straight flight, collisions, resampling.

    Returns a new ensemble; the input is untouched.  Escaped particles
    translate forever without further collisions.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    out = ens.copy()
    rem = np.full(out.n, float(dt))
    # one column at a time: gathers, scatters and broadcasts of rows x d
    # arrays run row by row (np.take gathers whole rows at once)
    x, v, v_plus = out.x.T, out.v.T, out.v_plus.T
    for _ in range(_MAX_ROUNDS):
        collide = np.isfinite(out.xi) & (out.xi <= rem)
        if not collide.any():
            break
        rows = np.flatnonzero(collide)
        step = out.xi[rows]
        rem[rows] -= step
        v_prev = np.take(out.v, rows, axis=0)
        for k in range(len(x)):
            x[k][rows] += v[k][rows] * step
            v[k][rows] = v_plus[k][rows]
        out.nu[rows] += 1
        xi_new, v_plus_new = sample_collision(
            scene, np.take(out.x, rows, axis=0), v_prev,
            np.take(out.v, rows, axis=0), rng)
        out.xi[rows] = xi_new
        for k in range(len(x)):
            v_plus[k][rows] = v_plus_new[:, k]
    else:
        raise RuntimeError("evolve did not exhaust the time step")
    for k in range(len(x)):
        x[k] += v[k] * rem
    out.xi = np.where(np.isfinite(out.xi), out.xi - rem, np.inf)
    out.time = ens.time + dt
    return out


def n_collision_histogram(ens):
    """Counts of particles by number of collisions so far."""
    return np.bincount(ens.nu)


def no_collision_fraction_quadrature(scene, t, n_mc, rng):
    """Oracle for the n=0 fraction: mean survival of f0 beyond t.

    Uses the closed-form survival of the generic-start density, which is
    independent of the ensemble evolution path: polykernel.family_curves
    of survival_psi at the one-point grid [t], over the segments the
    sampler walks.
    """
    from . import polykernel
    xs = sample_positions(scene, n_mc, rng)
    vs = scattering.sample_direction(rng, scene.dimension, n_mc)
    return float(np.mean(polykernel.family_curves(scene, xs, vs, [t],
                                                  "survival_psi")[:, 0]))


def wrap_positions(scene, xs):
    box = scene.periodic_box
    if box is None:
        return xs
    return box.lo + np.mod(xs - box.lo, box.size)


@dataclass
class StationarityReport:
    """Two-sample KS (statistic, p-value) pairs of one stationarity seed.

    A test over several components (ks_cell, and ks_v and ks_vplus in d=3)
    reports the component with the smallest p-value, that p-value times
    the number of components (Bonferroni), capped at 1.
    """
    ks_xi: tuple
    ks_vplus: tuple
    ks_v: tuple
    ks_cell: tuple
    ks_split: tuple = None


def _direction_coords(vs):
    """The azimuth of each row, and in d=3 its polar cosine v_z as well."""
    return np.column_stack([np.arctan2(vs[:, 1], vs[:, 0]), vs[:, 2:]])


def _ks_columns(a, b):
    """Two-sample KS per column, Bonferroni-combined over the columns."""
    return stats.bonferroni([stats.ks_two_sample(a[:, j], b[:, j])
                             for j in range(a.shape[1])])


def stationarity_test(scene, n, t, seed, split=None):
    """Evolve an ensemble drawn from the stationary law on a tiled box and
    compare marginals at time t against time 0 (two-sample tests).

    Given split = (s0, s1), the same time-0 ensemble is also evolved by s0
    and then s1, and ks_split compares its flight lengths with those of
    the whole evolution to t (semigroup property).
    """
    rng = streams.rng("stationarity.marginals", seed)
    ens0 = sample_initial(scene, n, rng)
    ens1 = evolve(scene, ens0, t, rng)
    f0, f1 = np.isfinite(ens0.xi), np.isfinite(ens1.xi)
    ks_xi = stats.ks_two_sample(ens0.xi[f0], ens1.xi[f1])
    ks_vp = _ks_columns(_direction_coords(ens0.v_plus[f0]),
                        _direction_coords(ens1.v_plus[f1]))
    ks_v = _ks_columns(_direction_coords(ens0.v), _direction_coords(ens1.v))
    ks_cell = _ks_columns(wrap_positions(scene, ens0.x),
                          wrap_positions(scene, ens1.x))
    ks_split = None
    if split is not None:
        s0, s1 = split
        rng_s = streams.rng("stationarity.split", seed)
        part = evolve(scene, ens0, float(s0), rng_s)
        part = evolve(scene, part, float(s1), rng_s)
        ks_split = stats.ks_two_sample(ens1.xi[f1],
                                       part.xi[np.isfinite(part.xi)])
    return StationarityReport(ks_xi, ks_vp, ks_v, ks_cell, ks_split)
