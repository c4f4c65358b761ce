"""The limiting Markov random flight process on the extended phase space.

States carry (x, v, xi, v_plus): position, velocity, distance to the next
collision, and the velocity thereafter.  Flight lengths and impact
parameters are drawn from the polycrystal limit densities by one sampler
for every kernel family: the length segment by segment, by inversion of
its marginal over the impact parameter, and then the impact parameter
given the length (uniform on the ball where the family does not depend on
it, a short rejection against its bound over the ball for the d=3
crystal).  Exact rejection of (xi, w) jointly against the gap-discounted
exponential envelope is kept as the independent slow oracle.

Ensemble operations are vectorized over particles.  The grain segments
along the rays form one segment table (rays x segments: entry, exit,
grain id): the clipped grains of a finite scene, or the merged per-axis
cell crossings of a periodic scene, which make_scene guarantees to be a
box tiled by its one grain (geometry.cell_clock sets the face rule, which
the scalar geometry.itinerary shares).  The rejection oracle's budget
walk and the survival curves (the limit free-path CDF, the gap-scene and
n=0 oracles) are array operations on blocks of that table; the sampler,
which draws once per segment, steps one segment per round (a cursor over
the table, or the cell walker that the tiled table is built from).
Escapes are first-class: a particle whose flight never meets another
grain gets xi = +inf and flies straight forever.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as KK
from . import polykernel, scattering, stats, streams
from .geometry import REL_TOL, SceneError, cell_clock, clip_grain_rows

_MAX_ROUNDS = 20000

# Rays per segment table: a block's arrays are rows x segments, and the
# segment count grows with the horizon, so blocks bound the temporaries.
TABLE_ROWS = 1 << 7


# ---------------------------------------------------------------------------
# segment table and walkers
# ---------------------------------------------------------------------------

def _finite_table(scene, xs, vs):
    """All grain segments per ray of a finite scene, sorted by entry."""
    n = len(xs)
    G = len(scene.grains)
    entries = np.full((n, G), np.inf)
    exits = np.full((n, G), np.inf)
    for j, g in enumerate(scene.grains):
        e, h, ok = clip_grain_rows(g, xs, vs)
        entries[:, j] = np.where(ok, e, np.inf)
        exits[:, j] = np.where(ok, h, np.inf)
    order = np.argsort(entries, axis=1, kind="stable")
    entries = np.take_along_axis(entries, order, axis=1)
    exits = np.take_along_axis(exits, order, axis=1)
    base_gids = np.broadcast_to(np.array([g.id for g in scene.grains]),
                                (n, G))
    gids = np.take_along_axis(base_gids, order, axis=1)
    entries[:, 0] = np.where(entries[:, 0] <= REL_TOL, 0.0, entries[:, 0])
    with np.errstate(invalid="ignore"):
        for k in range(1, G):
            gap_k = entries[:, k] - exits[:, k - 1]
            snap = np.isfinite(entries[:, k]) \
                & (np.abs(gap_k) <= REL_TOL * (1.0 + entries[:, k]))
            entries[snap, k] = exits[snap, k - 1]
    return entries, exits, gids


def _tiled_table(scene, xs, vs, horizon):
    """Cell segments per ray of a tiled box, through the first exit past
    horizon.

    Each axis's crossings are one cumsum of [tnext, delta, delta, ...] from
    the walker's start state, which is the walker's repeated += bit for bit;
    the sorted union of all axes is the walker's sequence of cell exits.
    """
    wk = TiledBoxWalker(scene, xs, vs)
    pad = polykernel._HORIZON_PAD
    reach = np.asarray(horizon, dtype=float) * (1.0 + pad) + pad
    reach = np.broadcast_to(reach, (len(xs),))[:, None]
    fin = np.isfinite(wk.tnext)
    beyond = np.zeros(wk.tnext.shape)
    np.divide(reach - wk.tnext, wk.delta, out=beyond, where=fin)
    # crossings per axis up to reach, plus the first one past it
    count = int(np.max(np.floor(beyond), initial=0.0)) + 2
    steps = np.empty(wk.tnext.shape + (count,))
    steps[..., 0] = wk.tnext
    steps[..., 1:] = wk.delta[..., None]
    # an axis the ray barely moves along has a huge delta: its crossings
    # may overflow to inf, which lies past every reach as it should
    with np.errstate(over="ignore"):
        exits = np.sort(np.cumsum(steps, axis=2).reshape(len(xs), -1), axis=1)
    nseg = np.sum(exits <= reach, axis=1) + 1
    exits = np.ascontiguousarray(exits[:, :np.max(nseg, initial=1)])
    entries = np.zeros_like(exits)
    entries[:, 1:] = exits[:, :-1]
    past = np.arange(exits.shape[1]) >= nseg[:, None]
    entries[past] = np.inf
    exits[past] = np.inf
    return entries, exits, np.full(exits.shape, wk.gid)


def segment_table(scene, xs, vs, horizon):
    """Grain segments along the rays x + t v, one row per ray.

    Returns (entry, exit, gid) arrays of shape rows x segments, sorted by
    entry and padded with entry = exit = inf.  A finite scene lists every
    grain the ray crosses; a tiled box lists its cells through the first
    exit beyond horizon (a scalar or one value per row), zero-length cells
    of rays through cell edges included (a start on a face is in the cell
    that v points into, so never the first cell).
    """
    if scene.periodic_box is not None:
        return _tiled_table(scene, xs, vs, horizon)
    return _finite_table(scene, xs, vs)


def _table_blocks(scene, xs, vs, horizon):
    """(rows, entry, exit, gid) over consecutive blocks of TABLE_ROWS rows."""
    horizon = np.broadcast_to(np.asarray(horizon, dtype=float), (len(xs),))
    for start in range(0, len(xs), TABLE_ROWS):
        rows = slice(start, start + TABLE_ROWS)
        yield (rows,) + segment_table(scene, xs[rows], vs[rows], horizon[rows])


class FiniteSceneWalker:
    """Cursor over the segment table of a finite scene."""

    def __init__(self, scene, xs, vs):
        self.entries, self.exits, self.gids = _finite_table(scene, xs, vs)
        self.ptr = np.zeros(len(xs), dtype=int)
        self.nseg = self.entries.shape[1]

    def current(self):
        n = len(self.ptr)
        inb = self.ptr < self.nseg
        idx = np.minimum(self.ptr, self.nseg - 1)
        rows = np.arange(n)
        entry = self.entries[rows, idx]
        exit_ = self.exits[rows, idx]
        valid = inb & np.isfinite(entry)
        gid = self.gids[rows, idx]
        return entry, exit_, gid, valid

    def advance(self, mask):
        self.ptr[mask] += 1


class TiledBoxWalker:
    """Cell-by-cell walk of a periodic scene (a box tiled by one grain)."""

    def __init__(self, scene, xs, vs):
        self.gid = scene.grains[0].id
        self.tnext, self.delta = cell_clock(scene.periodic_box, xs, vs)
        self.t_entry = np.zeros(len(xs))
        self.t_exit = self.tnext.min(axis=1)

    def current(self):
        n = len(self.t_entry)
        gid = np.full(n, self.gid, dtype=int)
        return self.t_entry, self.t_exit, gid, np.ones(n, dtype=bool)

    def advance(self, mask):
        rows = np.flatnonzero(mask)
        amin = np.argmin(self.tnext[rows], axis=1)
        self.t_entry[rows] = self.t_exit[rows]
        self.tnext[rows, amin] += self.delta[rows, amin]
        self.t_exit[rows] = self.tnext[rows].min(axis=1)


def make_walker(scene, xs, vs):
    if scene.periodic_box is not None:
        return TiledBoxWalker(scene, xs, vs)
    return FiniteSceneWalker(scene, xs, vs)


def _uniform_kernel(scene):
    kinds = {m.kind for m in scene.media}
    if len(kinds) != 1:
        raise SceneError("flight sampling needs a single medium kind per scene")
    return KK.for_medium(kinds.pop(), scene.dimension)


# ---------------------------------------------------------------------------
# flight-length + impact-parameter sampling
# ---------------------------------------------------------------------------

def sample_xi_w(scene, xs, vs, rng, kind="psi", z=None, method="auto"):
    """Draw (xi, w) from the joint limit density, one row per particle.

    kind 'psi' is the generic-start family (initial condition), 'psi0' the
    scatterer-start family with exit parameters z.  Escapes come back as
    xi = +inf with a zero parameter row.  method 'auto' draws xi segment
    by segment by inversion of its w-free marginal, then w given xi;
    'rejection' proposes (xi, w) jointly under the tail envelope, the
    independent slow oracle of the first.
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
    if method == "auto":
        return _sample_xi_w_factorized(scene, kern, xs, vs, rng, kind, z)
    if method == "rejection":
        return _sample_xi_w_rejection(scene, kern, xs, vs, rng, kind, z)
    raise ValueError(f"unknown sampling method {method!r}")


def _sample_xi_w_factorized(scene, kern, xs, vs, rng, kind, z):
    """Per-segment inversion of the flight length, then w given xi.

    Integrated over w, the joint density of a segment is its w-free
    marginal: D_Phi on a segment it survives, Phi inside the one it ends
    in, and on the first segment of a scatterer start Phi(., z) and
    Phi_0(., z).  So each round walks the pending rows one segment on,
    hits with that segment's mass and inverts its CDF.  w then follows
    the conditional law given where xi fell (_sample_w_given_xi), which
    is uniform on the ball for the w-free families.
    """
    n = len(xs)
    xi = np.full(n, np.inf)
    off = np.zeros(n)                     # offset of xi inside its segment
    lead = np.zeros(n, dtype=bool)        # xi in a scatterer start's first
    walker = make_walker(scene, xs, vs)
    pending = np.ones(n, dtype=bool)
    # a disordered medium is memoryless: its first segment is like any other
    first = np.full(n, kind == "psi0" and kern.medium == "crystal")
    if kind == "psi0":
        e0, _, _, ok0 = walker.current()
        pending &= ok0 & (e0 == 0.0)   # off-grain starts have no mass
    for _ in range(_MAX_ROUNDS):
        entry, exit_, gid, valid = walker.current()
        pending &= valid          # exhausted walkers stay at xi = inf
        if not pending.any():
            break
        act = np.flatnonzero(pending)
        ell = exit_[act] - entry[act]
        isf = first[act]
        mass = 1.0 - np.asarray(kern.d_phi(ell))
        if isf.any():
            mass = np.where(isf, 1.0 - np.asarray(kern.phi_marg(ell, z[act])),
                            mass)
        hit = rng.random(len(act)) < mass
        if hit.any():
            rows = act[hit]
            vsel = rng.random(len(rows))
            u = np.empty(len(rows))
            fhit = isf[hit]
            lhit = ell[hit]
            if fhit.any():
                if kern.wz_free:    # planar: Phi(., z) is linear in xi
                    u[fhit] = vsel[fhit] * lhit[fhit]
                else:
                    u[fhit] = KK.invert_phi_marginal(
                        vsel[fhit] * mass[hit][fhit], z[rows[fhit]])
            if (~fhit).any():
                tgt = vsel[~fhit] * (1.0 - np.asarray(kern.d_phi(lhit[~fhit])))
                u[~fhit] = np.asarray(kern.invert_phi_cdf(tgt))
            xi[rows] = entry[rows] + u
            off[rows] = u
            lead[rows] = fhit
            pending[rows] = False
        surv = act[~hit]
        if not len(surv):
            continue
        m = np.zeros(n, dtype=bool)
        m[surv] = True
        walker.advance(m)
        first[surv] = False
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


def _walk_to_budget(scene, kern, xs, vs, budget, kind):
    """Walk segments until the in-grain budget is spent.

    Returns (xi_p, u, ing_tot, prod, ell1, in_first, escaped) arrays; prod
    collects D_Phi over completed segments, skipping the first segment for
    the scatterer-start branch whose factor is the survival marginal.
    """
    n = len(xs)
    xi_p = np.full(n, np.inf)
    u_off = np.zeros(n)
    ing = np.zeros(n)
    prod = np.ones(n)
    ell1 = np.zeros(n)
    in_first = np.zeros(n, dtype=bool)
    escaped = np.zeros(n, dtype=bool)
    for rows, entry, exit_, _ in _table_blocks(scene, xs, vs, budget):
        valid = np.isfinite(entry)
        ell = np.zeros(entry.shape)
        np.subtract(exit_, entry, out=ell, where=valid)
        done = np.cumsum(ell, axis=1)
        before = np.zeros_like(done)
        before[:, 1:] = done[:, :-1]
        rem = budget[rows, None] - before
        land = valid & (rem < ell)
        landed = land.any(axis=1)
        k = np.argmax(land, axis=1)
        last = np.where(landed, k, entry.shape[1])
        completed = valid & (np.arange(entry.shape[1]) < last[:, None])
        if kind == "psi0":
            completed[:, 0] = False
        factor = np.ones(entry.shape)
        if completed.any():
            factor[completed] = kern.d_phi(ell[completed])
        prod[rows] = np.cumprod(factor, axis=1)[:, -1]
        ell1[rows] = ell[:, 0]
        i = np.arange(len(k))
        r = rem[i, k]
        u_off[rows] = np.where(landed, r, 0.0)
        xi_p[rows] = np.where(landed, entry[i, k] + r, np.inf)
        ing[rows] = np.where(landed, budget[rows], done[:, -1])
        in_first[rows] = landed & (k == 0)
        escaped[rows] = ~landed
    return xi_p, u_off, ing, prod, ell1, in_first, escaped


def _sample_xi_w_rejection(scene, kern, xs, vs, rng, kind, z):
    n = len(xs)
    d = scene.dimension
    gamma = polykernel.tail_rate(scene)
    C = polykernel.tail_prefactor(scene)
    sb = kern.sigma_bar
    xi = np.full(n, np.inf)
    w = np.zeros((n, d - 1))
    pending = np.arange(n)
    if kind == "psi0":
        e0 = segment_table(scene, xs, vs, 0.0)[0][:, 0]
        pending = pending[e0 == 0.0]   # off-grain starts escape
    for _ in range(_MAX_ROUNDS):
        if not len(pending):
            return xi, w
        m = len(pending)
        E = rng.exponential(1.0 / gamma, size=m)
        wprop = scattering.sample_ball(rng, d - 1, m)
        xi_p, u, ing_tot, prod, ell1, in_first, esc = _walk_to_budget(
            scene, kern, xs[pending], vs[pending], E, kind)
        target = np.zeros(m)
        live = ~esc
        if live.any():
            if kind == "psi":
                target[live] = prod[live] * np.asarray(
                    kern.phi_marg(u[live], wprop[live]))
            else:
                zl = z[pending][live]
                f = in_first[live]
                tv = np.empty(int(live.sum()))
                if f.any():
                    tv[f] = np.asarray(kern.phi0(xi_p[live][f], wprop[live][f],
                                                 zl[f]))
                if (~f).any():
                    tv[~f] = np.asarray(kern.phi_marg(ell1[live][~f], zl[~f])) \
                        * prod[live][~f] \
                        * np.asarray(kern.phi_marg(u[live][~f], wprop[live][~f]))
                target[live] = tv
        accept = np.zeros(m, dtype=bool)
        roll = rng.random(m)
        if live.any():
            ratio = target[live] / (C * np.exp(-gamma * E[live]))
            accept[live] = roll[live] < ratio
        if esc.any():
            t_esc = prod[esc].copy()
            if kind == "psi0":
                t_esc *= np.asarray(kern.phi_marg(ell1[esc], z[pending][esc]))
            ratio = t_esc * gamma / (C * sb * np.exp(-gamma * ing_tot[esc]))
            accept[esc] = roll[esc] < ratio
        acc_rows = pending[accept]
        if len(acc_rows):
            acc_esc = esc[accept]
            xi[acc_rows[~acc_esc]] = xi_p[accept][~acc_esc]
            w[acc_rows[~acc_esc]] = wprop[accept][~acc_esc]
            xi[acc_rows[acc_esc]] = np.inf
        pending = pending[~accept]
    raise RuntimeError("rejection sampling did not terminate")


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
        verts = g.get_vertices()
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        need = rows
        while len(need):
            cand = rng.uniform(lo, hi, size=(len(need), d))
            good = np.all(cand @ g.normals.T < g.offsets, axis=1)
            out[need[good]] = cand[good]
            need = need[~good]
    return out


def sample_initial(scene, n, rng, method="auto"):
    """Ensemble distributed as f0(x, v) times the stationary kernel.

    Positions follow the scene's spatial law (sample_positions), velocities
    are uniform on the sphere, and (xi, v_plus) follow the generic-start
    joint density with the hard-sphere cross section.
    """
    xs = sample_positions(scene, n, rng)
    vs = scattering.sample_direction(rng, scene.dimension, n)
    xi, w = sample_xi_w(scene, xs, vs, rng, kind="psi", method=method)
    v_plus = vs.copy()
    fin = np.isfinite(xi)
    if fin.any():
        v_plus[fin] = scattering.deflect_many(vs[fin], w[fin])
    return Ensemble(xs, vs, xi, v_plus, np.zeros(n, dtype=int))


def sample_collision(scene, x_col, v_prev, v_now, rng, method="auto"):
    """Draw (xi, v_plus) after a collision at x_col.

    v_prev/v_now are the velocities before/after the collision; the exit
    parameter enters the scatterer-start density with a sign flip.
    """
    x_col = np.atleast_2d(np.asarray(x_col, dtype=float))
    v_prev = np.atleast_2d(np.asarray(v_prev, dtype=float))
    v_now = np.atleast_2d(np.asarray(v_now, dtype=float))
    s = scattering.exit_params_many(v_now, v_prev)
    xi, w = sample_xi_w(scene, x_col, v_now, rng, kind="psi0", z=-s,
                        method=method)
    v_plus = v_now.copy()
    fin = np.isfinite(xi)
    if fin.any():
        v_plus[fin] = scattering.deflect_many(v_now[fin], w[fin])
    return xi, v_plus


def evolve(scene, ens, dt, rng, method="auto"):
    """Advance the ensemble by dt: straight flight, collisions, resampling.

    Returns a new ensemble; the input is untouched.  Escaped particles
    translate forever without further collisions.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    out = ens.copy()
    rem = np.full(out.n, float(dt))
    for _ in range(_MAX_ROUNDS):
        collide = np.isfinite(out.xi) & (out.xi <= rem)
        if not collide.any():
            break
        rows = np.flatnonzero(collide)
        step = out.xi[rows]
        out.x[rows] += out.v[rows] * step[:, None]
        rem[rows] -= step
        v_prev = out.v[rows].copy()
        out.v[rows] = out.v_plus[rows]
        out.nu[rows] += 1
        xi_new, v_plus_new = sample_collision(scene, out.x[rows], v_prev,
                                              out.v[rows], rng, method=method)
        out.xi[rows] = xi_new
        out.v_plus[rows] = v_plus_new
    else:
        raise RuntimeError("evolve did not exhaust the time step")
    out.x += out.v * rem[:, None]
    out.xi = np.where(np.isfinite(out.xi), out.xi - rem, np.inf)
    out.time = ens.time + dt
    return out


def n_collision_histogram(ens):
    """Counts of particles by number of collisions so far."""
    return np.bincount(ens.nu)


def no_collision_fraction_quadrature(scene, t, n_mc, rng):
    """Oracle for the n=0 fraction: mean survival of f0 beyond t.

    Uses the closed-form survival of the generic-start density, which is
    independent of the ensemble evolution path: survival_curves at the
    one-point grid [t], over the segment table that the rejection oracle
    walks.  The tests pin it to the scalar polykernel.survival_psi.
    """
    xs = sample_positions(scene, n_mc, rng)
    vs = scattering.sample_direction(rng, scene.dimension, n_mc)
    return float(np.mean(survival_curves(scene, xs, vs, [t])[:, 0]))


class OffGrainStart(SceneError):
    """A scatterer-start survival row whose ray does not start in a grain."""


def survival_blocks(scene, xs, vs, grid, z=None):
    """P(path length >= g) at every point g of a sorted grid, one row per ray.

    The generic-start family multiplies D_Phi of each segment that g has
    fully traversed and D_Phi(g - entry) of the segment holding g.  Given
    exit parameters z (one row per ray), the scatterer-start marginal
    Phi(., z) replaces D_Phi on the first segment, which must start at 0
    (OffGrainStart otherwise).  Factors multiply in segment order, so a
    row carries the bits of the scalar product along its itinerary.

    Yields (rows, curves) over blocks of TABLE_ROWS rays of the segment
    table to grid[-1], curves being rows x grid: per block and medium kind,
    one kernel call on the full segments and one on the ragged array of
    grid points inside a segment.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] < 0:
        raise ValueError("grid must be nonnegative")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if z is not None:
        z = np.atleast_2d(np.asarray(z, dtype=float))
    kinds = {}
    for g, m in zip(scene.grains, scene.media):
        kinds.setdefault(m.kind, []).append(g.id)
    for rows, entry, exit_, gid in _table_blocks(scene, xs, vs, grid[-1]):
        if z is not None and np.any(entry[:, 0] != 0.0):
            raise OffGrainStart("scatterer-start survival needs every ray "
                                "to start in a grain")
        yield rows, _block_curves(scene, kinds, grid, entry, exit_, gid,
                                  None if z is None else z[rows])


def survival_curves(scene, xs, vs, grid, z=None):
    """survival_blocks as one rows x grid array."""
    return np.concatenate([c for _, c in survival_blocks(scene, xs, vs, grid,
                                                         z)])


def _block_curves(scene, kinds, grid, entry, exit_, gid, z):
    n, nseg = entry.shape
    m = len(grid)
    valid = np.isfinite(entry)
    ell = np.zeros(entry.shape)
    np.subtract(exit_, entry, out=ell, where=valid)
    # factor code per segment: 2 * kind index, plus 1 on the first segment
    # of the scatterer-start branch; -1 on the padding
    code = np.full(entry.shape, -1, dtype=np.int8)
    for i, ids in enumerate(kinds.values()):
        code[valid & np.isin(gid, ids)] = 2 * i
    if z is not None:
        code[:, 0] += 1
    # grid points inside segment (r, k), lo <= col < hi, as one ragged
    # array; pos is the flat index r * m + col of the output
    lo = np.searchsorted(grid, entry)
    hi = np.searchsorted(grid, exit_)
    segs = np.flatnonzero(hi > lo)
    count = (hi - lo).ravel()[segs]
    shift = np.cumsum(count) - count - lo.ravel()[segs]
    cols = np.arange(int(count.sum())) - np.repeat(shift, count)
    pos = cols + np.repeat(segs // nseg * m, count)
    u = grid[cols] - np.repeat(entry.ravel()[segs], count)
    pcode = np.repeat(code.ravel()[segs], count)
    # u turns from in-segment lengths into their factors
    factor = np.ones(entry.shape)
    for i, kind in enumerate(kinds):
        kern = KK.for_medium(kind, scene.dimension)
        for lead in (False, True):
            full = code == 2 * i + lead
            if full.any():
                factor[full] = _factor(kern, lead, ell[full], z,
                                       np.nonzero(full)[0])
            inner = pcode == 2 * i + lead
            if inner.any():
                u[inner] = _factor(kern, lead, u[inner], z, pos[inner] // m)
    # grid points in [hi of segment k-1, hi of segment k) have traversed
    # segments 0..k-1 fully: the prefix product before segment k
    prefix = np.ones((n, nseg + 1))
    prefix[:, 1:] = np.cumprod(factor, axis=1)
    edges = np.zeros((n, nseg + 2), dtype=int)
    edges[:, 1:-1] = hi
    edges[:, -1] = m
    surv = np.repeat(prefix.ravel(), np.diff(edges, axis=1).ravel())
    surv[pos] *= u
    return surv.reshape(n, m)


def _factor(kern, lead, lengths, z, rows):
    """Phi(., z) of the rows on a leading segment, D_Phi elsewhere."""
    if lead:
        return kern.phi_marg(lengths, z[rows])
    return kern.d_phi(lengths)


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
    tests = [stats.ks_two_sample(a[:, j], b[:, j]) for j in range(a.shape[1])]
    d, p = min(tests, key=lambda test: test[1])
    return d, min(1.0, len(tests) * p)


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
