"""The limiting Markov random flight process on the extended phase space.

States carry (x, v, xi, v_plus): position, velocity, distance to the next
collision, and the velocity thereafter.  Flight lengths and impact
parameters are drawn from the polycrystal limit densities: a factorized
path samples the length by per-segment closed-form inversion whenever the
kernel family does not depend on the impact parameters (any disordered
medium, planar crystals within the explicit range), and a general path
runs exact rejection against the gap-discounted exponential envelope.

Ensemble operations are vectorized over particles.  The grain segments
along the rays form one segment table (rays x segments: entry, exit,
grain id): the clipped grains of a finite scene, or the merged per-axis
cell crossings of a periodic box tiled by a single grain.  The rejection
sampler's budget walk and the n=0 survival oracle are array operations on
blocks of that table; the factorized sampler, which draws once per segment,
steps one segment per round (a cursor over the table, or the cell walker
that the tiled table is built from).  Escapes are first-class: a
particle whose flight never meets another grain gets xi = +inf and flies
straight forever.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as KK
from . import polykernel, scattering, stats
from .geometry import SceneError, clip_grain_rows

_SEG_TOL = 1e-12
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
    entries[:, 0] = np.where(entries[:, 0] <= _SEG_TOL, 0.0, entries[:, 0])
    with np.errstate(invalid="ignore"):
        for k in range(1, G):
            gap_k = entries[:, k] - exits[:, k - 1]
            snap = np.isfinite(entries[:, k]) \
                & (np.abs(gap_k) <= _SEG_TOL * (1.0 + entries[:, k]))
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
    of rays through cell edges included.
    """
    if _walks_tiled_box(scene):
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
    """Cell-by-cell walk for a periodic box fully tiled by one grain."""

    def __init__(self, scene, xs, vs):
        box = scene.periodic_box
        self.gid = scene.grains[0].id
        size = box.size
        n, d = xs.shape
        pos = xs - box.lo
        cell = np.floor(pos / size)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = ((cell + 1.0) * size - pos) / vs
            dn = (cell * size - pos) / vs
            self.delta = np.where(vs != 0.0, size / np.abs(vs), np.inf)
        tnext = np.where(vs > 0, up, np.where(vs < 0, dn, np.inf))
        self.tnext = np.where(np.isfinite(tnext), np.maximum(tnext, 0.0), np.inf)
        self.t_entry = np.zeros(n)
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


def is_tiled_box(scene):
    """True for a periodic scene whose single grain is exactly the box.

    Decided once per scene and kept on it, like its grain index.
    """
    if "_tiled_box" not in scene.__dict__:
        object.__setattr__(scene, "_tiled_box", _tiles_box(scene))
    return scene._tiled_box


def _tiles_box(scene):
    if scene.periodic_box is None or len(scene.grains) != 1:
        return False
    g = scene.grains[0]
    box = scene.periodic_box
    if g.normals.shape[0] != 2 * scene.dimension:
        return False
    for n_, c_ in zip(g.normals, g.offsets):
        j = int(np.argmax(np.abs(n_)))
        if abs(abs(n_[j]) - 1.0) > 1e-12:
            return False
        tgt = box.hi[j] if n_[j] > 0 else -box.lo[j]
        if abs(c_ - tgt) > 1e-9:
            return False
    return True


def _walks_tiled_box(scene):
    """False for a finite scene, True for a tiled box; other scenes raise."""
    if scene.periodic_box is None:
        return False
    if is_tiled_box(scene):
        return True
    raise SceneError("flight sampling supports finite scenes and periodic "
                     "boxes fully tiled by a single grain")


def make_walker(scene, xs, vs):
    if _walks_tiled_box(scene):
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
    xi = +inf with a zero parameter row.  method 'factorized' needs a
    kernel family independent of the impact parameters; 'rejection' works
    for every supported medium; 'auto' picks factorized when valid.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    kern = _uniform_kernel(scene)
    if method == "auto":
        method = "factorized" if kern.wz_free else "rejection"
    if method == "factorized":
        if not kern.wz_free:
            raise ValueError("factorized sampling needs a w,z-free kernel family")
        xi = _sample_xi_factorized(scene, kern, xs, vs, rng, kind)
        w = scattering.sample_ball(rng, scene.dimension - 1, len(xs))
        w[~np.isfinite(xi)] = 0.0
        return xi, w
    if method == "rejection":
        return _sample_xi_w_rejection(scene, kern, xs, vs, rng, kind, z)
    raise ValueError(f"unknown sampling method {method!r}")


def _sample_xi_factorized(scene, kern, xs, vs, rng, kind):
    n = len(xs)
    xi = np.full(n, np.inf)
    walker = make_walker(scene, xs, vs)
    pending = np.ones(n, dtype=bool)
    first = np.full(n, kind == "psi0")
    if kind == "psi0":
        e0, _, _, ok0 = walker.current()
        pending &= ok0 & (e0 == 0.0)   # off-grain starts have no mass
    sb = kern.sigma_bar
    for _ in range(_MAX_ROUNDS):
        entry, exit_, gid, valid = walker.current()
        pending &= valid          # exhausted walkers stay at xi = inf
        if not pending.any():
            return xi
        act = np.flatnonzero(pending)
        ell = exit_[act] - entry[act]
        isf = first[act]
        mass = np.where(isf,
                        1.0 - np.asarray(kern.phi_marg(ell, None)),
                        1.0 - np.asarray(kern.d_phi(ell)))
        hit = rng.random(len(act)) < mass
        if hit.any():
            rows = act[hit]
            vsel = rng.random(len(rows))
            u = np.empty(len(rows))
            fhit = isf[hit]
            lhit = ell[hit]
            if fhit.any():
                if kern.medium == "poisson":
                    u[fhit] = -np.log1p(
                        -vsel[fhit] * (1.0 - np.exp(-sb * lhit[fhit]))) / sb
                else:
                    u[fhit] = vsel[fhit] * lhit[fhit]
            if (~fhit).any():
                tgt = vsel[~fhit] * (1.0 - np.asarray(kern.d_phi(lhit[~fhit])))
                u[~fhit] = np.asarray(kern.invert_phi_cdf(tgt))
            xi[rows] = entry[rows] + u
            pending[rows] = False
        surv = act[~hit]
        if not len(surv):
            continue
        m = np.zeros(n, dtype=bool)
        m[surv] = True
        walker.advance(m)
        first[surv] = False
    raise RuntimeError("flight-length sampling did not terminate")


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
    if kind == "psi0":
        if z is None:
            raise ValueError("scatterer-start sampling needs exit parameters z")
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if len(z) != n:
            raise ValueError("need one exit parameter per particle")
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


def sample_positions(scene, n, rng, position="uniform_grains"):
    """Spatial part of f0: uniform over grains, over the box, or fixed."""
    d = scene.dimension
    if isinstance(position, (list, tuple, np.ndarray)):
        return np.tile(np.asarray(position, dtype=float), (n, 1))
    if position == "uniform_box":
        box = scene.periodic_box
        if box is None:
            raise SceneError("uniform_box needs a periodic box")
        return rng.uniform(box.lo, box.hi, size=(n, d))
    if position != "uniform_grains":
        raise ValueError(f"unknown position law {position!r}")
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


def sample_initial(scene, n, rng, position="uniform_grains", method="auto"):
    """Ensemble distributed as f0(x, v) times the stationary kernel.

    Positions follow the requested spatial law, velocities are uniform on
    the sphere, and (xi, v_plus) follow the generic-start joint density
    with the hard-sphere cross section.
    """
    xs = sample_positions(scene, n, rng, position)
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


def n_collision_histogram(ens, max_n=None):
    """Counts of particles by number of collisions so far."""
    top = int(ens.nu.max()) if max_n is None else max_n
    return np.bincount(ens.nu, minlength=top + 1)


def no_collision_fraction_quadrature(scene, t, n_mc, rng,
                                     position="uniform_grains"):
    """Oracle for the n=0 fraction: mean survival of f0 beyond t.

    Uses the closed-form survival of the generic-start density, which is
    independent of the ensemble evolution path.  It is one product of D_Phi
    over the segment table that the rejection sampler walks, taken to
    horizon t; the tests pin it to the scalar polykernel.survival_psi.
    """
    xs = sample_positions(scene, n_mc, rng, position)
    vs = scattering.sample_direction(rng, scene.dimension, n_mc)
    return float(np.mean(_survival_rows(scene, xs, vs, t)))


def _survival_rows(scene, xs, vs, t):
    """P(path length >= t) of the generic-start density, one value per ray.

    Fully traversed segments contribute D_Phi of their length and the
    segment holding t contributes D_Phi(t - entry), as in survival_psi.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    kinds = {}
    for g, m in zip(scene.grains, scene.media):
        kinds.setdefault(m.kind, []).append(g.id)
    out = np.empty(len(xs))
    for rows, entry, exit_, gid in _table_blocks(scene, xs, vs, t):
        seen = entry <= t
        length = np.zeros(entry.shape)
        np.subtract(np.minimum(exit_, t), entry, out=length, where=seen)
        factor = np.ones(entry.shape)
        for kind, ids in kinds.items():
            sel = seen & np.isin(gid, ids)
            if sel.any():
                factor[sel] = KK.for_medium(kind, scene.dimension).d_phi(
                    length[sel])
        out[rows] = np.cumprod(factor, axis=1)[:, -1]
    return out


def wrap_positions(scene, xs):
    box = scene.periodic_box
    if box is None:
        return xs
    return box.lo + np.mod(xs - box.lo, box.size)


@dataclass
class StationarityReport:
    n: int
    t: float
    ks_xi: tuple
    ks_vplus: tuple
    ks_v: tuple
    ks_cell: tuple

    def rejects(self, alpha=0.01):
        return {name: p < alpha for name, (_, p) in
                [("xi", self.ks_xi), ("v_plus", self.ks_vplus),
                 ("v", self.ks_v), ("cell", self.ks_cell)]}


def _angle(vs):
    return np.arctan2(vs[:, 1], vs[:, 0])


def stationarity_test(scene, n, t, seed, method="auto", position="uniform_box"):
    """Evolve an ensemble initialized from the stationary law and compare
    marginals at time t against time 0 (two-sample tests).
    """
    rng = np.random.default_rng([seed, 0x57A7])
    ens0 = sample_initial(scene, n, rng, position=position, method=method)
    ens1 = evolve(scene, ens0, t, rng, method=method)
    f0, f1 = np.isfinite(ens0.xi), np.isfinite(ens1.xi)
    ks_xi = stats.ks_two_sample(ens0.xi[f0], ens1.xi[f1])
    ks_vp = stats.ks_two_sample(_angle(ens0.v_plus[f0]), _angle(ens1.v_plus[f1]))
    ks_v = stats.ks_two_sample(_angle(ens0.v), _angle(ens1.v))
    c0 = wrap_positions(scene, ens0.x)[:, 0]
    c1 = wrap_positions(scene, ens1.x)[:, 0]
    ks_cell = stats.ks_two_sample(c0, c1)
    return StationarityReport(n, t, ks_xi, ks_vp, ks_v, ks_cell)
