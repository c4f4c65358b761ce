"""Oracles of polyxport.flight's per-segment sampler.

Exact rejection of (xi, w) jointly under the gap-discounted tail envelope
is its independent slow oracle in law.  Proposals are an exponential
budget of in-grain length at the tail rate and a uniform impact parameter;
_walk_to_budget spends the budget along each ray's blocks of the segment
table (polyxport.geometry), and the proposal is accepted with the ratio of
the joint density to the envelope.

sample_xi_w_masks is the sampler's oracle bit for bit: the same rounds and
draws over full-width masks, with mask-driven walkers that step every row
a mask selects, one inversion per round, and its own impact-parameter
loop (sample_w_masks); it shares no sampling code with polyxport.flight.
"""
import numpy as np

import row_oracles
from polyxport import kernels as KK
from polyxport import polykernel, scattering
from polyxport.flight import _MAX_ROUNDS, _uniform_kernel
from polyxport.geometry import _finite_table, _table_blocks, segment_table


class FiniteMaskWalker:
    """Cursor over the segment table of a finite scene, stepped by mask."""

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


class TiledMaskWalker(row_oracles.TiledBoxWalker):
    """The cell walk of a tiled box, every row valid, stepped by mask."""

    def __init__(self, scene, xs, vs):
        super().__init__(scene, xs, vs)
        self.gid = scene.grains[0].id

    def current(self):
        n = len(self.t_entry)
        gid = np.full(n, self.gid, dtype=int)
        return self.t_entry, self.t_exit, gid, np.ones(n, dtype=bool)

    def advance(self, mask):
        super().advance(np.flatnonzero(mask))


def sample_xi_w_masks(scene, xs, vs, rng, kind="psi", z=None):
    """flight.sample_xi_w with a pending mask over all rows each round,
    a first-segment flag per row, and a fresh mask for the walker."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    kern = _uniform_kernel(scene)
    if kind == "psi0":
        z = np.atleast_2d(np.asarray(z, dtype=float))
    n = len(xs)
    xi = np.full(n, np.inf)
    off = np.zeros(n)
    lead = np.zeros(n, dtype=bool)
    walker = (TiledMaskWalker if scene.periodic_box is not None
              else FiniteMaskWalker)(scene, xs, vs)
    pending = np.ones(n, dtype=bool)
    first = np.full(n, kind == "psi0" and kern.medium == "crystal")
    if kind == "psi0":
        e0, _, _, ok0 = walker.current()
        pending &= ok0 & (e0 == 0.0)
    for _ in range(_MAX_ROUNDS):
        entry, exit_, gid, valid = walker.current()
        pending &= valid
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
            tgt = vsel * mass[hit]
            u = np.empty(len(rows))
            fhit = isf[hit]
            if fhit.any():
                if kern.wz_free:
                    u[fhit] = vsel[fhit] * ell[hit][fhit]
                else:
                    u[fhit] = KK.invert_phi_marginal(tgt[fhit],
                                                     z[rows[fhit]])
            if (~fhit).any():
                u[~fhit] = np.asarray(kern.invert_phi_cdf(tgt[~fhit]))
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
    return xi, sample_w_masks(rng, xi, off, lead, z)


def sample_w_masks(rng, xi, off, lead, z):
    """The d=3 crystal's impact parameters given xi, over a full-width
    pending mask: each round proposes uniformly on the disk for the
    pending rows and accepts against the bound of the conditional density
    (phi0_3d's in a scatterer start's first segment, Phi's elsewhere),
    evaluated that round."""
    n = len(xi)
    w = np.zeros((n, 2))
    pending = np.isfinite(xi)
    for _ in range(_MAX_ROUNDS):
        if not pending.any():
            return w
        act = np.flatnonzero(pending)
        wprop = scattering.sample_ball(rng, 2, len(act))
        target = np.empty(len(act))
        bound = np.empty(len(act))
        isf = lead[act]
        if isf.any():       # only a scatterer start has z
            rf = act[isf]
            target[isf] = KK.phi0_3d(xi[rf], wprop[isf], z[rf])
            bound[isf] = KK.phi0_3d_max(xi[rf])
        rg = act[~isf]
        target[~isf] = KK.phi_marginal(off[rg], wprop[~isf], 3)
        bound[~isf] = KK.phi_marginal_max(off[rg])
        accept = rng.random(len(act)) * bound < target
        w[act[accept]] = wprop[accept]
        pending[act[accept]] = False
    raise RuntimeError("impact-parameter sampling did not terminate")


def sample_xi_w_rejection(scene, xs, vs, rng, kind="psi", z=None):
    """flight.sample_xi_w's draw by envelope rejection, with the same
    arguments, so that it can stand in for the sampler; it makes other
    draws from rng, and agrees in law only."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    if z is not None:
        z = np.atleast_2d(np.asarray(z, dtype=float))
    return _sample_xi_w_rejection(scene, _uniform_kernel(scene), xs, vs, rng,
                                  kind, z)


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
