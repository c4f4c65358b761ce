"""Named random streams.

Every generator the runners and samplers draw from is
``rng(name, seed, *keys)``, that is ``default_rng([seed, SALTS[name], *keys])``.
Each name owns one salt, and no two salts are equal (checked at import), so
two streams can only meet if their names do.  Keys index the members of one
stream family (a grain id, a chunk number) and never share the salt slot.
The salts of the streams the golden files depend on are the historical
ones; changing any of them changes every output drawn from it.
"""
from __future__ import annotations

import numpy as np

SALTS = {
    # microsim: base point (q), then the tau_1 directions
    "micro.directions": 0x7A01,
    # microsim: per-sample lattice offsets (and q) of one sample chunk; key chunk
    "micro.chunk_offsets": 0x0FF5E7,
    # microsim: the run's random-offset lattice of one grain; key grain id
    "micro.grain_offset": 0x6A10FF,
    # microsim: the Poisson points of one grain; key grain id
    "micro.poisson_points": 0x9012550,
    # poisson baseline: (a) free paths, (b) memorylessness chain,
    # (c) collision counts, (d) gap-scene survival
    "baseline.freepath": 0xBA5E,
    "baseline.memoryless": 0x3E3,
    "baseline.counts": 0xC07,
    "baseline.gap": 0x6A9,
    # stationarity: the ensemble and its whole evolution, the split evolution
    "stationarity.marginals": 0x57A7,
    "stationarity.split": 0x59118,
    # flight runner: ensemble evolution and its n=0 quadrature oracle
    "flight.evolve": 0xF11,
    "flight.n0_oracle": 0x0AC1E,
}


def _check_unique(salts):
    seen = {}
    for name, salt in salts.items():
        if salt in seen:
            raise RuntimeError(f"streams {seen[salt]!r} and {name!r} share "
                               f"the salt {salt:#x}")
        seen[salt] = name


_check_unique(SALTS)


def rng(name, seed, *keys):
    """The generator of stream `name` at `seed` (and member `keys`)."""
    return np.random.default_rng([seed, SALTS[name], *keys])
