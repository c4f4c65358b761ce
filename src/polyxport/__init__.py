"""Transport in polycrystalline Lorentz gases.

Exact microscopic ray tracing over grains carrying incommensurable
scatterer lattices (or disordered point sets), the explicit limiting
transition kernels in d=2 and d=3, the Markov random flight process on the
extended phase space, and a statistics harness that checks the low-radius
limit claims at desk scale.
"""

import ctypes
import os

from .geometry import (ConvexGrain, ItinerarySegment, PeriodicBox, Scene,
                       SceneError, gap, itinerary, make_scene,
                       ray_grain_intersect)
from .kernels import (KernelModel, RangeError, F, G, d_phi, phi0_2d, phi0_3d,
                      phi_freepath, phi_marginal, sigma_bar, tail_bound,
                      upsilon)
from .lattice import (AffineLattice, CrystalMedium, PoissonMedium,
                      ScaledGrainLattice, bcc_matrix, points_in_tube)
from .microsim import (BetaSpec, CollisionEvent, MicroConfig, MicroRuntime,
                       first_collision, first_collisions,
                       sample_tau1_distribution)
from .polykernel import (along_ray, check_transport_identity, family_rows,
                         poisson_psi, psi_tail_bound)
from .scattering import cross_section, exit_param, impact_param, reflect
from .flight import (Ensemble, evolve, n_collision_histogram, sample_collision,
                     sample_initial, sample_xi_w, stationarity_test)


def _fix_malloc_thresholds():
    """Fixed glibc malloc thresholds for the whole process.

    glibc's dynamic mmap threshold rises to the largest block freed so
    far, so whether an array of a few MB comes from the heap or from fresh
    pages, with a minor fault per page, depends on the order of earlier
    frees.  A fixed mmap threshold of 32 MiB (the largest glibc takes on a
    64-bit system) and a trim threshold above it keep freed blocks in the
    heap for reuse.  Other C libraries are left alone.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc "):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_fix_malloc_thresholds()

__version__ = "0.1.0"
