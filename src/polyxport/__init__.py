"""Transport in polycrystalline Lorentz gases.

Exact microscopic ray tracing over grains carrying incommensurable
scatterer lattices (or disordered point sets), the explicit limiting
transition kernels in d=2 and d=3, the Markov random flight process on the
extended phase space, and a statistics harness that checks the low-radius
limit claims at desk scale.
"""

from .geometry import (ConvexGrain, ItinerarySegment, PeriodicBox, Scene,
                       SceneError, gap, itinerary, make_scene,
                       ray_grain_intersect)
from .kernels import (KernelModel, RangeError, F, G, d_phi, phi0_2d, phi0_3d,
                      phi_freepath, phi_marginal, poisson_kernels, sigma_bar,
                      tail_bound, upsilon)
from .lattice import (AffineLattice, CrystalMedium, PoissonMedium,
                      ScaledGrainLattice, bcc_matrix, points_in_tube)
from .microsim import (BetaSpec, CollisionEvent, MicroConfig, MicroRuntime,
                       first_collision, first_collisions,
                       sample_tau1_distribution, trajectory)
from .polykernel import (along_ray, check_transport_identity, family_rows,
                         poisson_psi, psi_tail_bound)
from .scattering import cross_section, exit_param, impact_param, reflect
from .flight import (Ensemble, evolve, n_collision_histogram, sample_collision,
                     sample_initial, sample_xi_w, stationarity_test)

__version__ = "0.1.0"
