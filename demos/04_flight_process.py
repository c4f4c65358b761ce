"""The limiting Markov flight process on a periodic tiling.

Initializes an ensemble from the stationary law on a fully tiled
periodic crystal, evolves it several mean free paths, and shows that the
extended-state marginals do not drift (stationarity) while collision
counts decompose as expected.  The disordered baseline reduces to plain
exponential flights.

Run:  python demos/04_flight_process.py  [~15 s]
"""
import numpy as np

from polyxport import flight, presets, stats


def main():
    scene = presets.tiled_box_2d(side=0.35, medium="crystal")
    n, t = 50000, 2.5
    print(f"crystal tiling: {n} particles, t = {t} (five mean free paths)")
    rep = flight.stationarity_test(scene, n, t, seed=1)
    print(f"  two-sample KS p-values vs time 0:")
    print(f"    xi marginal      p = {rep.ks_xi[1]:.3f}")
    print(f"    v_plus marginal  p = {rep.ks_vplus[1]:.3f}")
    print(f"    v marginal       p = {rep.ks_v[1]:.3f}")
    print(f"    cell position    p = {rep.ks_cell[1]:.3f}")
    print("  the stationary law stays put.")

    rng = np.random.default_rng(2)
    ens = flight.sample_initial(scene, n, rng)
    out = flight.evolve(scene, ens, 1.0, rng)
    counts = flight.n_collision_histogram(out)
    frac0 = counts[0] / n
    oracle = flight.no_collision_fraction_quadrature(
        scene, 1.0, 10000, np.random.default_rng(3))
    print(f"\ncollision decomposition at t=1.0: counts by n = {counts[:6]}...")
    print(f"  no-collision fraction {frac0:.4f}"
          f" vs closed-form survival oracle {oracle:.4f}")

    print("\ndisordered baseline (memoryless flights):")
    poisson_scene = presets.tiled_box_2d(side=0.35, medium="poisson")
    rng = np.random.default_rng(4)
    ens = flight.sample_initial(poisson_scene, 200000, rng)
    ks = stats.ks_distance(ens.xi,
                           lambda x: 1 - np.exp(-2 * np.asarray(x)))
    print(f"  flight lengths vs Exp(2): KS = {ks:.4f}")


if __name__ == "__main__":
    main()
