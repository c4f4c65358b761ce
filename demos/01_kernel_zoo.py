"""Tour of the single-medium kernels.

Walks through the planar and d=3 crystal transition kernels on their
explicit ranges, the disordered (exponential) family, and the universal
tail bound, then writes plot-ready CSV curves to demos/output/.

Run:  python demos/01_kernel_zoo.py
"""
import os

import numpy as np

from polyxport import kernels

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)


def main():
    print("== planar crystal, explicit up to xi = 1/2 ==")
    print(f"pair kernel is flat: phi0(0.3, w, z) = {kernels.phi0_2d(0.3, 0.4, -0.8):.6f}"
          f"  (6/pi^2 = {6/np.pi**2:.6f})")
    print(f"free path density at 0:   {kernels.phi_freepath(0.0, 2):.6f}  (= sigma_bar = 2)")
    print(f"survival at the mean path: D_Phi(1/2) = {kernels.d_phi(0.5, 2):.6f}"
          f"  (= 3/pi^2)")

    print("\n== d=3 crystal, explicit up to xi = 1/4 ==")
    w = np.array([0.3, 0.1])
    z = np.array([-0.5, 0.2])
    print(f"phi0(0.2, w, z)        = {float(kernels.phi0_3d(0.2, w, z)):.6f}")
    print(f"zeta(3)^-1 upper bound = {1/kernels.ZETA3:.6f}")
    print(f"G(0) = {float(kernels.G(0.0)):.8f}"
          f"   closed form {np.pi*(4*np.pi+3*np.sqrt(3))/16:.8f}")
    print(f"G(1) = {float(kernels.G(1.0)):.8f}"
          f"   closed form {5*np.pi**2/16 + 1:.8f}")

    print("\n== disordered medium: everything is exponential ==")
    poisson = kernels.KernelModel("poisson", 2)
    for xi in (0.0, 0.25, 1.0):
        print(f"xi={xi:4.2f}:  Phi={poisson.phi(xi):.4f}"
              f"  D_Phi={poisson.d_phi(xi):.4f}")

    # curves for plotting
    xs2 = np.linspace(0, 0.5, 201)
    xs3 = np.linspace(0, 0.25, 201)
    with open(os.path.join(OUT, "kernel_curves.csv"), "w") as fh:
        fh.write("dimension,xi,phi,d_phi,tail_bound\n")
        for x in xs2:
            fh.write(f"2,{x!r},{float(kernels.phi_freepath(x,2))!r},"
                     f"{float(kernels.d_phi(x,2))!r},"
                     f"{float(kernels.tail_bound(x,2))!r}\n")
        for x in xs3:
            fh.write(f"3,{x!r},{float(kernels.phi_freepath(x,3))!r},"
                     f"{float(kernels.d_phi(x,3))!r},"
                     f"{float(kernels.tail_bound(x,3))!r}\n")
    ws = np.linspace(0, 1, 201)
    with open(os.path.join(OUT, "g_curve.csv"), "w") as fh:
        fh.write("w,G\n")
        for wv, gv in zip(ws, kernels.G(ws)):
            fh.write(f"{wv!r},{gv!r}\n")
    print(f"\nwrote kernel_curves.csv and g_curve.csv to {OUT}")


if __name__ == "__main__":
    main()
