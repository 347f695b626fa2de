"""Reflection-symmetric pairs from ellipse charts: closed-form anchors.

The chart g = b(w + u/w) with real b, u maps the unit-circle exterior
onto an ellipse exterior, and its reflection-built partner makes a pair
whose coordinates have hand-computable values for the unit-coefficient
monomial potential with mu = nu = 1:

    t0 = b^2 (1 - u^2)        (domain area / pi),
    t2 = u / 2,               t_{-2} = -u / 2,
    coordinate reality        t_{-n} = -conj(t_n).

This script sweeps u at b = 1, prints computed vs predicted values, the
reality defect, and the closed-form log tau against the general contour
path.

Usage:
    python scripts/ellipse_sigma_demo.py [--order N] [--umax U] [--steps K]
"""

import argparse
import sys

import numpy as np

from dtoda import series as S
from dtoda import conformal_pair as CP
from dtoda import coords as C
from dtoda import plan
from dtoda import special as SP
from dtoda.hamiltonian import HamiltonianH
from dtoda.series import LaurentSeries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=24,
                    help="pair truncation order (default 24)")
    ap.add_argument("--umax", type=float, default=0.25,
                    help="largest ellipse parameter (default 0.25)")
    ap.add_argument("--steps", type=int, default=5,
                    help="number of u samples (default 5)")
    args = ap.parse_args()

    h = HamiltonianH.of((1, 1, 1.0))
    print(f"{'u':>6} {'N':>3} {'t0':>12} {'1-u^2':>12} {'t2':>10} "
          f"{'u/2':>10} {'reality':>10} {'tau defect':>11}")
    worst = 0.0
    for u in np.linspace(0.05, args.umax, args.steps):
        g = LaurentSeries.from_pairs({1: 1.0, -1: float(u)}, S.AT_INFINITY)
        pair = CP.sigma_conjugate(g, order=args.order)
        k = plan.monomial_order(pair, 1, 1)
        try:
            sp = SP.special_coords(pair, 1, 1, k)
        except S.SeriesError as exc:  # a u near 1 outgrows the readers' windows
            print(f"{u:6.3f} {k:3d}  {exc}")
            worst = np.inf
            continue
        reality = max(abs(sp.t[-n] + np.conj(sp.t[n]))
                      for n in range(1, sp.order + 1))
        general = C.toda_coordinates(pair, h, sp.order)
        tau_defect = abs(SP.special_logtau(sp, 1, 1) - general.logT)
        print(f"{u:6.3f} {sp.order:3d} {sp.t[0].real:12.8f} {1 - u * u:12.8f} "
              f"{sp.t[2].real:10.6f} {u / 2:10.6f} "
              f"{reality:10.2e} {tau_defect:11.2e}")
        worst = max(worst, abs(sp.t[0] - (1 - u * u)),
                    abs(sp.t[2] - u / 2), reality, tau_defect)
    print(f"worst deviation from the closed forms: {worst:.3e}")
    return 0 if worst < 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
