#!/usr/bin/env python3
"""Show the sector gap closing as the discretized bath grows.

For a sub-ohmic bath every added infrared mode multiplies the tunneling
matrix elements by another polaron factor, so the even/odd splitting
decays with N without ever reaching zero.  This driver solves both
sectors for N = 1..--N-max, each point as one `gap-sweep` row, and
prints gap and prefactor side by side.  A point that has no solution,
such as one whose prefactor underflows a normal double, prints the
prefactor and the row's status instead.
"""

import argparse

from sbmlab.bath import BathSpec, DiscretizationSpec, discretize, prefactor
from sbmlab.cli import sweep_point
from sbmlab.config import RunConfig, Truncation
from sbmlab.sectors import ModelParams


def run() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--Lambda", type=float, default=2.0)
    parser.add_argument("--N-max", dest="n_max_modes", type=int, default=8)
    parser.add_argument("--n-max", dest="n_max", type=int, default=4)
    args = parser.parse_args()

    spec = BathSpec(s=args.s, alpha=args.alpha, omega_c=1.0, omega1=1e-6)
    params = ModelParams(delta=args.delta)
    truncation = Truncation(n_max=args.n_max)
    print(f"s={args.s} alpha={args.alpha} delta={args.delta} Lambda={args.Lambda}")
    print(f"{'N':>3} {'modes':>5} {'E_plus0':>14} {'E_minus0':>14} {'gap':>12} {'prefactor':>12}")
    for N in range(args.n_max_modes + 1):
        discretization = DiscretizationSpec(Lambda=args.Lambda, N=N)
        row = sweep_point((N, RunConfig(params, spec, discretization, truncation)))
        bath = discretize(spec, discretization)
        # the true factor, a Decimal below the double range, where the row holds 0
        factor = prefactor(bath)
        if row.status != "ok":
            print(
                f"{N:>3} {bath.mode_count:>5} {'':>14} {'':>14} {'':>12} "
                f"{factor:>12.3e}  {row.status}"
            )
            continue
        print(
            f"{N:>3} {bath.mode_count:>5} {row.E_plus0:>14.8f} {row.E_minus0:>14.8f} "
            f"{row.gap:>12.3e} {factor:>12.3e}"
        )


if __name__ == "__main__":
    run()
