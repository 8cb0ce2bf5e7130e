"""Resilience sweep of the 14-thruster low-thrust spacecraft model.

For every single thruster loss this script reports r(C), r(-C), the
quantitative resilience r_q, and the time ratio t(d) toward the orbital
target-distance direction.  The whole sweep is 15 small LPs (69 simplex
pivots) and runs in well under a second: one H-representation of the
14-thruster box image, which the system builds once and keeps, decides
controllability and every lambda+/- without an LP and starts the 1 LP that
gives T_N*(d); each thruster's T_M*(d) takes the worst vertex of W_c from the
image of the other 13 thrusters and solves 1 LP there.

Run:  python demos/spacecraft_analysis.py
"""

import time

import numpy as np

from resil import catalog, reach, resilience
from resil.model import split


def main() -> None:
    system = catalog.spacecraft_printed()
    d = catalog.SPACECRAFT_TARGET_DISTANCE

    start = time.perf_counter()
    # system.image, B_bar's, serves the sweep and T_N*(d).
    reports = resilience.sweep(system, range(system.n_inputs))
    # T_N*(d) does not depend on the lost thruster: one LP serves every t(d).
    t_n = reach.nominal_reach_time(system, d).time
    ratios = [
        reach.ratio_of_times(reach.malfunctioning_reach_time(split(system, j), d).time, t_n)
        for j in range(system.n_inputs)
    ]
    elapsed = time.perf_counter() - start

    print(f"system: {system.name}  (n={system.n}, inputs={system.n_inputs}, order={system.order})")
    print(f"controllable with all thrusters: {reports[0].controllable}")
    print()
    print(f"{'loss':>4}  {'r(C)':>9}  {'r(-C)':>9}  {'r_q':>9}  {'resilient':>9}  {'t(d)':>8}")
    for rep, t in zip(reports, ratios):
        t_str = "inf" if np.isinf(t) else f"{t:8.3f}"
        print(f"{rep.lost_column + 1:>4}  {rep.r_plus:>9.4f}  {rep.r_minus:>9.4f}  {rep.r_q:>9.4f}"
              f"  {str(rep.resilient):>9}  {t_str:>8}")

    print()
    print(f"full 14-loss sweep: {elapsed * 1e3:.1f} ms")
    print("losses with r_q = 0 leave some direction unrecoverable; their t(d)")
    print("toward the target is infinite whenever the lost thruster can push")
    print("strictly against every remaining combination along d.")


if __name__ == "__main__":
    main()
