"""Acceptance criteria, one test per criterion.

Each test prints one `CRITERION n: PASS/FAIL` line with details and then
asserts.  Criteria 1-4 cover the paper's two case studies (the 14-thruster
spacecraft and the rotational octocopter).  They compare the program with
values derived without it, to 1e-9: SciPy HiGHS re-derivations (the `highs`
fixture in conftest.py), a hand-derived closed form, or a theorem of the
paper.

1. Spacecraft r_min = min(r(C), r(-C)) per column equals HiGHS; its sign
   matches the published sign on every column more than 0.01 from zero; the
   14-column sweep takes under 1 s.
2. Spacecraft r_q per column equals the HiGHS min(r(C), r(-C)), or 0 when not
   resilient; it is exactly 0 on columns 1, 5, 8, 10, 13 and positive on
   columns 2, 3, 6, 7, 9, 11, 12, 14, as published.
3. Spacecraft t(d) toward SPACECRAFT_TARGET_DISTANCE equals HiGHS (T_N* by
   LP, T_M* as the worse of the two vertices of W_c) to 1e-9 relative, with
   infinities exact; it is infinite on the published set {5, 8, 10, 13}; and
   t(d) <= 1/r_q wherever r_q > 0.
4. Rotational-octocopter r_q equals the closed forms b/(2+b) (props 1-4,
   valid for b <= 2) and 1/(1+b) (props 5-8) and HiGHS, at b = 0.64 and
   b = 1.5; r_2q = sqrt(r_q).

The published numbers stay below as named constants.  Those that the
repository's inputs cannot produce are not asserted, and each constant says
why; the README section "Reproduction analysis" has the full comparison.
Criteria 5-10 check published values that the inputs do reproduce, and the
paper's theorems on the oracles.
"""

import dataclasses
import math
import time

import numpy as np

from resil import catalog, oracle, reach, resilience, sim
from resil.model import IntegratorSystem, split

#: Agreement required with an independently derived value (absolute for r
#: values, relative for reach-time ratios).
TOL = 1e-9

#: Published spacecraft r_min per column.  Asserted: the sign, on every column
#: whose value is more than SIGN_MARGIN from zero (all but column 4).  Not
#: asserted: the values.  The printed matrix has one decimal of 1e-6, and
#: moving its entries within that rounding moves r_min by more than 0.01
#: (column 12: 0.811...0.830 against 0.2 published).
PUBLISHED_SPACECRAFT_R_MIN = [-0.2, 0.34, 0.9, -0.004, -0.38, 0.15, 0.83, -0.32,
                              0.71, -0.06, 0.24, 0.2, -0.5, 0.5]
#: Closer to zero than this, a published r_min has no sign the data settle.
SIGN_MARGIN = 0.01

#: Published spacecraft r_q per column.  Asserted: exact 0 against positive,
#: on every column but 4.  Not asserted: the positive values (the rounding
#: of the printed matrix, as for r_min), and column 4's 0, which comes from the
#: published r_min -0.004; that is inside SIGN_MARGIN and inside the rounding
#: range -0.012...0.037, so the printed data cannot settle column 4's verdict.
PUBLISHED_SPACECRAFT_R_Q = [0, 0.34, 0.9, 0, 0, 0.15, 0.83, 0, 0.71, 0, 0.24, 0.2, 0, 0.5]
#: Columns (1-based) whose published r_q the printed data cannot settle.
R_Q_UNSETTLED_COLUMNS = {4}

#: Published finite t(d) per column (1-based).  Not asserted.  151.1 on
#: columns 7, 9, 11, 12 and 14 contradicts the theorem t(d) <= 1/r_q with the
#: published r_q (column 7: 1/0.83 is about 1.2), which criteria 8 and 9 verify.  The
#: others depend on the units of SPACECRAFT_TARGET_DISTANCE, which nothing in
#: the repository settles: column 4 gives 2.62 with degrees and 81.2 with
#: radians.  Column 1 gives infinity with either.
PUBLISHED_SPACECRAFT_T_FINITE = {1: 1.1, 2: 1.2, 3: 1.1, 4: 1.0, 6: 1.0, 7: 151.1, 9: 151.1,
                                 11: 151.1, 12: 151.1, 14: 151.1}
#: Published infinite t(d) columns (1-based).  Asserted.
PUBLISHED_SPACECRAFT_T_INFINITE = {5, 8, 10, 13}

#: Published rotational-octocopter r_q and r_2q, the same on all eight props.
#: Not asserted.  For the catalog's torque matrix r_q is b/(2+b) on props 1-4
#: and 1/(1+b) on props 5-8; 0.1 on all eight would need b = 2/9 and b = 9 at
#: once.  (The translational matrix reproduces its published values exactly,
#: criteria 5-6.)
PUBLISHED_ROT_R_Q = 0.1
PUBLISHED_ROT_R_2Q = 0.3162
#: Coupling constants for criterion 4: the catalog default and one more, both
#: in the range b <= 2 where the props 1-4 closed form holds.
ROT_B_VALUES = (0.64, 1.5)


def _verdict(num: int, checks: "list[tuple[bool, str]]") -> None:
    ok = all(flag for flag, _ in checks)
    details = "; ".join(msg for flag, msg in checks if not flag)
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'}" + (f" ({details})" if details else ""))
    assert ok, details


def _rel_close(got: float, ref: float) -> bool:
    """Within TOL relative; infinities must match exactly."""
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= TOL * abs(ref)


def _toy1():
    return IntegratorSystem(
        "TOY1", 1,
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        np.array([-2.0, -2.0, -1.0]), np.array([2.0, 2.0, 1.0]),
    )


def _toy2():
    return IntegratorSystem(
        "TOY2", 1, np.array([[1.0, -1.0]]), np.array([-1.0, 0.0]), np.array([3.0, 1.0])
    )


def _toy3():
    return IntegratorSystem(
        "TOY3", 1,
        np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]]),
        -np.ones(4), np.ones(4),
    )


def _rotational_r_q(b: float, prop: int) -> float:
    """Hand-derived r_q of the catalog torque matrix for a lost prop (1-based).

    Row gains cancel in B v = lam C, so take the +/-1, +/-b pattern with
    inputs in [0, 1].  Losing a vertical prop (1-4) gives lam+ = b/2 and
    lam- = 1 + b/2 while b <= 2 (above that both saturate and r_q = 1/2);
    losing a horizontal prop (5-8) gives lam+ = 1/b and lam- = 1 + 1/b.
    With w in [0, 1] both r(C) = lam+/(1 + lam+) and r(-C) = (lam- - 1)/lam-
    reduce to the value returned.
    """
    if prop <= 4:
        assert b <= 2.0, "b/(2+b) holds for b <= 2 only"
        return b / (2.0 + b)
    return 1.0 / (1.0 + b)


def test_criterion_01_spacecraft_r_min_vector(highs, r_pair):
    sys = catalog.spacecraft_printed()
    start = time.perf_counter()
    got = [min(r_pair(split(sys, j))) for j in range(14)]
    elapsed = time.perf_counter() - start
    checks = []
    for j, (g, published) in enumerate(zip(got, PUBLISHED_SPACECRAFT_R_MIN)):
        ref = min(highs.r_pair(split(sys, j)))
        checks.append((abs(g - ref) <= TOL, f"col {j + 1}: got {g!r}, HiGHS {ref!r}"))
        if abs(published) > SIGN_MARGIN:
            checks.append(
                (g * published > 0, f"col {j + 1}: got {g:.4f}, published sign of {published}")
            )
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s"))
    _verdict(1, checks)


def test_criterion_02_spacecraft_r_q_vector(highs):
    sys = catalog.spacecraft_printed()
    checks = []
    for j, published in enumerate(PUBLISHED_SPACECRAFT_R_Q):
        sp = split(sys, j)
        g = resilience.quantitative_resilience(sp).r_q
        ref = highs.r_q(sp)
        checks.append((abs(g - ref) <= TOL, f"col {j + 1}: got {g!r}, HiGHS {ref!r}"))
        if j + 1 in R_Q_UNSETTLED_COLUMNS:
            continue
        if published == 0:
            checks.append((g == 0.0, f"col {j + 1}: got {g!r}, published exact 0"))
        else:
            checks.append((g > 0.0, f"col {j + 1}: got {g!r}, published {published} > 0"))
    _verdict(2, checks)


def test_criterion_03_spacecraft_time_ratios(highs):
    sys = catalog.spacecraft_printed()
    d = catalog.SPACECRAFT_TARGET_DISTANCE
    checks = []
    for j in range(14):
        sp = split(sys, j)
        g = reach.time_ratio(sp, d)
        ref = highs.time_ratio(sp, d)
        checks.append((_rel_close(g, ref), f"col {j + 1}: got {g!r}, HiGHS {ref!r}"))
        if j + 1 in PUBLISHED_SPACECRAFT_T_INFINITE:
            checks.append((math.isinf(g), f"col {j + 1}: got {g!r}, published inf"))
        r_q = resilience.quantitative_resilience(sp).r_q
        if r_q > 0.0:
            checks.append(
                (g <= (1.0 / r_q) * (1.0 + TOL), f"col {j + 1}: t(d) {g!r} > 1/r_q {1.0 / r_q!r}")
            )
    _verdict(3, checks)


def test_criterion_04_octocopter_rotational_r_q(highs):
    checks = []
    for b in ROT_B_VALUES:
        sys = catalog.octocopter_rotational(catalog.OctocopterParams(b=b))
        sys2 = dataclasses.replace(sys, order=2)
        for j in range(8):
            sp = split(sys, j)
            expected = _rotational_r_q(b, j + 1)
            rep = resilience.quantitative_resilience(sp)
            rep2 = resilience.quantitative_resilience(split(sys2, j))
            ref = highs.r_q(sp)
            where = f"b={b} prop {j + 1}"
            checks.append(
                (abs(rep.r_q - expected) <= TOL * expected,
                 f"{where}: r_q {rep.r_q!r}, closed form {expected!r}")
            )
            checks.append((abs(rep.r_q - ref) <= TOL, f"{where}: r_q {rep.r_q!r}, HiGHS {ref!r}"))
            checks.append(
                (abs(rep2.r_kq - math.sqrt(expected)) <= TOL * math.sqrt(expected),
                 f"{where}: r_2q {rep2.r_kq!r}, sqrt(closed form) {math.sqrt(expected)!r}")
            )
    _verdict(4, checks)


def test_criterion_05_octocopter_translational_r_pairs(r_pair):
    sys = catalog.octocopter_translational()
    sys2 = dataclasses.replace(sys, order=2)
    checks = []
    for j in range(4):
        r_p, r_m = r_pair(split(sys, j))
        rep2 = resilience.quantitative_resilience(split(sys2, j))
        checks.append((abs(r_p - 0.7657) <= 1e-3, f"prop {j + 1}: r(C) {r_p:.4f}"))
        checks.append((abs(r_m - 0.5638) <= 1e-3, f"prop {j + 1}: r(-C) {r_m:.4f}"))
        checks.append((abs(rep2.r_kq - 0.75) <= 0.01, f"prop {j + 1}: r_2q {rep2.r_kq:.4f}"))
    for j in range(4, 8):
        r_p, r_m = r_pair(split(sys, j))
        checks.append((abs(r_p) <= 1e-9, f"prop {j + 1}: r(C) {r_p:.2e} != 0"))
        checks.append((abs(r_m) <= 1e-9, f"prop {j + 1}: r(-C) {r_m:.2e} != 0"))
    _verdict(5, checks)


def test_criterion_06_octocopter_time_ratios():
    sys = catalog.octocopter_translational()
    checks = []
    down = np.array([0.0, 0.0, -1.0])
    expected_down = [1.7738] * 4 + [2.2644] * 4
    for j in range(8):
        t = reach.time_ratio(split(sys, j), down)
        checks.append((abs(t - expected_down[j]) <= 1e-3,
                       f"down prop {j + 1}: {t:.4f} vs {expected_down[j]}"))
    forward = np.array([1.0, 0.0, 0.0])
    for j in range(8):
        t = reach.time_ratio(split(sys, j), forward)
        if j in (4, 5):
            checks.append((math.isinf(t), f"forward prop {j + 1}: {t} vs inf"))
        else:
            checks.append((abs(t - 1.0) <= 1e-6, f"forward prop {j + 1}: {t:.8f} vs 1"))
    _verdict(6, checks)


def test_criterion_07_lag_ordering_property():
    params = catalog.OctocopterParams()
    d = [0, 0, -1]
    checks = []
    gaps = []
    for tau in (0.2, 0.1, 0.05, 0.01):
        smooth, bang = sim.smooth_reach_ratio(params, d, target_speed=1.0, tau=tau)
        gaps.append(bang - smooth)
        if tau == 0.1:
            checks.append((abs(bang - 1.7738) <= 1e-3, f"bang-bang ratio {bang:.4f}"))
            checks.append((1.0 <= smooth < bang, f"smooth ratio {smooth:.4f} not in [1, bang)"))
    checks.append(
        (all(a >= b > 0 for a, b in zip(gaps, gaps[1:])),
         f"gap to bang-bang not monotone over tau: {['%.4f' % g for g in gaps]}")
    )
    _verdict(7, checks)


def test_criterion_08_oracle_suite():
    start = time.perf_counter()
    toy1, toy2, toy3 = _toy1(), _toy2(), _toy3()
    rot = catalog.octocopter_rotational()
    trans = catalog.octocopter_translational()
    checks = []

    grids = [
        ("TOY1", split(toy1, 2), np.array([1.0, 0.3]), 51),
        ("TOY2", split(toy2, 1), np.array([-1.0]), 51),
        ("TOY3", split(toy3, (2, 3)), np.array([1.0, 0.4]), 21),
        ("octocopter-rot", split(rot, 0), np.array([1.0, 0.5, 0.2]), 51),
        ("octocopter-trans", split(trans, 0), np.array([0.0, 0.0, -1.0]), 51),
    ]
    for name, sp, d, points in grids:
        rep = oracle.grid_worst_w(sp, d, points)
        checks.append((rep.max_violation <= 1e-9, f"grid {name}: violation {rep.max_violation:.2e}"))

    scans = [
        ("TOY1", split(toy1, 2)),
        ("TOY2", split(toy2, 1)),
        ("octocopter-rot", split(rot, 0)),
        ("octocopter-trans", split(trans, 0)),
    ]
    for name, sp in scans:
        rep = oracle.direction_scan(sp, 2000, seed=7)
        checks.append((rep.max_violation <= 1e-9, f"scan {name}: violation {rep.max_violation:.2e}"))

    probes = [
        ("TOY1", split(toy1, 2), np.array([1.0, 0.3])),
        ("TOY2", split(toy2, 1), np.array([-1.0])),
        ("octocopter-trans", split(trans, 0), np.array([0.0, 0.0, -1.0])),
        ("spacecraft", split(catalog.spacecraft_printed(), 6),
         catalog.SPACECRAFT_TARGET_DISTANCE),
    ]
    for name, sp, d in probes:
        err = oracle.homogeneity_probe(sp, d, [0.5, 2.0, 10.0])
        checks.append((err <= 1e-8, f"homogeneity {name}: error {err:.2e}"))

    elapsed = time.perf_counter() - start
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"))
    _verdict(8, checks)


def test_criterion_09_verdict_cross_check(reach_time_verdict):
    checks = []
    systems = [
        ("TOY1", _toy1()),
        ("TOY2", _toy2()),
        ("octocopter-rot", catalog.octocopter_rotational()),
        ("octocopter-trans", catalog.octocopter_translational()),
        ("spacecraft", catalog.spacecraft_printed()),
    ]
    for name, sys in systems:
        for j in range(sys.n_inputs):
            sp = split(sys, j)
            rep = resilience.quantitative_resilience(sp)
            verdict = reach_time_verdict(sp)
            checks.append(
                (rep.resilient == verdict.resilient,
                 f"{name} col {j + 1}: closed-form {rep.resilient} vs reach {verdict.resilient}")
            )
            if rep.resilient:
                c = sp.c[:, 0]
                worst = max(reach.time_ratio(sp, c), reach.time_ratio(sp, -c))
                rel = abs(1.0 / rep.r_q - worst) / worst
                checks.append(
                    (rel <= 1e-8, f"{name} col {j + 1}: 1/r_q vs max t(+/-C) rel err {rel:.2e}")
                )
    _verdict(9, checks)


def test_criterion_10_order_k_identities():
    toy2 = _toy2()
    sp = split(toy2, 1)
    checks = []
    for k in (1, 2, 3, 5):
        rep = resilience.quantitative_resilience(split(dataclasses.replace(toy2, order=k), 1))
        checks.append((rep.r_kq == 0.5 ** (1.0 / k), f"k={k}: r_kq {rep.r_kq!r}"))
    c = sp.c[:, 0]
    t1 = reach.nominal_reach_time(toy2, -c).time
    for k in (1, 2, 3, 5):
        tk = reach.nominal_reach_time(dataclasses.replace(toy2, order=k), -c).time
        rel = abs(tk**k - math.factorial(k) * t1) / (math.factorial(k) * t1)
        checks.append((rel <= 1e-12, f"k={k}: T_k^k vs k! T_1 rel err {rel:.2e}"))
    _verdict(10, checks)
