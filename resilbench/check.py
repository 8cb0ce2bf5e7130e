"""Output checks, run after the timed loop and outside the worker process.

References come from SciPy HiGHS, never from the program's own LP, and never
from the paper's published values.  Every op gets invariant checks; a seeded
subset of ops (`op["highs"]`) is re-derived with HiGHS: lambda+/-, r(+/-C),
r_q and the verdict for `check`, T_N* and T_M* (all vertices for p <= 4, a
seeded 16-vertex subset above) for `ratio`, r_q and T_M* for `oracle`, and
T_M*/T_N* for `simulate`.  Ops that repeat an input must repeat its --out JSON
byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib

import numpy as np
from scipy.optimize import linprog

#: Relative agreement required between the program and HiGHS.
REL_TOL = 1e-6
#: Oracle violations above this fail (the CLI's default --tol).
VIOLATION_TOL = 1e-9
#: Vertices re-derived per ratio op when 2^p is larger.
VERTEX_SAMPLE = 16
#: The program's lam > 0 threshold on the unit-direction multiplier; a
#: reference at or below it means "not reachable" for both.
LAMBDA_ZERO = 2e-9
#: Bang-bang crossing times are sampled at dt = 1e-3 with linear interpolation.
BANG_TOL = 1e-6

LOST_OCTO_PROP = 0
DOWN = np.array([0.0, 0.0, -1.0])


class Mismatch(Exception):
    """An output that disagrees with its reference."""


class Highs:
    """max { lam >= 0 : M x = lam d + shift, x in box } solved with HiGHS."""

    def __init__(self) -> None:
        self.solves = 0

    def scaling(self, m, lo, hi, d, shift=None) -> float:
        """lam* (0 when only lam = 0 is feasible), +inf if unbounded, None if infeasible."""
        m = np.asarray(m, dtype=float)
        d = np.asarray(d, dtype=float)
        norm = float(np.linalg.norm(d))
        a = np.hstack([m, -(d / norm)[:, None]])
        b = np.zeros(m.shape[0]) if shift is None else np.asarray(shift, dtype=float)
        row = np.maximum(np.abs(a).max(axis=1), np.abs(b))
        row[row == 0.0] = 1.0
        c = np.zeros(a.shape[1])
        c[-1] = -1.0
        bounds = list(zip(np.asarray(lo, float), np.asarray(hi, float))) + [(0.0, None)]
        self.solves += 1
        res = linprog(c, A_eq=a / row[:, None], b_eq=b / row, bounds=bounds, method="highs")
        if res.status == 2:
            return None
        if res.status == 3:
            return math.inf
        if res.status != 0:
            raise Mismatch(f"HiGHS status {res.status}: {res.message}")
        return max(-res.fun, 0.0) / norm

    def reach_time(self, m, lo, hi, d, shift=None) -> float:
        lam = self.scaling(m, lo, hi, d, shift)
        if lam is None or lam * float(np.linalg.norm(d)) <= LAMBDA_ZERO:
            return math.inf
        return 1.0 / lam


def _num(x) -> float:
    return math.inf if x == "inf" else float(x)


def _close(found: float, ref: float, what: str, rel: float = REL_TOL, floor: float = 0.0) -> None:
    if math.isinf(ref) or math.isinf(found):
        if found != ref:
            raise Mismatch(f"{what}: got {found!r}, reference {ref!r}")
        return
    if abs(found - ref) > rel * abs(ref) + floor:
        raise Mismatch(f"{what}: got {found!r}, reference {ref!r}")


def _split(model, lost):
    b, lo, hi = model
    kept = [j for j in range(b.shape[1]) if j not in lost]
    return b[:, kept], lo[kept], hi[kept], b[:, lost], lo[lost], hi[lost]


class Checker:
    def __init__(self, workload: str, resolve_catalog) -> None:
        self.workload = workload
        self.resolve_catalog = resolve_catalog
        self.highs = Highs()
        self.highs_ops = 0
        self._models: dict[str, tuple] = {}
        self._refs: dict[tuple, object] = {}
        self._bang_ref: float | None = None

    def model(self, spec: str):
        if spec not in self._models:
            if spec.startswith("catalog:"):
                sys_model = self.resolve_catalog(spec[len("catalog:"):])
                entry = (np.array(sys_model.b_bar), np.array(sys_model.u_min),
                         np.array(sys_model.u_max), int(sys_model.order))
            else:
                with open(spec, encoding="utf-8") as fh:
                    doc = json.load(fh)
                entry = (np.array(doc["B"], float), np.array(doc["u_min"], float),
                         np.array(doc["u_max"], float), int(doc["order"]))
            self._models[spec] = entry
        return self._models[spec]

    def _cached(self, key: tuple, compute):
        """HiGHS references per (model, what): catalog models recur in a plan."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    # -- per-workload checks ----------------------------------------------------

    def check(self, op: dict, doc) -> None:
        getattr(self, "_" + self.workload)(op, doc)
        if op["highs"]:
            self.highs_ops += 1

    def _controllable(self, b, lo, hi) -> bool:
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[0] == 0.0 or np.sum(sv > 1e-10 * sv[0]) < b.shape[0]:
            return False
        for j, sign in itertools.product(range(b.shape[0]), (1.0, -1.0)):
            e = np.zeros(b.shape[0])
            e[j] = sign
            if math.isinf(self.highs.reach_time(b, lo, hi, e)):
                return False
        return True

    def _r_pair(self, b, lo, hi, c, w_lo, w_hi):
        lams = []
        for sign in (1.0, -1.0):
            lam = self.highs.scaling(b, lo, hi, sign * c)
            lams.append(0.0 if lam is None else lam)
        lam_p, lam_m = lams

        def quotient(num, den):
            return 0.0 if abs(den) <= 1e-12 * max(1.0, abs(num)) else num / den

        r_p = 1.0 if math.isinf(lam_p) else quotient(w_lo + lam_p, w_hi + lam_p)
        r_m = 1.0 if math.isinf(lam_m) else quotient(w_hi - lam_m, w_lo - lam_m)
        return lam_p, lam_m, r_p, r_m

    def _sweep(self, op: dict, doc) -> None:
        b_bar, u_lo, u_hi, _ = self.model(op["model"])
        k = op["order"]
        reports = doc["reports"]
        if [r["lost_column"] for r in reports] != list(range(b_bar.shape[1])):
            raise Mismatch("check --lost all must report every column in order")
        controllable = None
        for rep in reports:
            r_p, r_m, r_q = rep["r_plus"], rep["r_minus"], rep["r_q"]
            if rep["order"] != k or not 0.0 <= r_q <= 1.0:
                raise Mismatch(f"column {rep['lost_column'] + 1}: malformed report {rep}")
            expect_q = min(r_p, r_m, 1.0) if rep["resilient"] else 0.0
            _close(r_q, expect_q, f"column {rep['lost_column'] + 1} r_q = min(r(C), r(-C))",
                   rel=1e-12)
            _close(rep["r_kq"], r_q ** (1.0 / k), "r_kq = r_q^(1/k)", rel=1e-12)
            if not op["highs"]:
                continue
            if controllable is None:
                controllable = self._cached((op["model"], "controllable"),
                                            lambda: self._controllable(b_bar, u_lo, u_hi))
            where = f"column {rep['lost_column'] + 1}"
            if rep["controllable"] != controllable:
                raise Mismatch(f"{where}: controllable {rep['controllable']}, HiGHS {controllable}")
            if not controllable:
                continue
            b, lo, hi, c, w_lo, w_hi = _split((b_bar, u_lo, u_hi), [rep["lost_column"]])
            if not np.any(c):
                continue
            lam_p, lam_m, ref_p, ref_m = self._cached(
                (op["model"], rep["lost_column"]),
                lambda: self._r_pair(b, lo, hi, c[:, 0], w_lo[0], w_hi[0]))
            floor = 1e-8 / float(np.linalg.norm(c))
            _close(_num(rep["lambda_plus"]), lam_p, f"{where} lambda+", floor=floor)
            _close(_num(rep["lambda_minus"]), lam_m, f"{where} lambda-", floor=floor)
            _close(r_p, ref_p, f"{where} r(C)", floor=REL_TOL)
            _close(r_m, ref_m, f"{where} r(-C)", floor=REL_TOL)
            margin = min(abs(ref_p), abs(ref_m), abs(1.0 - ref_p), abs(1.0 - ref_m))
            verdict = 0.0 < ref_p <= 1.0 and 0.0 < ref_m <= 1.0
            if margin > 1e-6 and rep["resilient"] != verdict:
                raise Mismatch(f"{where}: resilient {rep['resilient']}, HiGHS {verdict}")

    def _tm_star(self, b, lo, hi, c, vertices, d) -> float:
        worst = 0.0
        for w in vertices:
            worst = max(worst, self.highs.reach_time(b, lo, hi, d, shift=-(c @ w)))
        return worst

    def _scan(self, op: dict, doc) -> None:
        if "direction_scan" not in doc:
            raise Mismatch("direction_scan missing: split was built resilient")
        for name in ("grid_worst_w", "direction_scan"):
            if doc[name]["max_violation"] > VIOLATION_TOL:
                raise Mismatch(f"{name} max_violation {doc[name]['max_violation']}")
        if doc["homogeneity_error"] > VIOLATION_TOL:
            raise Mismatch(f"homogeneity_error {doc['homogeneity_error']}")
        if not op["highs"]:
            return
        b_bar, u_lo, u_hi, _ = self.model(op["model"])
        b, lo, hi, c, w_lo, w_hi = _split((b_bar, u_lo, u_hi), op["lost"])
        _, _, r_p, r_m = self._r_pair(b, lo, hi, c[:, 0], w_lo[0], w_hi[0])
        r_q = min(r_p, r_m)
        if not 0.0 < r_q <= 1.0:
            raise Mismatch(f"HiGHS r_q = {r_q}: input should be resilient")
        scan = doc["direction_scan"]
        _close(_num(scan["theory_value"]), 1.0 / r_q, "max(t(C), t(-C)) = 1/r_q")
        if _num(scan["worst_value"]) > (1.0 / r_q) * (1.0 + REL_TOL):
            raise Mismatch(f"t(d) = {scan['worst_value']} exceeds 1/r_q = {1.0 / r_q}")
        vertices = [w_lo, w_hi]
        tm = self._tm_star(b, lo, hi, c, vertices, np.array(op["d"]))
        _close(_num(doc["grid_worst_w"]["theory_value"]), tm, "grid theory T_M*(d)")

    def _multiloss(self, op: dict, doc) -> None:
        t_n, t_m, t = _num(doc["T_N"]), _num(doc["T_M"]), _num(doc["t"])
        if not all(math.isfinite(x) and x > 0.0 for x in (t_n, t_m, t)):
            raise Mismatch(f"non-finite or zero reach time: {doc}")
        _close(t, t_m / t_n, "t = T_M*/T_N*", rel=1e-12)
        if t < 1.0 - 1e-9:
            raise Mismatch(f"t = {t} < 1 although 0 lies in W_c")
        if not op["highs"]:
            return
        b_bar, u_lo, u_hi, _ = self.model(op["model"])
        d = np.array(op["d"])
        _close(t_n, self.highs.reach_time(b_bar, u_lo, u_hi, d), "T_N*")
        b, lo, hi, c, w_lo, w_hi = _split((b_bar, u_lo, u_hi), op["lost"])
        p = len(op["lost"])
        if 2 ** p <= VERTEX_SAMPLE:
            vertices = [np.array(v) for v in itertools.product(*zip(w_lo, w_hi))]
            _close(t_m, self._tm_star(b, lo, hi, c, vertices, d), "T_M* (all vertices)")
            return
        rng = np.random.default_rng(zlib.crc32(op["model"].encode()))
        picks = rng.random((VERTEX_SAMPLE, p)) < 0.5
        vertices = [np.where(pick, w_hi, w_lo) for pick in picks]
        sampled = self._tm_star(b, lo, hi, c, vertices, d)
        if sampled > t_m * (1.0 + REL_TOL):
            raise Mismatch(f"T_M* = {t_m} below a vertex reach time {sampled}")

    def _lagsim(self, op: dict, doc) -> None:
        if self._bang_ref is None:
            b_bar, u_lo, u_hi, _ = self.model("catalog:octocopter-trans:0")
            b, lo, hi, c, w_lo, w_hi = _split((b_bar, u_lo, u_hi), [LOST_OCTO_PROP])
            t_n = self.highs.reach_time(b_bar, u_lo, u_hi, DOWN)
            t_m = self._tm_star(b, lo, hi, c, [w_lo, w_hi], DOWN)
            self._bang_ref = t_m / t_n
        bang = doc["ratio_bangbang"]
        _close(bang, self._bang_ref, "ratio_bangbang = T_M*/T_N*", rel=BANG_TOL)
        if op["argv"][1] == "octo-vertical-lag":
            smooth = doc["ratio_smooth"]
            if not 0.0 < smooth < bang:
                raise Mismatch(f"ratio_smooth {smooth} not in (0, ratio_bangbang {bang})")


def check_records(checker: Checker, plan: list[dict], records: list[dict]) -> dict:
    """Check every record; returns {record position: reason} for failed ops."""
    failures: dict[int, str] = {}
    first_out: dict[int, str] = {}
    for pos, rec in enumerate(records):
        index = rec["i"] % len(plan)
        op = plan[index]
        if rec["error"] is not None or rec["code"] != 0:
            failures[pos] = rec["error"] or f"exit code {rec['code']}"
            continue
        if rec["out"] is None:
            failures[pos] = "no --out JSON written"
            continue
        if index in first_out:
            if rec["out"] != first_out[index]:
                failures[pos] = "--out JSON differs from an earlier run of the same input"
            continue
        first_out[index] = rec["out"]
        try:
            checker.check(op, json.loads(rec["out"]))
        except Mismatch as exc:
            failures[pos] = str(exc)
        except (KeyError, TypeError, ValueError) as exc:
            failures[pos] = f"malformed --out JSON: {type(exc).__name__}: {exc}"
    return failures
