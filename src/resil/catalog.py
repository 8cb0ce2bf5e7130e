"""Builders for the two case-study systems: low-thrust spacecraft and octocopter.

The spacecraft model is the orbital-element averaging of a low-thrust engine:
6 states (a, e, i, Omega, omega, M), 14 Fourier-coefficient inputs in
[-1, 1]^14.  Two builders exist: the verbatim printed matrix (the golden
fixture for all spacecraft numbers) and the analytic block reconstruction from
the variational equations.  The absolute scale of the reconstruction does not
match the printed matrix under any single unit convention; only sign/sparsity
agreement is asserted, and no scale is fitted.

The octocopter has eight propellers: 1-4 vertical (standard X-configuration),
5-8 horizontal, with coupling constant b between the two groups.  Rotational
dynamics use squared propeller speeds in [0, omega_max^2]; translational
dynamics use thrust-shifted inputs so the model is driftless while hovering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .model import IntegratorSystem, read_json_object

#: Standard gravitational parameter of the Earth (m^3 s^-2).
MU_EARTH = 3.986e14

_SPACECRAFT_PRINTED = 1e-6 * np.array(
    [
        [0, 0, 0, 18314, 40583, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1.1, -3.4, 2.3, -0.4, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -5.2, 3.8, -0.9, -0.7, 0.2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -5.5, 4, -0.9, 5.6, -1.9],
        [3, -2.7, 0, 0, 0, 0, 0, 4.7, -1, 5.2, -3.8, 1.3, -5.6, 1.9],
        [-12.3, 7.2, -0.9, 0, 0, 0, 0, -3.5, 0.8, 0, 0, 0, 0, 0],
    ]
)

#: Target-minus-initial orbital-element distance of the raising maneuver
#: (a in km, e, then the four angles, read as degrees).
#:
#: Two points are open.  The last entry (mean anomaly) is 2.0, while
#: TABLE1_TARGET minus TABLE1_INITIAL gives 0 there (20 deg to 20 deg); the other
#: five entries match that difference.  And nothing in the repository settles
#: the units of the angles: t(d) changes with them (column 4 of the spacecraft
#: gives 2.62 with degrees and 81.2 with radians).
SPACECRAFT_TARGET_DISTANCE = np.array([667.0, 0.067, 2.0, 2.0, 2.0, 2.0])


@dataclass(frozen=True)
class OrbitalElements:
    """Keplerian elements: a in km; angles in radians internally."""

    a: float
    e: float
    i: float
    raan: float
    argp: float
    mean_anomaly: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.e < 1.0:
            raise ModelError(f"eccentricity must be in [0, 1), got {self.e}")
        if self.e < 1e-6:
            raise ModelError("eccentricity below 1e-6: 1/e poles in the B3/B4 blocks")
        if not 0.0 < self.i < math.pi:
            raise ModelError("inclination must be in (0, pi): cot(i)/csc(i) poles")
        if self.a <= 0.0:
            raise ModelError("semi-major axis must be positive")
        tol = 1e-9
        if abs(math.sin(self.argp)) < tol or abs(math.cos(self.argp)) < tol:
            raise ModelError(
                "argument of perigee with sin or cos zero: tan/cot poles in the B2 block"
            )

    @classmethod
    def from_degrees(
        cls, a_km: float, e: float, i: float, raan: float, argp: float, mean_anomaly: float
    ) -> "OrbitalElements":
        return cls(
            a=a_km,
            e=e,
            i=math.radians(i),
            raan=math.radians(raan),
            argp=math.radians(argp),
            mean_anomaly=math.radians(mean_anomaly),
        )


#: Initial state of the Table-1 raising maneuver.
TABLE1_INITIAL = OrbitalElements.from_degrees(6678.0, 0.67, 20.0, 20.0, 20.0, 20.0)
#: Target state of the Table-1 raising maneuver.
TABLE1_TARGET = OrbitalElements.from_degrees(7345.0, 0.737, 22.0, 22.0, 22.0, 20.0)


def spacecraft_printed() -> IntegratorSystem:
    """The 6x14 spacecraft matrix verbatim (x 1e-6), bounds [-1, 1]^14, k = 1.

    This is the authoritative fixture for all spacecraft golden numbers.  The
    matrix is printed to one decimal of 1e-6 (the two large entries of row 1 to
    units of 1e-6), so each entry is only known to within half of its last
    digit.  That rounding alone moves min(r(C), r(-C)) by up to about 0.05
    on some columns, so published values derived from an unrounded matrix
    cannot be matched to 1e-2 from this one.
    """
    return IntegratorSystem(
        name="spacecraft-printed",
        order=1,
        b_bar=_SPACECRAFT_PRINTED,
        u_min=-np.ones(14),
        u_max=np.ones(14),
    )


def _spacecraft_blocks(el: OrbitalElements) -> dict[str, np.ndarray]:
    """The five analytic submatrices of the averaged variational equations."""
    e = el.e
    i = el.i
    om = el.argp
    a_m = el.a * 1e3  # km -> m before sqrt(a/mu)
    se = math.sqrt(1.0 - e * e)
    b1 = np.array(
        [
            [a_m * e, 2.0 * a_m * se, 0.0, 0.0],
            [0.5 * (1.0 - e * e), -1.5 * e * se, se, -0.25 * e * se],
        ]
    )
    row = np.array([-1.5 * e / se, 0.5 * (1.0 + e * e) / se, -0.25 * e / se])
    b2 = np.vstack(
        [
            math.cos(om)
            * np.concatenate([row, [-0.5 * math.tan(om), 0.25 * e * math.tan(om)]]),
            (math.sin(om) / math.sin(i))
            * np.concatenate([row, [0.5 / math.tan(om), -0.25 * e / math.tan(om)]]),
        ]
    )
    b3 = np.array(
        [
            [se, -0.5 * se / e, 0.0],
            [-3.0, 1.5 * e + 0.5 / e, -0.5 * e * e],
        ]
    )
    b4 = np.array(
        [
            [0.5 * (2.0 - e * e) / e, -0.25],
            [-0.5 * (2.0 - e * e) * se / e, 0.25 * se],
        ]
    )
    b5 = (math.cos(i) / math.sin(i)) * np.array(
        [
            [
                1.5 * e * math.sin(om) / se,
                -0.5 * (1.0 + e * e) * math.sin(om) / se,
                0.25 * e * math.sin(om) / se,
                -0.5,
                0.25 * e,
            ],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    return {"B1": b1, "B2": b2, "B3": b3, "B4": b4, "B5": b5}


def spacecraft_bbar(el: OrbitalElements) -> IntegratorSystem:
    """Analytic reconstruction: B_bar = sqrt(a/mu) * block-assembled 6x14 matrix.

    Matches the printed matrix in sign and sparsity but not in absolute scale,
    which no single unit convention reconciles; nothing is fitted.
    """
    blocks = _spacecraft_blocks(el)
    a_m = el.a * 1e3
    scale = math.sqrt(a_m / MU_EARTH)
    m = np.zeros((6, 14))
    m[0:2, 3:7] = blocks["B1"]
    m[2:4, 9:14] = blocks["B2"]
    m[4:6, 0:3] = blocks["B3"]
    m[4:6, 7:9] = blocks["B4"]
    m[4:6, 9:14] = blocks["B5"]
    return IntegratorSystem(
        name="spacecraft-appendix",
        order=1,
        b_bar=scale * m,
        u_min=-np.ones(14),
        u_max=np.ones(14),
    )


# --------------------------------------------------------------------------
# Octocopter
# --------------------------------------------------------------------------

#: Maximal propeller speed, 8000 rpm in rad/s.
OMEGA_MAX = 8000.0 * 2.0 * math.pi / 60.0


@dataclass(frozen=True)
class OctocopterParams:
    """Physical parameters of the octocopter case study."""

    l: float = 0.4
    m: float = 1.64
    i_x: float = 0.044
    i_y: float = 0.044
    i_z: float = 0.088
    k_thrust: float = 1e-5
    d_drag: float = 0.3e-6
    i_rotor: float = 9e-5
    omega_max: float = OMEGA_MAX
    b: float = 0.64
    g: float = 9.81
    tau: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "l", "m", "i_x", "i_y", "i_z", "k_thrust",
            "d_drag", "i_rotor", "omega_max", "b", "g", "tau",
        ):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"octocopter parameter {name} must be positive")

    @property
    def max_thrust(self) -> float:
        """Per-propeller maximal thrust k * omega_max^2 (N)."""
        return self.k_thrust * self.omega_max**2


def octocopter_rotational(params: OctocopterParams | None = None) -> IntegratorSystem:
    """Linearized rotational dynamics: 3x8 matrix, inputs omega_i^2 in [0, omega_max^2].

    Rows are (roll, pitch, yaw) accelerations; propellers 1-4 are vertical,
    5-8 horizontal with coupling constant b.  Order is 1 for angular-velocity
    analysis; pass order 2 downstream for orientation-level quantities.
    """
    p = params or OctocopterParams()
    pattern = np.array(
        [
            [-1, 0, 1, 0, 0, 0, p.b, -p.b],
            [0, 1, 0, -1, p.b, -p.b, 0, 0],
            [-1, 1, -1, 1, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    gains = np.diag([p.l * p.k_thrust / p.i_x, p.l * p.k_thrust / p.i_y, p.d_drag / p.i_z])
    return IntegratorSystem(
        name="octocopter-rot",
        order=1,
        b_bar=gains @ pattern,
        u_min=np.zeros(8),
        u_max=np.full(8, p.omega_max**2),
        labels=tuple(f"prop{i}" for i in range(1, 9)),
    )


def octocopter_translational(
    params: OctocopterParams | None = None, psi: float = 0.0
) -> IntegratorSystem:
    """Level translational dynamics (1/m) R(psi) B_trans with thrust-shifted inputs.

    Inputs are propeller thrusts: vertical propellers carry the hover offset,
    u_i in [-m g/4, k omega_max^2 - m g/4] for i in 1..4; horizontal ones have
    u_i in [0, k omega_max^2].  R(psi) is the yaw rotation (z-up, right-handed).
    """
    p = params or OctocopterParams()
    b_trans = np.array(
        [
            [0, 0, 0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, -1],
            [1, 1, 1, 1, p.b, p.b, p.b, p.b],
        ],
        dtype=float,
    )
    rot = np.array(
        [
            [math.cos(psi), -math.sin(psi), 0.0],
            [math.sin(psi), math.cos(psi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    hover = p.m * p.g / 4.0
    top = p.max_thrust
    return IntegratorSystem(
        name=f"octocopter-trans:{math.degrees(psi):g}",
        order=1,
        b_bar=(rot @ b_trans) / p.m,
        u_min=np.array([-hover] * 4 + [0.0] * 4),
        u_max=np.array([top - hover] * 4 + [top] * 4),
        labels=tuple(f"prop{i}" for i in range(1, 9)),
    )


def resolve(name: str) -> IntegratorSystem:
    """Look a catalog system up by CLI name.

    Names: "spacecraft-printed", "spacecraft-appendix:<elements-json>",
    "octocopter-rot", "octocopter-trans:<psi-degrees>".
    """
    if name == "spacecraft-printed":
        return spacecraft_printed()
    if name == "octocopter-rot":
        return octocopter_rotational()
    if name == "octocopter-trans" or name.startswith("octocopter-trans:"):
        _, _, arg = name.partition(":")
        psi = math.radians(float(arg)) if arg else 0.0
        return octocopter_translational(psi=psi)
    if name == "spacecraft-appendix" or name.startswith("spacecraft-appendix:"):
        _, _, arg = name.partition(":")
        if not arg:
            return spacecraft_bbar(TABLE1_INITIAL)
        doc = read_json_object(arg, "element file")
        missing = [key for key in ("a", "e", "i", "argp") if key not in doc]
        if missing:
            raise ModelError(f"element file {arg!r} missing required field {missing[0]!r}")
        el = OrbitalElements.from_degrees(
            a_km=doc["a"], e=doc["e"], i=doc["i"],
            raan=doc.get("raan", 0.0), argp=doc["argp"],
            mean_anomaly=doc.get("mean_anomaly", 0.0),
        )
        return spacecraft_bbar(el)
    raise ModelError(f"unknown catalog entry {name!r}; see `resil catalog-list`")


def catalog_names() -> list[str]:
    return [
        "spacecraft-printed",
        "spacecraft-appendix:<elements-json>",
        "octocopter-rot",
        "octocopter-trans:<psi-degrees>",
    ]
