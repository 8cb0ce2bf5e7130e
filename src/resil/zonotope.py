"""Exact H-representation of a box image {M x : x in [lower, upper]}.

The image is a zonotope Z = c + sum_j g_j [-1, 1] with center c = M (lower +
upper)/2 and generators g_j = m_j (upper_j - lower_j)/2.  When rank M = n it is
the polytope {y : a.y <= h(a)} over its facet normals a: each normal is the
generalized cross product (cofactor vector) of n - 1 independent generators,
taken with both signs, and h(a) = a.c + sum_j |a.g_j| is the support function
of Z (Girard, HSCC 2005).  There are at most 2 C(m, n-1) candidate normals for
m nonzero generators (McMullen's facet bound for zonotopes).  Without column j
(Zonotope.without) those whose generators exclude j remain, their supports
re-evaluated: subtracting |a.g_j| + a.c_j would cancel away small ones.

Every reach time is a gauge of such an image: lp.max_scaled_direction(M,
lower, upper, d, rhs_shift=s) maximizes lam >= 0 subject to lam d/|d| + s in
Z.  Zonotope.scalings answers a whole batch of (direction, shift) pairs from
the facet inequalities with a few array products, where the LP path solves
one simplex per pair.  Two choices keep it exact on badly scaled matrices:
the state coordinates are scaled so each row of the generators has max-norm 1
(lam is invariant under that scaling), and the generators are normalized to
unit length before their cofactors are taken.  Normals are never rounded;
each support value is evaluated at the normal actually computed, so every
kept inequality is valid for Z.

build() returns None, and callers keep to the LP path, when M is rank-deficient
or when the candidate count exceeds FACETS_PER_LP times the LPs the batch would
otherwise solve, or MAX_CANDIDATES.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import LpError

#: Facet candidates that cost about one LP solve.  Measured on a 2-vCPU x86_64
#: VM: build() costs 1.3-4.0 us per candidate with cofactor normals (n = 3..6;
#: SVD normals took 2.5-6.4 us), a gauge resilience.sweep 4.2-7.0 us at n = 6
#: and one lp.solve 0.5-1.5 ms: the sweep breaks even at 190-270 per LP.
FACETS_PER_LP = 150

#: Facet candidates no build exceeds, whatever LPs it replaces: about 77 MB and
#: 0.8 s at n = 6 (some 770 bytes and 8 us per candidate on the VM above).
MAX_CANDIDATES = 100_000

#: Singular values at or below this fraction of the largest count as zero (rank
#: of M), and so do (n-1)-volumes of n - 1 unit generators (no facet).
RANK_RTOL = 1e-10

#: A facet whose normal makes |a.d| at or below this fraction of |d| with the
#: (scaled) direction is parallel to it: it bounds no lam, it only has to hold.
PARALLEL_RTOL = 1e-12

#: Elements of one (directions x shifts x facets) block.  scalings takes
#: directions and shifts in chunks that fit it (at least one pair per block), so
#: its working memory stays O(facets + BLOCK_ELEMENTS) whatever the batch size.
BLOCK_ELEMENTS = 1 << 15


def candidate_count(n: int, generators: int) -> int:
    """2 C(m, n-1): candidate facet normals of n-dimensional image of m generators."""
    return 2 * math.comb(generators, n - 1)


@dataclass(frozen=True)
class Zonotope:
    """{y : normals @ (y / scale) <= support}: an image in row-scaled coordinates.

    normals are unit vectors in the scaled coordinates y / scale; extent holds
    |a.c| + sum_j |a.g_j| per facet, the magnitude its feasibility tolerance
    is relative to.  subsets holds the n - 1 columns of M each normal came
    from, generators and centers the scaled g_j and c_j (0 outside the image).
    """

    normals: np.ndarray
    support: np.ndarray
    extent: np.ndarray
    scale: np.ndarray
    subsets: np.ndarray
    generators: np.ndarray
    centers: np.ndarray

    def without(self, j: int) -> Zonotope | None:
        """The image with column j of M removed, or None when the rest has rank < n."""
        generators, centers = self.generators.copy(), self.centers.copy()
        generators[:, j] = centers[:, j] = 0.0
        if not _full_rank(generators):
            return None
        rows = ~np.any(self.subsets == j, axis=1)
        return _facets(self.normals[rows], self.scale, self.subsets[rows], generators, centers)

    def scalings(self, directions: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """lam_hat[i, j] = max{lam >= 0 : lam d_i/|d_i| + s_j in Z}.

        The same normalized multiplier as the lam_hat of
        lp.max_scaled_direction(M, lower, upper, d_i, rhs_shift=s_j): nan when
        no lam >= 0 is feasible (its negative certificate) and +inf when lam is
        unbounded.  Feasibility is decided at the largest lam every facet
        allows, within a relative tolerance of lp.FEAS_TOL, so lam_hat = 0
        when s_j lies on the boundary of Z and d_i points out of it.
        """
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        s = np.atleast_2d(np.asarray(shifts, dtype=float))
        norms = np.linalg.norm(d, axis=1)
        if np.any(norms == 0.0):
            raise LpError("direction d must be nonzero")
        step = max(1, BLOCK_ELEMENTS // len(self.support))
        out = np.empty((len(d), len(s)))
        for i in range(0, len(d), step):
            out[i : i + step] = self._block(d[i : i + step] / norms[i : i + step, None], s)
        return out

    def binding(self, d: np.ndarray, shift: np.ndarray) -> np.ndarray | None:
        """subsets row of the facet where lam d/|d| + shift leaves Z, or None if none bounds it."""
        scaled = d / np.linalg.norm(d) / self.scale
        toward = self.normals @ scaled
        bounding = np.flatnonzero(toward > PARALLEL_RTOL * np.linalg.norm(scaled))
        if not len(bounding):
            return None
        slack = self.support[bounding] - self.normals[bounding] @ (shift / self.scale)
        return self.subsets[bounding[np.argmin(slack / toward[bounding])]]

    def _block(self, unit: np.ndarray, s: np.ndarray) -> np.ndarray:
        """scalings of unit directions whose (directions x facets) products fit a block."""
        scaled = unit / self.scale
        toward = scaled @ self.normals.T
        level = PARALLEL_RTOL * np.linalg.norm(scaled, axis=1)[:, None]
        bounding = toward > level
        toward[np.abs(toward) <= level] = 0.0
        out = np.empty((len(unit), len(s)))
        step = max(1, BLOCK_ELEMENTS // toward.size)
        for j in range(0, len(s), step):
            shifted = (s[j : j + step] / self.scale) @ self.normals.T
            slack = (self.support - shifted)[None]
            limits = np.divide(
                slack, toward[:, None], where=bounding[:, None],
                out=np.full((len(unit), len(shifted), len(self.support)), np.inf),
            )
            lam = np.maximum(limits.min(axis=2), 0.0)
            tol = lp.FEAS_TOL * (self.extent + np.abs(shifted))
            with np.errstate(invalid="ignore"):
                feasible = np.all(slack - lam[..., None] * toward[:, None] >= -tol, axis=2)
            out[:, j : j + step] = np.where(feasible | np.isinf(lam), lam, np.nan)
        return out


def _full_rank(generators: np.ndarray) -> bool:
    """rank n for the unit-normalized nonzero generators (RANK_RTOL on singular values)."""
    unit = generators[:, np.any(generators != 0.0, axis=0)]
    sv = np.linalg.svd(unit / np.linalg.norm(unit, axis=0), compute_uv=False)
    return unit.shape[1] >= unit.shape[0] and bool(sv[-1] > RANK_RTOL * sv[0])


def build(m: np.ndarray, lower: np.ndarray, upper: np.ndarray, lps: int) -> Zonotope | None:
    """H-representation of {M x : x in [lower, upper]}, or None for the LP path.

    None when M has rank below n, or when its candidate count exceeds
    FACETS_PER_LP * lps, lps being the LP solves the caller's batch replaces, or
    MAX_CANDIDATES; the count is checked before any work on M.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = m.shape[0]
    nonzero = np.flatnonzero(np.any(m != 0.0, axis=0))
    if candidate_count(n, len(nonzero)) > min(MAX_CANDIDATES, FACETS_PER_LP * lps):
        return None
    gens = m * ((upper - lower) / 2.0)
    scale = np.abs(gens).max(axis=1)
    if np.any(scale == 0.0):
        return None
    gens = gens / scale[:, None]
    if not _full_rank(gens):
        return None
    centers = m * ((lower + upper) / 2.0) / scale[:, None]

    # Normal a_i = (-1)^i det(rows other than i) of n - 1 unit generators: its
    # length is their (n-1)-volume; at most RANK_RTOL means rank < n - 1, no facet.
    subsets = nonzero[np.array(list(itertools.combinations(range(len(nonzero)), n - 1)), dtype=int)]
    unit = (gens[:, subsets] / np.linalg.norm(gens, axis=0)[subsets]).transpose(1, 0, 2)
    minors = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    cofactors = np.linalg.det(unit[:, minors, :]) * (-1.0) ** np.arange(n)
    volume = np.linalg.norm(cofactors, axis=1)
    kept = volume > RANK_RTOL
    normals = cofactors[kept] / volume[kept, None]
    subsets = np.tile(subsets[kept], (2, 1))
    return _facets(np.vstack([normals, -normals]), scale, subsets, gens, centers)


def _facets(normals, scale, subsets, gens, centers) -> Zonotope:
    """The Zonotope of these facet normals, each support evaluated at its normal."""
    offset = normals @ centers.sum(axis=1)
    width = np.abs(normals @ gens).sum(axis=1)
    return Zonotope(normals, offset + width, np.abs(offset) + width, scale, subsets, gens, centers)
