"""Exact H-representation of a box image {M x : x in [lower, upper]}.

The image is a zonotope Z = c + sum_j g_j [-1, 1] with center c = M (lower +
upper)/2 and generators g_j = m_j (upper_j - lower_j)/2.  When rank M = n it is
the polytope {y : a.y <= h(a)}, h(a) = a.c + sum_j |a.g_j| the support function
of Z, over its facet normals a: the cofactor vectors of n - 1 independent
generators, with both signs (Girard, HSCC 2005), at most 2 C(m, n-1) of them for
m nonzero generators.  Cofactor vectors are wedge products, and subsets taken in
itertools.combinations order share their prefixes' (Gritzmann & Sturmfels, SIAM
J. Discrete Math. 1993): _image extends the k x k minors of each k-prefix by a
later column through a Laplace expansion along it, level by level, with index
and sign tables (_wedges) made once per (m, n).  State rows scaled to max-norm 1
(lam is invariant under that scaling) and generators normalized to unit length
keep the normals exact on badly scaled matrices.  Normals are never rounded;
each support value is evaluated at the normal actually computed, so every kept
inequality is valid for Z.  Without column j the normals of subsets without j
remain, their supports summed over the other columns (Zonotope.lambdas_without):
subtracting |a.g_j| + a.c_j would cancel away small ones.

Every reach time is a gauge of such an image: lp.max_scaled_direction(M, lower,
upper, d, rhs_shift=s) maximizes lam >= 0 subject to lam d/|d| + s in Z, one
simplex per pair; Zonotope.scalings answers a batch of (direction, shift) pairs
with a few array products over the facet inequalities.  One kernel, _exit, decides
how far each ray goes for scalings, lambdas_without and Zonotope.start (the facet
an LP starts at), in one pass over the facets.

build() returns None, and callers keep to the LP path, when M is rank-deficient
or when the candidate count exceeds FACETS_PER_LP times the LPs the batch would
otherwise solve, or MAX_CANDIDATES.  Inside an lp.reuse_scope it keeps each image
and each decline for rank, and hands them to later calls whatever LPs they offer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import LpError

#: Facet candidates that cost about one LP solve.  Measured on a 2-vCPU x86_64
#: VM, one BLAS thread, n = 6, 924-4004 candidates: build() costs 0.2-0.5 us per
#: candidate (det cofactors took 1.4-2.7), a gauge resilience.sweep 1.6-2.5 us and
#: one max_scaled_direction 0.3-0.9 ms: the sweep breaks even at 120-560 per LP.
#: 150 stays so that no build decision moves.
FACETS_PER_LP = 150

#: Facet candidates no build exceeds, whatever LPs it replaces: about 47 MB and
#: 0.04 s at n = 6 (some 470 traced bytes and 0.3-0.4 us per candidate, VM above).
MAX_CANDIDATES = 100_000

#: Singular values at or below this fraction of the largest count as zero (rank
#: of M), and so do (n-1)-volumes of n - 1 unit generators (no facet).
RANK_RTOL = 1e-10

#: A facet whose normal makes |a.d| at or below this fraction of |d| with the
#: (scaled) direction is parallel to it: it bounds no lam, it only has to hold.
PARALLEL_RTOL = 1e-12

#: Elements of one block of rays x facets that _exit takes at once.  scalings
#: passes it every facet for a chunk of directions x shifts that fits (at least
#: one pair), so its working memory stays O(facets + BLOCK_ELEMENTS) whatever
#: the batch size; lambdas_without passes blocks of BLOCK_ELEMENTS / m facet
#: rows, each for the rays +g_j and -g_j of every column asked.
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

    def scalings(self, directions: np.ndarray, shifts: np.ndarray, facets: bool = False):
        """lam_hat[i, j] = max{lam >= 0 : lam d_i/|d_i| + s_j in Z}.

        The same normalized multiplier as the lam_hat of
        lp.max_scaled_direction(M, lower, upper, d_i, rhs_shift=s_j): nan when
        no lam >= 0 is feasible (its negative certificate) and +inf when lam is
        unbounded.  Feasibility is decided at the largest lam every facet
        allows, within a relative tolerance of lp.FEAS_TOL, so lam_hat = 0
        when s_j lies on the boundary of Z and d_i points out of it.  With
        facets=True also (lam_hat, facet): the row of normals where each ray
        leaves Z, as _exit names it.
        """
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        s = np.atleast_2d(np.asarray(shifts, dtype=float))
        norms = np.sqrt((d * d).sum(axis=1))
        if not norms.all():
            raise LpError("direction d must be nonzero")
        lam, facet = np.empty((len(d), len(s))), np.empty((len(d), len(s)), dtype=int)
        step = max(1, BLOCK_ELEMENTS // len(self.support))
        for i in range(0, len(d), step):
            scaled = d[i : i + step] / norms[i : i + step, None] / self.scale
            toward, size = scaled @ self.normals.T, np.sqrt((scaled * scaled).sum(axis=1))
            pairs = max(1, BLOCK_ELEMENTS // toward.size)
            for j in range(0, len(s), pairs):
                shifted = (s[j : j + pairs] / self.scale) @ self.normals.T
                slack, extent = (self.support - shifted)[None], self.extent + np.abs(shifted)
                at = slice(i, i + step), slice(j, j + pairs)
                block = (0, slack, toward[:, None], size[:, None, None], extent)
                lam[at], facet[at] = _exit([block], facets)
        return (lam, facet) if facets else lam

    def start(self, d: np.ndarray, shift: np.ndarray, facet=None) -> np.ndarray | None:
        """subsets row of the facet where lam d/|d| + shift leaves Z, None if none bounds it:
        `facet` where a scalings screen named it, else _exit's on this one ray."""
        if facet is None:
            scaled = d / np.linalg.norm(d) / self.scale
            shifted = self.normals @ (shift / self.scale)
            block = (0, self.support - shifted, self.normals @ scaled, np.linalg.norm(scaled),
                     self.extent + np.abs(shifted))
            facet = _exit([block], facets=True)[1]
        return None if facet < 0 else self.subsets[facet]

    def lambdas_without(self, columns) -> tuple[np.ndarray, np.ndarray]:
        """(lam, solid): lam[i] = (lam+, lam-), max{lam >= 0 : +/-lam g_j in Z_j}, j = columns[i].

        g_j = M_j (upper_j - lower_j)/2 and Z_j is the image without column j.
        lam is decided by _exit, as scalings' is (nan: infeasible); solid[i] is
        False where the other generators have rank < n (Z_j is flat).  Facets
        are taken in blocks of BLOCK_ELEMENTS / m, the n x m rank stacks in
        chunks of BLOCK_ELEMENTS / (n m).
        """
        cols, norms = np.asarray(columns, dtype=int), np.linalg.norm(self.generators, axis=0)
        if not np.all(norms[cols] > 0.0):
            raise LpError("a zero column has no lambda pair")
        n, m = self.generators.shape
        solid, step = np.empty(len(cols), dtype=bool), max(1, BLOCK_ELEMENTS // (n * m))
        for i in range(0, len(cols), step):
            stacks = self.generators * (cols[i : i + step, None, None] != np.arange(m))
            solid[i : i + step] = _full_rank(stacks)
        centers, rows = _others(self.centers.T), max(1, BLOCK_ELEMENTS // m)

        def blocks():  # Z_j's facets lack j in subsets (the rest hold at every lam)
            for f in range(0, len(self.support), rows):
                normals = self.normals[f : f + rows].T
                toward = self.generators.T @ normals
                offset, width = (centers @ normals)[cols], _others(np.abs(toward))[cols]
                holds = np.zeros(toward.shape, dtype=bool)
                holds[self.subsets[f : f + rows].T, np.arange(toward.shape[1])] = True
                slack, toward = np.where(holds[cols], np.inf, offset + width), toward[cols]
                rays = np.stack([toward, -toward])  # along +g_j and -g_j
                yield f, slack, rays, norms[cols, None], np.abs(offset) + width

        return _exit(blocks())[0].T, solid


def _exit(blocks, facets: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(lam, facet) per ray: max{lam >= 0 : slack - lam toward >= -tol on every facet}.

    blocks yields (first, slack, toward, size, extent) for the facets first, first + 1,
    ...: arrays over (rays..., facets), tol = lp.FEAS_TOL extent.  A facet with |toward|
    at most PARALLEL_RTOL size (the ray's length) is parallel to the ray.  One pass keeps
    the least slack/toward over the facets the ray moves toward, the greatest (slack +
    tol)/toward over those it moves away from (they hold from there on), and whether the
    rest hold (slack >= -tol, as the bounding ones must at lam = 0).  lam is nan where
    no lam >= 0 holds and +inf where no facet bounds it.  facet (-1 unless facets=True)
    attains lam, the lowest on ties as one argmin over all facets gives; -1 at lam = +inf.
    """
    least, floor, facet = np.inf, -np.inf, -1
    for first, slack, toward, size, extent in blocks:
        level, loose = PARALLEL_RTOL * size, slack + lp.FEAS_TOL * extent
        fails = np.where(loose >= 0.0, -np.inf, np.inf)  # exactly where slack >= -tol
        with np.errstate(divide="ignore", invalid="ignore"):
            limits = np.where(toward > level, slack / toward, np.inf)
            floors = np.where(toward < -level, loose / toward, fails)
        bound = limits.min(axis=-1)
        if facets:
            facet = np.where(bound < least, limits.argmin(axis=-1) + first, facet)
        least, floor = np.minimum(least, bound), np.maximum(floor, floors.max(axis=-1))
    lam = np.maximum(least, 0.0)
    return np.where(lam >= floor, lam, np.nan), facet  # floor is never nan: +inf stays


def _full_rank(generators: np.ndarray) -> np.ndarray:
    """rank n per (..., n, m) stack of unit-normalized generators: n nonzero ones
    at least, and RANK_RTOL on the singular values (zero ones add none)."""
    norms = np.sqrt((generators * generators).sum(axis=-2, keepdims=True))
    nonzero = norms > 0.0
    sv = np.linalg.svd(generators / np.where(nonzero, norms, 1.0), compute_uv=False)
    enough = nonzero.sum(axis=(-2, -1)) >= generators.shape[-2]
    return enough & (sv[..., -1] > RANK_RTOL * sv[..., 0])


def _others(terms: np.ndarray) -> np.ndarray:
    """Row j: the sum of the other rows, a product with the 0/1 matrix 1 - I taken
    BLOCK_ELEMENTS / m rows at a time.  No row's share is subtracted from a total,
    which would cancel small sums away."""
    rows = np.arange(len(terms))
    step = max(1, BLOCK_ELEMENTS // len(rows))
    chunks = range(0, len(rows), step)
    return np.concatenate([(rows[i : i + step, None] != rows) @ terms for i in chunks])


def build(m: np.ndarray, lower: np.ndarray, upper: np.ndarray, lps: int) -> Zonotope | None:
    """H-representation of {M x : x in [lower, upper]}, or None for the LP path.

    Inside an lp.reuse_scope, first the image kept for the same bytes of (M, lower,
    upper), whatever lps.  Else None when the candidate count exceeds FACETS_PER_LP
    * lps, lps being the LP solves the caller's batch replaces, or MAX_CANDIDATES
    (checked before any work on M, and not kept), or when M has rank below n.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    kept = {} if lp._images is None else lp._images
    key = (m.shape, m.tobytes(), lower.tobytes(), upper.tobytes())
    if key in kept:
        return kept[key]
    nonzero = np.flatnonzero(np.any(m != 0.0, axis=0))
    if candidate_count(m.shape[0], len(nonzero)) > min(MAX_CANDIDATES, FACETS_PER_LP * lps):
        return None
    kept[key] = image = _image(m, lower, upper, nonzero)
    return image


def _image(m, lower, upper, nonzero) -> Zonotope | None:
    """build's image once its budget holds: None when M has rank below n."""
    n = m.shape[0]
    gens = m * ((upper - lower) / 2.0)
    scale = np.abs(gens).max(axis=1)
    if np.any(scale == 0.0):
        return None
    gens = gens / scale[:, None]
    if not _full_rank(gens):
        return None
    centers = m * ((lower + upper) / 2.0) / scale[:, None]

    # Normal a_i = (-1)^i det(rows other than i) of n - 1 unit generators, grown along
    # _wedges' levels; its length is their (n-1)-volume, at most RANK_RTOL: no facet.
    unit, cofactors = gens[:, nonzero] / np.linalg.norm(gens[:, nonzero], axis=0), np.ones((1, 1))
    subsets, levels = _wedges(len(nonzero), n)
    for table, parent, column in levels:
        cofactors = (unit.T @ (cofactors @ table).reshape(len(cofactors), n, -1))[parent, column]
    volume = np.linalg.norm(cofactors, axis=1)
    kept = volume > RANK_RTOL
    normals = cofactors[kept] / volume[kept, None]
    normals = np.vstack([normals, -normals])
    offset, width = normals @ centers.sum(axis=1), np.abs(normals @ gens).sum(axis=1)
    subsets = np.tile(nonzero[subsets[kept]], (2, 1))
    return Zonotope(normals, offset + width, np.abs(offset) + width, scale, subsets, gens, centers)


@functools.lru_cache(maxsize=32)
def _wedges(count: int, n: int) -> tuple[np.ndarray, list]:
    """(n-1)-subsets of range(count) in combinations order; per level (table, parent, column)."""
    levels, columns, column = [], np.arange(count), np.full(1, -1)  # the empty prefix's end
    for k in range(n - 1):
        rows = {r: i for i, r in enumerate(itertools.combinations(range(n), k))}
        last = k + 2 == n  # list entry i as (-1)^i det(rows other than i)
        grown = list(itertools.combinations(range(n), k + 1))[:: -1 if last else 1]
        table = np.zeros((len(rows), n, len(grown)))
        for j, r in enumerate(grown):
            for t, a in enumerate(r):
                table[rows[r[:t] + r[t + 1 :]], a, j] = (-1.0) ** (t + k + j * last)
        parent, column = np.nonzero((column[:, None] < columns) & (columns <= count - n + k + 1))
        levels.append((table.reshape(len(rows), -1), parent, column))
    return np.array(list(itertools.combinations(range(count), n - 1)), dtype=int), levels
