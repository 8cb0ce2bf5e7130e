"""Exact H-representation of a box image {M x : x in [lower, upper]}.

The image is a zonotope Z = c + sum_j g_j [-1, 1] with center c = M (lower + upper)/2
and generators g_j = m_j (upper_j - lower_j)/2.  When rank M = n it is the polytope
{y : a.y <= h(a)}, h(a) = a.c + sum_j |a.g_j| the support function of Z, over its facet
normals a: the cofactor vectors of n - 1 independent generators, with both signs
(Girard, HSCC 2005), at most 2 C(m, n-1) of them for m nonzero generators.  Z is
centrally symmetric: it is kept as slabs -h(-a) <= a.y <= h(a), one per normal, with the
supports h+ = a.c + w and h- = w - a.c, w = sum_j |a.g_j|.  Cofactor vectors are wedge
products, and subsets taken in itertools.combinations order share their prefixes'
(Gritzmann & Sturmfels, SIAM J. Discrete Math. 1993): _image extends the k x k minors of
each k-prefix by a later column through a Laplace expansion along it, level by level,
with index and sign tables (_wedges) made once per (m, n).  Rows scaled to max-norm 1 (lam
is invariant under that scaling) and unit generators keep the normals exact on badly
scaled matrices; supports are evaluated at the normals computed, so every kept inequality
is valid for Z.  Without column j the normals of subsets without j remain, their supports
summed over the other columns (Zonotope.lambdas_without): no share is subtracted, and
no rank is tested, since a flat Z_j gives lam = 0 up to rounding.

Every reach time is a gauge of such an image: lp.max_scaled_direction(M, lower, upper,
d, rhs_shift=s) maximizes lam >= 0 subject to lam d/|d| + s in Z, one simplex per pair;
Zonotope.scalings answers a batch of (direction, shift) pairs from a few array products
over the slabs.  One kernel, _exit, reads each slab once to decide how far each ray
goes, for scalings and lambdas_without, which return lam only; for Zonotope.start's
one ray (T_N*) it also names the facet where that ray leaves Z, the basis its LP starts
at.  Zonotope.worst_vertex asks it how far one ray goes through each slab of Z eroded by
-C W: the first slabs it leaves give T_M*'s lam, its worst vertex and the facet its LP
starts at, and no 2^p vertices are screened.

build() declines (None: callers keep to the LP path) only where M has rank below n or
its candidates exceed MAX_CANDIDATES.  It keeps nothing: a system holds B_bar's image and
a split B's (model.IntegratorSystem.image, model.ActuatorSplit.image), built at first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import LpError

#: Facet candidates no build exceeds: about 47 MB and 0.04 s at n = 6 (some 470 traced
#: bytes and 0.3-0.4 us per candidate, one BLAS thread on a 2-vCPU x86_64 VM).
MAX_CANDIDATES = 100_000

#: Singular values at or below this fraction of the largest count as zero (rank
#: of M), and so do (n-1)-volumes of n - 1 unit generators (no facet).
RANK_RTOL = 1e-10

#: A facet whose normal makes |a.d| at or below this fraction of |d| with the
#: (scaled) direction is parallel to it: it bounds no lam, it only has to hold.
PARALLEL_RTOL = 1e-12

#: Screened vertex times within this relative distance of the largest count as
#: tied; the lowest lexicographic index among them is the worst vertex.  The
#: gauge agrees with the LP to about 1e-13 relative on the catalog systems.
#: Zonotope.worst_vertex applies the same rule to the eroded facets: those the
#: ray leaves within this fraction of the first are tied, and so are the two
#: bounds of an axis that move such a facet's side by at most this fraction.
VERTEX_TIE_RTOL = 1e-12

#: Elements of one block of rays x slabs that _exit takes at once (scalings: all slabs for a
#: chunk of directions x shifts, at least one pair; lambdas_without: BLOCK_ELEMENTS / 2m slabs
#: for the rays +/-g_j asked).  64 KiB of float64 stays under glibc's default 128 KiB mmap
#: and heap-trim thresholds, so no block temporary is mapped and faulted in afresh: at 2^15 a
#: spacecraft-printed `check --lost all` took some 910 minor faults, now about 1, and traced
#: peaks fell from 3.9 to 0.71 MB (lambdas_without, 14 columns), 1.0 to 0.45 MB (12 axes).
BLOCK_ELEMENTS = 1 << 13


def candidate_count(n: int, generators: int) -> int:
    """2 C(m, n-1): candidate facet normals of n-dimensional image of m generators."""
    return 2 * math.comb(generators, n - 1)


@dataclass(frozen=True)
class Zonotope:
    """{y : -minus <= normals @ (y / scale) <= plus}: an image's K slabs, row-scaled.

    normals are unit vectors a in the scaled coordinates y / scale, one per facet pair +a,
    -a, with the supports h+ = a.c + w (plus), h- = w - a.c (minus) and max(h+, h-) =
    |a.c| + w exactly (extent, what both sides' tolerances are relative to).  subsets holds
    the n - 1 columns of M each normal came from, generators and centers the scaled g_j and
    c_j (0 outside the image).  start names a facet by the subsets row of its slab.
    """

    normals: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    extent: np.ndarray
    scale: np.ndarray
    subsets: np.ndarray
    generators: np.ndarray
    centers: np.ndarray

    def scalings(self, directions: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """lam_hat[i, j] = max{lam >= 0 : lam d_i/|d_i| + s_j in Z}.

        lp.max_scaled_direction(M, lower, upper, d_i, rhs_shift=s_j).lam_hat, in the same
        convention: nan when no lam >= 0 is feasible, +inf when lam is unbounded, and
        reach._order1_times turns either into a time.  Feasibility is decided at the
        largest lam every facet allows, within a relative tolerance of lp.FEAS_TOL, so
        lam_hat = 0 when s_j lies on the boundary of Z and d_i points out of it.
        """
        d, s = np.array(directions, dtype=float, ndmin=2), np.array(shifts, dtype=float, ndmin=2)
        norms = np.sqrt(np.add.reduce(d * d, axis=1))
        if not norms.all():
            raise LpError("direction d must be nonzero")
        lam, step = np.empty((len(d), len(s))), max(1, BLOCK_ELEMENTS // len(self.plus))
        for i in range(0, len(d), step):
            scaled = d[i : i + step] / norms[i : i + step, None] / self.scale
            toward, size = scaled @ self.normals.T, np.sqrt(np.add.reduce(scaled * scaled, axis=1))
            pairs = max(1, BLOCK_ELEMENTS // toward.size)
            for j in range(0, len(s), pairs):
                shifted = (s[j : j + pairs] / self.scale) @ self.normals.T
                lam[i : i + step, j : j + pairs] = _exit([(
                    0, self.plus - shifted, self.minus + shifted, toward[:, None],
                    size[:, None, None], self.extent + np.abs(shifted))])
        return lam

    def start(self, d: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(lam_hat, row) of the one ray lam d/|d| + shift, from one _exit pass: lam_hat by
        scalings' rule (nan where the ray misses Z), and the subsets row of the facet where
        the ray leaves Z, the basis an LP starts at (None if no facet bounds it)."""
        scaled = d / np.sqrt(d @ d) / self.scale
        shifted = self.normals @ (shift / self.scale)
        lam, row = _exit([(0, self.plus - shifted, self.minus + shifted, self.normals @ scaled,
                           np.sqrt(scaled @ scaled), self.extent + np.abs(shifted))], facet=True)
        return lam, (None if row < 0 else self.subsets[row % len(self.plus)])

    def worst_vertex(self, d: np.ndarray, c: np.ndarray, w_min: np.ndarray,
                     w_max: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
        """(lam_hat, w, row): the vertex w of W = [w_min, w_max] minimizing max{lam >= 0 :
        lam d/|d| - C w in Z}, that minimum lam_hat, and the subsets row of the eroded slab
        the ray leaves first, the facet start(d, -C w) names; None where the slabs cannot tell.

        While every -C w lies inside Z, that minimum is where the ray leaves Z minus -C W
        (Minkowski difference): Z's slabs with the eroded sides plus + sum_j min(t_j w_min_j,
        t_j w_max_j) and minus - sum_j max(...), t = a.C (Althoff, arXiv:1512.02794).  _exit
        reads each slab's own exit.  On each slab the ray leaves by within VERTEX_TIE_RTOL of
        the first, w takes the bound minimizing t.w on the +a side, maximizing it on the -a
        side, and w_min where the two move that side (so lam) by at most VERTEX_TIE_RTOL of it
        (t_j of a C_j twin to a facet's columns rounds to about 1e-17, not 0).  Of those
        vertices, all worst, w is the first in lexicographic order, as the screen's.  row
        follows start's rule on exact ties: the +a sides first, then the lowest slab.  None
        when an eroded side is at most lp.FEAS_TOL extent, or the ray leaves unbounded or at
        lam_hat <= lp.UNIT_THRESHOLD (an infinite time).
        """
        t = self.normals @ (c / self.scale[:, None])
        low, high = t * w_min, t * w_max
        plus = self.plus + np.minimum(low, high).sum(axis=1)
        minus = self.minus - np.maximum(low, high).sum(axis=1)
        if not (np.minimum(plus, minus) > lp.FEAS_TOL * self.extent).all():
            return None
        scaled = d / np.sqrt(d @ d) / self.scale
        toward = self.normals @ scaled
        lam = _exit([(0, plus[:, None], minus[:, None], toward[:, None],  # lam per slab
                      np.sqrt(scaled @ scaled), self.extent[:, None])])
        least = lam.min()
        if not lp.UNIT_THRESHOLD < least < math.inf:
            return None
        # w_max moves the side each slab's ray meets by sign(toward) (high - low): worse past tol
        ahead = toward > 0.0
        near = np.where(ahead, plus, minus)
        worse = np.sign(toward)[:, None] * (high - low) < -VERTEX_TIE_RTOL * near[:, None]
        w = np.where(min(worse[lam * (1.0 - VERTEX_TIE_RTOL) <= least].tolist()), w_max, w_min)
        first = np.concatenate([np.where(ahead, lam, np.inf), np.where(ahead, np.inf, lam)])
        return least, w, self.subsets[first.argmin() % len(lam)]

    def lambdas_without(self, columns) -> np.ndarray:
        """lam[i] = (lam+, lam-), max{lam >= 0 : +/-lam g_j in Z_j}, j = columns[i].

        g_j = M_j (upper_j - lower_j)/2 and Z_j is the image without column j.  lam is
        decided by _exit, as scalings' is (nan: infeasible).  Where Z_j is flat, its
        facets from the other columns bound the hyperplane it lies in, which g_j leaves
        (the whole image has rank n): lam is 0 up to rounding, or nan.
        """
        cols, norms = np.asarray(columns, dtype=int), np.sqrt((self.generators**2).sum(axis=0))
        if not (norms[cols] > 0.0).all():
            raise LpError("a zero column has no lambda pair")
        m = self.generators.shape[1]
        centers, rows = _others(self.centers.T), max(1, BLOCK_ELEMENTS // (2 * m))

        def blocks():  # Z_j's slabs lack j in subsets; -g_j meets (h+, h-) as g_j (h-, h+)
            for f in range(0, len(self.plus), rows):
                normals = self.normals[f : f + rows].T
                toward = self.generators.T @ normals
                offset, width = (centers @ normals)[cols], _others(np.abs(toward))[cols]
                holds = np.zeros(toward.shape, dtype=bool)
                holds[self.subsets[f : f + rows].T, np.arange(toward.shape[1])] = True
                sides = np.where(holds[cols], np.inf, [offset + width, width - offset])
                yield f, sides, sides[::-1], toward[cols], norms[cols, None], np.maximum(*sides)

        return _exit(blocks()).T


def _exit(blocks, facet: bool = False):
    """lam per ray: max{lam >= 0 : -minus - tol <= lam toward <= plus + tol}.

    blocks yields (first, plus, minus, toward, size, extent) for slabs first, first + 1, ...:
    arrays over (rays..., slabs), plus and minus the slacks of the +a and -a sides, toward =
    a.(ray), tol = lp.FEAS_TOL extent.  Where |toward| <= PARALLEL_RTOL size (the ray's length)
    both sides must hold; else the side the ray moves toward must hold at lam = 0 and bounds
    lam by slack/|toward|, the other sets the floor -(slack + tol)/|toward|.  lam: nan below a
    floor, +inf if no slab bounds it.  facet, for start's one ray in one block: (lam, row),
    row the one of [+a; -a] attaining lam, the +a rows first on ties (-1 at lam = +inf).
    """
    least, floor = np.inf, -np.inf
    for first, plus, minus, toward, size, extent in blocks:
        rate, ahead = np.abs(toward), toward > 0.0
        moving, near = rate > PARALLEL_RTOL * size, np.where(ahead, plus, minus)
        ntol = -lp.FEAS_TOL * extent
        far = np.where(near >= ntol, ntol - np.where(ahead, minus, plus), np.inf)
        far = np.divide(far, rate, out=np.where(far > 0.0, np.inf, -np.inf), where=moving)
        far = np.maximum.reduce(far, axis=-1)  # +inf where the near side fails
        limits = np.where(moving, near, np.inf) / rate  # inf / 0 is inf, with no warning
        bound = np.minimum.reduce(limits, axis=-1)
        floor, least = (np.maximum(floor, far), np.minimum(least, bound)) if first else (far, bound)
    lam = np.maximum(least, 0.0)
    lam = np.where(lam >= floor, lam, np.nan)  # floor is never nan: +inf stays
    if not facet:
        return lam
    rows = np.concatenate([np.where(ahead, limits, np.inf), np.where(ahead, np.inf, limits)])
    return lam, (rows.argmin() if bound < np.inf else -1)


def _others(terms: np.ndarray) -> np.ndarray:
    """Row j: the sum of the other rows, a product with the 0/1 matrix 1 - I taken
    BLOCK_ELEMENTS / m rows at a time.  No row's share is subtracted from a total,
    which would cancel small sums away."""
    rows, step = np.arange(len(terms)), max(1, BLOCK_ELEMENTS // len(terms))
    chunks = range(0, len(rows), step)
    return np.concatenate([(rows[i : i + step, None] != rows) @ terms for i in chunks])


def build(m: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> Zonotope | None:
    """H-representation of {M x : x in [lower, upper]}, or None for the LP path.

    None when the candidate count exceeds MAX_CANDIDATES (checked before any work on
    M), or when M has rank below n.  Nothing is kept: IntegratorSystem.image and
    ActuatorSplit.image each build theirs once.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    nonzero = (m != 0.0).any(axis=0).nonzero()[0]
    if candidate_count(m.shape[0], len(nonzero)) > MAX_CANDIDATES:
        return None
    return _image(m, lower, upper, nonzero)


def _image(m, lower, upper, nonzero) -> Zonotope | None:
    """build's image, its candidates within MAX_CANDIDATES: None when M has rank below n."""
    n = m.shape[0]
    gens = m * ((upper - lower) / 2.0)
    scale = np.abs(gens).max(axis=1)
    if np.any(scale == 0.0) or len(nonzero) < n:  # an empty matrix never reaches svd
        return None
    gens = gens / scale[:, None]
    unit = gens[:, nonzero] / np.linalg.norm(gens[:, nonzero], axis=0)
    sv = np.linalg.svd(unit, compute_uv=False)
    if not sv[-1] > RANK_RTOL * sv[0]:
        return None
    centers = m * ((lower + upper) / 2.0) / scale[:, None]

    # Normal a_i = (-1)^i det(rows other than i) of n - 1 unit generators, grown along
    # _wedges' levels; its length is their (n-1)-volume, at most RANK_RTOL: no facet.
    cofactors, (subsets, levels) = np.ones((1, 1)), _wedges(len(nonzero), n)
    for table, parent, column in levels:
        cofactors = (unit.T @ (cofactors @ table).reshape(len(cofactors), n, -1))[parent, column]
    volume = np.linalg.norm(cofactors, axis=1)
    kept = volume > RANK_RTOL
    normals = cofactors[kept] / volume[kept, None]
    offset, width = normals @ centers.sum(axis=1), np.abs(normals @ gens).sum(axis=1)
    subsets = nonzero[subsets[kept]]
    plus, minus = offset + width, width - offset
    return Zonotope(normals, plus, minus, np.maximum(plus, minus), scale, subsets, gens, centers)


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
