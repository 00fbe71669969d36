"""Applications: the Goemans–Linial SDP with sweep rounding for Sparsest Cut,
random line functionals for average-distortion embeddings of lq point clouds,
and isoperimetric lower-bound certificates from zero-set draws."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._rng import RandomnessSpec, _require_count
from .errors import BadParams, CapExceeded, SolverStalled
from .graphs import _highs, _highs_model
from .metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    _hop_distances,
    _lp_distances,
    _p_average_scorer,
    _schoenberg_matrix,
    require_floats,
    validate_metric,
)
from .randomzero import ZeroSetDistribution

SDP_CAP = 40  # largest n sdp_gl_solve takes: at most n(n-1)(n-2)/2 triangle rows
MAX_CUTS = 500  # LP solves (cutting-plane rounds, not cuts) before sdp_gl_solve stalls
ROUND_CUTS = 8  # most eigenvector cuts one round adds
BRUTE_CAP = 20  # largest n the brute-force oracles enumerate 2^n subsets for
# the brute-force cut oracle and the sweep screen 1024 cuts per block (1 MB of 0/1
# rows at n = 128; larger blocks raise the peak RSS), brute_isoperimetric 8192
# sets per chunk, and all three rescore those within this margin
_MASK_BLOCK = 1024
_ISO_CHUNK = 8192
_SCREEN_SLACK = 1e-9

# -------------------------------------------------------------------------
# sparsest cut
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class SparsestCutInstance:
    """Symmetric nonnegative capacities and demands with zero diagonal."""

    capacities: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        C = np.array(self.capacities, dtype=float)
        D = np.array(self.demands, dtype=float)
        if C.ndim != 2 or C.shape != D.shape or C.shape[0] != C.shape[1]:
            raise BadParams("capacities and demands must be square matrices of one size")
        if C.shape[0] < 2:
            raise BadParams("need at least two points")
        for M, name in ((C, "capacities"), (D, "demands")):
            if not np.array_equal(M, M.T):
                raise BadParams(f"{name} must be symmetric")
            if np.any(M < 0):
                raise BadParams(f"{name} must be nonnegative")
            if np.any(np.diag(M) != 0):
                raise BadParams(f"{name} must have zero diagonal")
        if not np.any(D > 0):
            raise BadParams("at least one demand must be positive")
        C.setflags(write=False)
        D.setflags(write=False)
        object.__setattr__(self, "capacities", C)
        object.__setattr__(self, "demands", D)

    @property
    def n(self) -> int:
        return self.capacities.shape[0]

    def cut_ratio(self, S) -> float:
        """Capacity over demand across the cut (S, complement)."""
        S = list(S)
        outside = [x for x in S if not 0 <= x < self.n]
        if outside:
            raise BadParams(f"point {outside[0]} is not a point of the instance")
        mask = np.zeros(self.n, dtype=bool)
        mask[S] = True
        cross = np.outer(mask, ~mask)
        dem = float(self.demands[cross].sum())
        if dem == 0:
            return math.inf
        return float(self.capacities[cross].sum()) / dem

    def to_json(self) -> dict:
        return {
            "capacities": self.capacities.tolist(),
            "demands": self.demands.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparsestCutInstance":
        return cls(require_floats(obj, "capacities"), require_floats(obj, "demands"))


def _triangles(n: int) -> np.ndarray:
    """The (n, n, n) mask of the triples (i, j, k) distinct with i < j: d is
    symmetric in (i, j), so half the triples suffice."""
    i, j, k = np.ogrid[:n, :n, :n]
    return (i < j) & (k != i) & (k != j)


def _triangle_lp_matrix(at: np.ndarray, where: np.ndarray):
    """Squared-distance triangle rows d_ij - d_ik - d_kj <= 0 over pair
    positions ``at``, one per triple (i, j, k) at which the (n, n, n) mask
    ``where``, a part of ``_triangles(n)``, holds, in lexicographic order, as
    CSR parts (start, index, value) with each row's positions ascending."""
    i, j, k = np.nonzero(where)
    cols = np.sort(np.stack([at[i, j], at[i, k], at[k, j]], axis=1), axis=1)
    value = np.where(cols == at[i, j][:, None], 1.0, -1.0).ravel()
    return np.arange(0, 3 * i.size + 1, 3), cols.ravel(), value


def _csr_parts(M: np.ndarray):
    """CSR parts (start, index, value) of the nonzero entries of the dense
    matrix M, row by row with columns ascending."""
    row, index = np.nonzero(M)
    start = np.zeros(M.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(M, axis=1), out=start[1:])
    return start, index, M[row, index]


def sdp_gl_solve(instance: SparsestCutInstance, tol: float = 1e-6) -> dict:
    """Squared-Euclidean relaxation of sparsest cut.

    Minimizes capacity-weighted squared distance subject to unit
    demand-weighted squared distance, squared-distance triangle inequalities
    on every triple, and PSD-ness of the Gram matrix.  Solved as an LP over
    squared distances by cutting planes.  One HiGHS model, built through
    scipy's binding of the solver loaded alone (``_highs``, no scipy.optimize
    or scipy.sparse), holds the LP for the whole solve, so each round after
    the first re-solves by dual simplex from the last optimal basis.  The
    model starts with the triangle rows d_ij <= d_ik + d_kj, i < j, whose
    middle point k has positive capacity to j, the larger end, and is no
    more hops from i than j is in the capacity graph, in lexicographic
    order.  With all capacities positive every hop is 1 and every row is
    seeded.  The seed bounds each pair of a capacity component by a chain
    of edge variables: a BFS predecessor k of j toward i has capacity to j
    and is one hop nearer i, so the row (i, j, k) is seeded, and the pair
    {i, k} it leaves is one hop shorter.  Each round solves the LP and
    checks every triangle row at its optimum; if some row outside the model
    is violated by more than the model's own ``primal_feasibility_tolerance``,
    all such rows join the model and the next round re-solves, so the
    optimum a round accepts is the LP optimum over every triangle row and
    the cuts so far.  Only when none is violated does the round add one cut
    for every Schoenberg eigenvalue below ``-tol * max(1, largest)``, the
    most negative ``ROUND_CUTS`` of them, or stop when there is none.
    After ``MAX_CUTS`` rounds it reports a stall.
    Returns the value, the factored vectors, the induced metric, and the
    counts ``lp_solves``, ``cuts`` and ``triangle_rows`` (rows in the final
    model).
    """
    n = instance.n
    if n > SDP_CAP:
        raise CapExceeded(f"instance size {n} exceeds the solver cap {SDP_CAP}")
    if not tol >= 0:
        raise BadParams("tol must be >= 0")
    highs = _highs()
    # LP variables: squared distances of the pairs i < j in row-major order;
    # at[i, j] = at[j, i] is the position of pair {i, j}
    I, J = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=np.intp)
    at[I, J] = at[J, I] = np.arange(I.size)
    linked = instance.capacities > 0
    hops = _hop_distances(n, np.argwhere(np.triu(linked)))
    outside = _triangles(n)
    # [i, j, k]: k has capacity to j and is no more hops from i than j is
    seeded = outside & linked[None, :, :] & (hops[:, None, :] <= hops[:, :, None])
    outside &= ~seeded
    start, index, value = _triangle_lp_matrix(at, seeded)
    triangle_rows = start.size - 1  # of three entries each
    model = _highs_model(instance.capacities[I, J], (np.arange(index.size) // 3, index, value),
                         np.zeros(triangle_rows), a_eq=instance.demands[I, J])
    _status, feasibility = model.getOptionValue("primal_feasibility_tolerance")
    sq = np.zeros((n, n))
    cuts = 0

    for rounds in range(MAX_CUTS):
        model.run()
        status = model.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            message = model.modelStatusToString(status)
            raise SolverStalled({"rounds": rounds, "cuts": cuts,
                                 "triangle_rows": triangle_rows, "message": message})
        y = np.array(model.getSolution().col_value)
        sq[I, J] = sq[J, I] = y
        # d_ij - d_ik - d_kj at [i, j, k]
        violated = outside & (sq[:, :, None] - sq[:, None, :] - sq[None, :, :] > feasibility)
        if violated.any():
            rows = _triangle_lp_matrix(at, violated)
            outside &= ~violated
            triangle_rows += rows[0].size - 1
        else:
            w, V = np.linalg.eigh(_schoenberg_matrix(sq))
            negative = int(np.count_nonzero(w < -tol * max(1.0, float(w[-1]))))
            if negative == 0:
                break
            # u^T S u is linear in y: with x = (-sum(u), u), which sums to
            # zero, u^T S u = -sum_{i<j} x_i x_j y_ij; add the half-spaces
            # u^T S u >= 0
            U = V[:, : min(negative, ROUND_CUTS)]
            X = np.vstack([-U.sum(axis=0), U])
            rows = _csr_parts((X[I] * X[J]).T)
            cuts += rows[0].size - 1
        start, index, value = rows
        k = start.size - 1
        model.addRows(k, np.full(k, -highs.kHighsInf), np.zeros(k), index.size, start, index, value)
    else:
        min_eig = float(np.linalg.eigvalsh(_schoenberg_matrix(sq))[0])
        raise SolverStalled({"rounds": MAX_CUTS, "cuts": cuts,
                             "triangle_rows": triangle_rows, "min_eig": min_eig})

    sq[I, J] = sq[J, I] = np.clip(y, 0.0, None)
    w, V = np.linalg.eigh(_schoenberg_matrix(sq))
    w = np.clip(w, 0.0, None)
    coords = np.zeros((n, n - 1))
    coords[1:] = V * np.sqrt(w)
    return {
        "value": float(model.getInfo().objective_function_value),
        "vectors": EuclideanMap(coords),
        "squared_distances": sq,
        "lp_solves": rounds + 1,
        "cuts": cuts,
        "triangle_rows": triangle_rows,
    }


def _mask_blocks(n: int, first: int, stop: int, step: int):
    """The masks first, first + step, ... below stop, ``_MASK_BLOCK`` at a
    time, each block as the 0/1 membership rows of its masks over n points."""
    bits = np.arange(n)
    for lo in range(first, stop, step * _MASK_BLOCK):
        masks = np.arange(lo, min(lo + step * _MASK_BLOCK, stop), step)
        yield ((masks[:, None] >> bits) & 1).astype(float)


def _screened_cuts(instance: SparsestCutInstance, X: np.ndarray, best: float) -> np.ndarray:
    """The rows of the 0/1 block X, each the side S of a cut, that can hold
    the block's first minimum of ``cut_ratio`` when that minimum is below
    best, in row order.

    Each row's capacity and demand come from matrix products.  They are sums
    of the same nonnegative terms as ``cut_ratio``'s, so a demand is 0
    exactly when ``cut_ratio`` gives inf, and a screened ratio and
    ``cut_ratio``'s value differ by at most n^2/2 + 2n + 3 units of rounding,
    within the relative margin ``_SCREEN_SLACK`` for n under 4000.  The first
    row that attains the block's least ``cut_ratio``, if that is below best,
    then screens at most the bound below.  Rescoring the rows returned, in
    order, with ``cut_ratio`` and a strict ``<`` therefore gives bit for bit
    what a loop over every row gives.
    """
    out = 1.0 - X
    cap = ((X @ instance.capacities) * out).sum(axis=1)
    dem = ((X @ instance.demands) * out).sum(axis=1)
    ratio = np.divide(cap, dem, out=np.full(dem.size, math.inf), where=dem > 0)
    bound = min(best, float(ratio.min()) * (1 + _SCREEN_SLACK)) * (1 + _SCREEN_SLACK)
    return np.flatnonzero((dem > 0) & (ratio <= bound))


def brute_sparsest_cut(instance: SparsestCutInstance) -> dict:
    """Exhaustive minimum cut ratio; fixes point 0 on one side by symmetry.
    The masks are screened in blocks by ``_screened_cuts`` and rescored with
    ``cut_ratio`` in mask order, so the result equals the loop over every mask."""
    n = instance.n
    if n > BRUTE_CAP:
        raise CapExceeded(f"instance size {n} exceeds the brute-force cap {BRUTE_CAP}")
    best = math.inf
    best_S = None
    # odd masks keep point 0 in S; the full set is no cut
    for X in _mask_blocks(n, 1, (1 << n) - 1, 2):
        for k in _screened_cuts(instance, X, best):
            S = np.flatnonzero(X[k]).tolist()
            r = instance.cut_ratio(S)
            if r < best:
                best = r
                best_S = S
    return {"value": best, "S": best_S}


def sweep_round_cut(instance: SparsestCutInstance, embedding: EuclideanMap) -> dict:
    """Best prefix cut over every coordinate's sorted order.  The prefixes are
    screened in blocks by ``_screened_cuts`` and rescored with ``cut_ratio`` in
    (coordinate, prefix) order, so the result equals the loop over every prefix."""
    if embedding.n != instance.n:
        raise BadParams("embedding size does not match the instance")
    if embedding.dim == 0:
        raise BadParams("embedding has no coordinates")
    order = np.argsort(embedding.coords, axis=0, kind="stable")
    rank = np.argsort(order.T, axis=1)  # rank[j, i]: position of point i in order[:, j]
    prefixes = embedding.dim * (instance.n - 1)
    best = math.inf
    best_S = None
    # prefix g of coordinate j ends at order[last, j]: j, last = divmod(g, n - 1)
    for lo in range(0, prefixes, _MASK_BLOCK):
        j, last = np.divmod(np.arange(lo, min(lo + _MASK_BLOCK, prefixes)), instance.n - 1)
        X = (rank[j] <= last[:, None]).astype(float)
        for k in _screened_cuts(instance, X, best):
            S = order[: last[k] + 1, j[k]].tolist()
            r = instance.cut_ratio(S)
            if r < best:
                best = r
                best_S = S
    return {"S": best_S, "ratio": best}


# -------------------------------------------------------------------------
# random line functionals
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class LineFunctional:
    """x -> scale * <x, u> / |u|_{q'} with q' the dual exponent of q."""

    q: float
    n: int
    u: np.ndarray
    scale: float

    def __post_init__(self):
        if not self.q >= 1:
            raise BadParams("q must be >= 1")
        u = np.array(self.u, dtype=float)  # a copy: it is frozen below
        if u.shape != (self.n,):
            raise BadParams("direction must have length n")
        if _dual_norm(u, self.q) == 0:
            raise BadParams("direction has zero dual norm")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.scale * (points @ self.u) / _dual_norm(self.u, self.q)


def _dual_norm(u: np.ndarray, q: float) -> float:
    """|u|_{q'} with q' the dual exponent of q (the max norm at q = 1)."""
    if q == 1:
        return float(np.max(np.abs(u)))
    qstar = q / (q - 1.0)
    return float(np.sum(np.abs(u) ** qstar) ** (1.0 / qstar))


def _sample_dual_direction(n: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Coordinates with density proportional to exp(-|s|^{q'}); for q = 1 the
    dual exponent is infinite and the coordinates are symmetric Bernoulli."""
    signs = rng.integers(0, 2, size=n) * 2 - 1
    if q == 1:
        return signs.astype(float)
    qstar = q / (q - 1.0)
    mags = rng.gamma(1.0 / qstar, 1.0, size=n) ** (1.0 / qstar)
    return signs * mags


def lq_space(points: np.ndarray, q: float) -> FiniteMetricSpace:
    """The finite metric on a point cloud with lq distances."""
    return validate_metric(_lp_distances(np.asarray(points, dtype=float), q))


def line_functional_embed(
    points: np.ndarray,
    measure: PointMeasure,
    p: float,
    q: float,
    n_candidates: int,
    randomness: RandomnessSpec,
) -> Tuple[LineFunctional, float]:
    """Best-of-n random line functionals by measured p-average distortion."""
    if not (p >= 1 and q >= 1):
        raise BadParams("require p, q >= 1")
    _require_count(n_candidates, "n_candidates")
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    space = lq_space(points, q)
    scale = (max(1.0, n / p)) ** (1.0 - 1.0 / max(2.0, q))
    score = _p_average_scorer(space, measure, p)
    stream = randomness.opener("line")
    best = None
    best_dist = math.inf
    for c in range(n_candidates):
        func = LineFunctional(q=q, n=n, u=_sample_dual_direction(n, q, stream(c)), scale=scale)
        vals = func(points)
        if not np.all(np.isfinite(vals)):
            raise BadParams("coordinates must be finite")
        # |v_i - v_j| as EuclideanMap.image_distances computes it at d = 1
        dist = score(np.sqrt((vals[:, None] - vals[None, :]) ** 2))
        if dist < best_dist:
            best_dist = dist
            best = func
    return best, best_dist


# -------------------------------------------------------------------------
# isoperimetry
# -------------------------------------------------------------------------


def iso_certificate(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    dist: ZeroSetDistribution,
    t: float,
    n_samples: int,
) -> dict:
    """Max over draws of min(mass 2t-far from Z, mass of Z): a valid lower
    bound on the isoperimetric function at t, witnessed by the first draw
    that attains it."""
    if not t > 0:
        raise BadParams("t must be positive")
    _require_count(n_samples, "n_samples")
    if dist.n != space.n:
        raise BadParams(f"a distribution on {dist.n} points for a space of {space.n}")
    w = measure.weights / measure.total
    masks = dist.draw_masks(range(n_samples))
    far = masks.astype(float) @ (space.dist < 2.0 * t).T == 0
    vals = [min(float(w[f].sum()), float(w[Z].sum())) for f, Z in zip(far, masks)]
    k = int(np.argmax(vals))
    return {"bound": vals[k], "witness": frozenset(np.flatnonzero(masks[k]).tolist())}


def _subset_tables(w: np.ndarray, near_bits: np.ndarray):
    """Over every subset c of the len(w) points, bit i of c for point i: the
    mass of c, w added in ascending point order from 0.0, and the OR of
    near_bits over c.  Built by doubling on the top bit."""
    mass = np.zeros(1 << w.size)
    reach = np.zeros(1 << w.size, dtype=np.int64)
    for i in range(w.size):
        k = 1 << i
        np.add(mass[:k], w[i], out=mass[k:2 * k])
        np.bitwise_or(reach[:k], near_bits[i], out=reach[k:2 * k])
    return mass, reach


def brute_isoperimetric(space: FiniteMetricSpace, measure: PointMeasure, t: float) -> float:
    """Largest mass lying t-far from a set of mass at least one half.

    Set S has the code with bit i for point i.  The low b = ceil(n/2) and the
    high n - b bits are tabulated apart (Horowitz-Sahni): ``_subset_tables``
    gives each half-subset's mass and the bits of the points within t of it.
    Chunks of ``_ISO_CHUNK`` codes, a run of high halves against every low
    half, are screened: S reaches the OR of its halves' bits, exact integer
    logic; its mass is the sum of its halves' masses, and its far mass that
    of the two halves of the unreached bits.  Each screened mass is a sum of
    at most n nonnegative terms in n - 1 additions, so its relative error is
    at most (n - 1)u / (1 - (n - 1)u) with u = 2^-53, far inside
    ``_SCREEN_SLACK``.  Only sets whose screened mass is not clearly below
    one half and whose screened far mass could beat the best so far are
    rescored with the scalar sums over S in ascending point order.  The value
    is the max of those exact sums, whatever the chunk order, so it is bit
    for bit that of the loop over every set.  O(n 2^n) time; the tables hold
    2^b entries each and no 2^n array is built.
    """
    n = space.n
    if n > BRUTE_CAP:
        raise CapExceeded(f"space size {n} exceeds the brute-force cap {BRUTE_CAP}")
    if not t > 0:
        raise BadParams("t must be positive")
    w = measure.weights / measure.total
    bits = np.arange(n)
    # near_bits[s]: the points within t of s, bit i for point i
    near_bits = ((space.dist < t).astype(np.int64) << bits[:, None]).sum(axis=0)
    b = (n + 1) // 2
    mass_lo, reach_lo = _subset_tables(w[:b], near_bits[:b])
    mass_hi, reach_hi = _subset_tables(w[b:], near_bits[b:])
    low, high = (1 << b) - 1, (1 << (n - b)) - 1
    rows = max(1, _ISO_CHUNK >> b)  # high halves per chunk
    best = 0.0
    for h0 in range(0, high + 1, rows):
        # entry k of the chunk is the set with code (h0 << b) + k
        mass = (mass_hi[h0:h0 + rows, None] + mass_lo).ravel()
        free = ~(reach_hi[h0:h0 + rows, None] | reach_lo).ravel()
        far_mass = mass_lo[free & low] + mass_hi[(free >> b) & high]
        # a set whose screened mass clears one half by the margin has mass at
        # least one half; the chunk's best far mass is then at least this
        sure = mass >= 0.5 * (1 + _SCREEN_SLACK)
        floor = max(best, float(far_mass[sure].max(initial=0.0)) * (1 - _SCREEN_SLACK))
        maybe = (mass >= 0.5 * (1 - _SCREEN_SLACK)) & (far_mass >= floor * (1 - _SCREEN_SLACK))
        ks = np.flatnonzero(maybe & (far_mass > 0))
        for k, members in zip(ks, ((h0 << b) + ks)[:, None] >> bits & 1):
            if far_mass[k] < best * (1 - _SCREEN_SLACK):
                continue
            S = np.flatnonzero(members)  # ascending point order
            if float(w[S].sum()) < 0.5:
                continue
            far = space.dist[:, S].min(axis=1) >= t
            best = max(best, float(w[far].sum()))
    return best
