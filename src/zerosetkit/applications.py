"""Applications: the Goemans–Linial SDP with sweep rounding for Sparsest Cut,
random line functionals for average-distortion embeddings of lq point clouds,
and isoperimetric lower-bound certificates from zero-set draws."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import sparse

from ._rng import RandomnessSpec
from .errors import BadParams, CapExceeded, SolverStalled
from .metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    _lp_distances,
    _schoenberg_matrix,
    p_average_distortion,
    require_floats,
    validate_metric,
)
from .randomzero import ZeroSetDistribution

SDP_CAP = 40  # largest n sdp_gl_solve takes: n(n-1)(n-2)/2 triangle rows
MAX_CUTS = 500  # PSD cutting planes before sdp_gl_solve reports a stall
# sdp_gl_solve_projection: violation tolerance, bisection gap on the value,
# projection rounds per bisection step, and largest n
PROJECTION_TOL = 1e-6
PROJECTION_VALUE_GAP = 5e-5
PROJECTION_ITER_CAP = 3000
PROJECTION_CAP = 12
BRUTE_CAP = 20  # largest n the brute-force oracles enumerate 2^n subsets for

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
        mask = np.zeros(self.n, dtype=bool)
        mask[list(S)] = True
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


def _laplacian(M: np.ndarray) -> np.ndarray:
    return np.diag(M.sum(axis=1)) - M


def _triangle_rows(n: int) -> list:
    """One constraint <A,X> >= 0 per ordered triple (i,j,k):
    X_ij - X_ik - X_jk + X_kk >= 0, i.e. d_ik + d_kj >= d_ij."""
    rows = []
    for i, j, k in itertools.permutations(range(n), 3):
        if i < j:  # d is symmetric in (i,j); half the triples suffice
            A = np.zeros((n, n))
            A[i, j] += 0.5
            A[j, i] += 0.5
            A[i, k] -= 0.5
            A[k, i] -= 0.5
            A[j, k] -= 0.5
            A[k, j] -= 0.5
            A[k, k] += 1.0
            rows.append(A)
    return rows


def _psd_project(X: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((X + X.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.T


def _gram_to_metric(X: np.ndarray) -> np.ndarray:
    diag = np.diag(X)
    sq = np.clip(diag[:, None] + diag[None, :] - 2.0 * X, 0.0, None)
    np.fill_diagonal(sq, 0.0)
    return sq


def _triangle_lp_matrix(n: int, at: np.ndarray):
    """Squared-distance triangle rows d_ij - d_ik - d_kj <= 0 over pair
    positions ``at``, one per (i, j, k) distinct with i < j (d is symmetric in
    (i, j), so half the triples suffice), in lexicographic order."""
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    keep = (i < j) & (k != i) & (k != j)
    i, j, k = i[keep], j[keep], k[keep]
    rows = np.repeat(np.arange(i.size), 3)
    cols = np.stack([at[i, j], at[i, k], at[k, j]], axis=1).ravel()
    vals = np.tile([1.0, -1.0, -1.0], i.size)
    return sparse.csr_array((vals, (rows, cols)), shape=(i.size, n * (n - 1) // 2))


def sdp_gl_solve(instance: SparsestCutInstance, tol: float = 1e-6) -> dict:
    """Squared-Euclidean relaxation of sparsest cut.

    Minimizes capacity-weighted squared distance subject to unit
    demand-weighted squared distance, squared-distance triangle inequalities
    on every triple, and PSD-ness of the Gram matrix.  Solved as an LP over
    squared distances with PSD-ness enforced by eigenvector cutting planes.
    Returns the value, the factored vectors, and the induced metric.
    """
    # imported per call, not at module level, so that patching
    # scipy.optimize.linprog (as perfbench/layertrace.py does to count LP
    # solves) reaches this solver
    from scipy.optimize import linprog

    n = instance.n
    if n > SDP_CAP:
        raise CapExceeded(f"instance size {n} exceeds the solver cap {SDP_CAP}")
    # LP variables: squared distances of the pairs i < j in row-major order;
    # at[i, j] = at[j, i] is the position of pair {i, j}
    I, J = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=np.intp)
    at[I, J] = at[J, I] = np.arange(I.size)
    c = instance.capacities[I, J]
    A_ub = _triangle_lp_matrix(n, at)
    A_eq = instance.demands[I, J][None, :]
    sq = np.zeros((n, n))

    for _cut in range(MAX_CUTS):
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=np.zeros(A_ub.shape[0]),
            A_eq=A_eq,
            b_eq=np.array([1.0]),
            bounds=[(0, None)] * I.size,
            method="highs",
        )
        if not res.success:
            raise SolverStalled({"cuts": _cut, "message": res.message})
        y = res.x
        sq[I, J] = sq[J, I] = y
        w, V = np.linalg.eigh(_schoenberg_matrix(sq))
        if w[0] >= -tol * max(1.0, float(w[-1])):
            break
        u = V[:, 0]
        # u^T S u is linear in y; append the half-space u^T S u >= 0
        row = np.zeros(I.size)
        for a in range(1, n):
            for b in range(1, n):
                coef = 0.5 * u[a - 1] * u[b - 1]
                row[at[0, a]] -= coef
                row[at[0, b]] -= coef
                if a != b:
                    row[at[a, b]] += coef
        A_ub = sparse.vstack([A_ub, row[None, :]], format="csr")
    else:
        raise SolverStalled({"cuts": MAX_CUTS, "min_eig": float(w[0])})

    sq[I, J] = sq[J, I] = np.clip(y, 0.0, None)
    w, V = np.linalg.eigh(_schoenberg_matrix(sq))
    w = np.clip(w, 0.0, None)
    coords = np.zeros((n, n - 1))
    coords[1:] = V * np.sqrt(w)
    return {
        "value": float(res.fun),
        "vectors": EuclideanMap(coords),
        "neg_type_metric": np.sqrt(sq),
        "squared_distances": sq,
    }


def sdp_gl_solve_projection(instance: SparsestCutInstance) -> dict:
    """Independent second solver for the same program: bisection on the
    objective with alternating projections onto the constraint sets.

    Slower and coarser than the cutting-plane solver; intended for
    cross-validation on small instances.
    """
    n = instance.n
    if n > PROJECTION_CAP:
        raise CapExceeded(f"instance size {n} exceeds the solver cap {PROJECTION_CAP}")
    LC = _laplacian(instance.capacities)
    LD = _laplacian(instance.demands)
    rows = _triangle_rows(n)
    row_norms = [float((A * A).sum()) for A in rows]
    center = np.eye(n) - np.ones((n, n)) / n
    nLD = float((LD * LD).sum())
    nLC = float((LC * LC).sum())

    def feasible(v: float, X0: np.ndarray):
        X = X0.copy()
        for _ in range(PROJECTION_ITER_CAP):
            X = center @ _psd_project(X) @ center
            X = X - ((float((LD * X).sum()) - 1.0) / nLD) * LD
            excess = float((LC * X).sum()) - v
            if excess > 0:
                X = X - (excess / nLC) * LC
            for A, nrm in zip(rows, row_norms):
                u = float((A * X).sum())
                if u < 0:
                    X = X - (u / nrm) * A
            wmin = float(np.linalg.eigvalsh((X + X.T) / 2.0).min())
            viol = max(
                0.0,
                -min((float((A * X).sum()) for A in rows), default=0.0),
                abs(float((LD * X).sum()) - 1.0),
                float((LC * X).sum()) - v,
                -wmin,
            )
            if viol <= PROJECTION_TOL:
                return True, X
        return False, X

    X = center @ np.eye(n) @ center
    X = X / float((LD * X).sum())
    hi = float((LC * X).sum())
    lo = 0.0
    best_X = X
    while hi - lo > PROJECTION_VALUE_GAP:
        v = (hi + lo) / 2.0
        ok, Xf = feasible(v, best_X)
        if ok:
            hi = float((LC * Xf).sum())
            best_X = Xf
        else:
            lo = v
    w, V = np.linalg.eigh((best_X + best_X.T) / 2.0)
    w = np.clip(w, 0.0, None)
    sq = _gram_to_metric(best_X)
    sq = (sq + sq.T) / 2.0
    return {
        "value": hi,
        "vectors": EuclideanMap(V * np.sqrt(w)),
        "neg_type_metric": np.sqrt(sq),
        "squared_distances": sq,
    }


def brute_sparsest_cut(instance: SparsestCutInstance) -> dict:
    """Exhaustive minimum cut ratio; fixes point 0 on one side by symmetry."""
    n = instance.n
    if n > BRUTE_CAP:
        raise CapExceeded(f"instance size {n} exceeds the brute-force cap {BRUTE_CAP}")
    best = math.inf
    best_S = None
    full = (1 << n) - 1
    for mask in range(1, full, 2):  # odd masks keep point 0 in S
        S = [i for i in range(n) if mask >> i & 1]
        ratio = instance.cut_ratio(S)
        if ratio < best:
            best = ratio
            best_S = S
    return {"value": best, "S": best_S}


def sweep_round_cut(instance: SparsestCutInstance, embedding: EuclideanMap) -> dict:
    """Best prefix cut over every coordinate's sorted order."""
    if embedding.n != instance.n:
        raise BadParams("embedding size does not match the instance")
    best = math.inf
    best_S = None
    for j in range(embedding.dim):
        order = np.argsort(embedding.coords[:, j], kind="stable")
        for cut in range(1, instance.n):
            S = [int(i) for i in order[:cut]]
            ratio = instance.cut_ratio(S)
            if ratio < best:
                best = ratio
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
        u = np.array(self.u, dtype=float)  # a copy: it is frozen below
        if u.shape != (self.n,):
            raise BadParams("direction must have length n")
        if self.dual_norm(u) == 0:
            raise BadParams("direction has zero dual norm")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def dual_norm(self, u: np.ndarray) -> float:
        if self.q == 1:
            return float(np.max(np.abs(u)))
        qstar = self.q / (self.q - 1.0)
        return float(np.sum(np.abs(u) ** qstar) ** (1.0 / qstar))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.scale * (points @ self.u) / self.dual_norm(self.u)


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
    if p < 1 or q < 1:
        raise BadParams("require p, q >= 1")
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    space = lq_space(points, q)
    scale = (max(1.0, n / p)) ** (1.0 - 1.0 / max(2.0, q))
    best = None
    best_dist = math.inf
    for c in range(n_candidates):
        rng = randomness.stream("line", c)
        u = _sample_dual_direction(n, q, rng)
        func = LineFunctional(q=q, n=n, u=u, scale=scale)
        vals = func(points)
        dist = p_average_distortion(space, EuclideanMap(vals[:, None]), measure, p)
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
    bound on the isoperimetric function at t."""
    if t <= 0:
        raise BadParams("t must be positive")
    w = measure.weights / measure.total
    best = 0.0
    witness = None
    for k in range(n_samples):
        Z = dist.draw(k)
        idx = np.asarray(sorted(Z), dtype=int)
        far = space.dist[:, idx].min(axis=1) >= 2.0 * t
        val = min(float(w[far].sum()), float(w[idx].sum()))
        if val > best or witness is None:
            best = max(best, val)
            if val >= best:
                witness = Z
    return {"bound": best, "witness": witness}


def brute_isoperimetric(space: FiniteMetricSpace, measure: PointMeasure, t: float) -> float:
    """Largest mass lying t-far from a set of mass at least one half."""
    n = space.n
    if n > BRUTE_CAP:
        raise CapExceeded(f"space size {n} exceeds the brute-force cap {BRUTE_CAP}")
    if t <= 0:
        raise BadParams("t must be positive")
    w = measure.weights / measure.total
    best = 0.0
    for mask in range(1, 1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        if float(w[S].sum()) < 0.5:
            continue
        far = space.dist[:, S].min(axis=1) >= t
        best = max(best, float(w[far].sum()))
    return best
