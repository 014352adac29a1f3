"""Capacity of a channel decoded with a statistically perturbed codebook.

The decoder never sees the encoder's codeword symbol X, only its perturbed
copy U, so the relevant single-letter quantity is I(U; Y) under the joint
p(u, y) = sum_x p(x) p(y|x) p(u|x).  This module maximizes that quantity
over the input distribution p(x) three ways: a closed form for the binary
symmetric case, an exhaustive simplex-lattice search, and multi-start
projected gradient ascent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .info import (
    DimensionMismatch,
    DomainError,
    Pmf,
    TransitionMatrix,
    _entropy_bits,
    _kernel,
    _log_ratios,
    binary_entropy,
    bsc_capacity_gap,
    composite_crossover,
)
from .rng import stream

__all__ = [
    "AlphabetLimitError",
    "SolverOptions",
    "CapacityResult",
    "capacity_closed_form_bsc",
    "capacity_grid",
    "capacity_optimize",
    "capacity_gap",
    "sweep_capacity_surface",
    "input_mutual_information",
    "mutual_information_gradient",
    "simplex_project",
]

SOLVER_CLOSED_FORM = "closed_form"
SOLVER_GRID = "grid"
SOLVER_GRADIENT = "gradient"

GRID_INPUT_LIMIT = 4          # exhaustive search refuses larger input alphabets
MAX_GRID_POINTS = 20_000_000  # lattice size guard
MAX_RESTARTS = 1000           # the solver holds a (restarts + 1, nx) start array
_LOG2E = float(np.log2(np.e))
# Candidates whose objective is within this of the best are treated as tied;
# the uniform start then wins, which pins down the maximizer on flat
# objectives (p1 or p2 equal to 1/2) where every input distribution is optimal.
_TIE_TOL = 1e-12
# Fixed Philox key for restart sampling keeps the solver deterministic.
_RESTART_KEY = 0x243F6A8885A308D3


class AlphabetLimitError(ValueError):
    """Input alphabet too large for exhaustive grid search."""


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the capacity solvers."""

    grid_resolution: float = 1e-3
    restarts: int = 8
    max_iterations: int = 300
    convergence_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.grid_resolution <= 1.0:
            raise DomainError("grid_resolution must lie in (0, 1]")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise DomainError(f"restarts must lie in [1, {MAX_RESTARTS}], got {self.restarts}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if not 0.0 < self.convergence_tol < np.inf:
            raise DomainError("convergence_tol must be positive and finite")


@dataclass(frozen=True)
class CapacityResult:
    """Solver output: value, maximizing input law, and convergence data.

    residual is the projected-gradient stationarity norm for the gradient
    solver, the lattice spacing for the grid solver, and 0 for the closed
    form.  Non-convergence of the gradient solver shows up as residual
    above the tolerance with iterations equal to max_iterations.
    """

    capacity: float
    argmax_px: np.ndarray
    solver: str
    iterations: int
    residual: float

    def __post_init__(self):
        arr = np.array(self.argmax_px, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "argmax_px", arr)


def capacity_closed_form_bsc(p1: float, p2: float) -> CapacityResult:
    """Closed form for a binary symmetric channel and perturbation.

    The two flips compose into one binary symmetric link of crossover
    q = p1 + p2 - 2 p1 p2, so the value is 1 - H(q), attained by the
    uniform input.
    """
    p1 = float(p1)
    p2 = float(p2)
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"{name}={p!r} outside [0, 1]")
    cap = 1.0 - binary_entropy(composite_crossover(p1, p2))
    return CapacityResult(cap, np.array([0.5, 0.5]), SOLVER_CLOSED_FORM, 0, 0.0)


def _joint_rows(P: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row i is P[i] @ a, bit-identical to that 1-D product: the stacked form
    makes the same BLAS call per row, which a plain P @ a does not."""
    return (P[:, None, :] @ a)[:, 0]


def _row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise X[i] @ Y[i], bit-identical to the 1-D dot of each pair."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def _mi_batch(q: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """I(U;Y) in bits for each row of q (rows are flattened (u, y) tables)."""
    t = q.reshape(-1, nu, ny)
    return (t * _log_ratios(t)).sum(axis=(1, 2))


def _gradient_batch(P: np.ndarray, a: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """Gradient of I(U;Y) at each row of P (see mutual_information_gradient)."""
    logs = _log_ratios(_joint_rows(P, a).reshape(-1, nu, ny))
    return (a @ logs.reshape(len(P), -1, 1))[:, :, 0] - _LOG2E


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, by
    sort and threshold (Duchi et al., ICML 2008)."""
    s, n = V.shape
    u = np.sort(V, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    rho = n - 1 - (u * np.arange(1, n + 1) > css - 1.0)[:, ::-1].argmax(axis=1)
    theta = (css[np.arange(s), rho] - 1.0) / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def _stationarity(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Projected-gradient norm |proj(p + g) - p| of each row."""
    d = _project_rows(P + G) - P
    return np.sqrt(_row_dot(d, d))


def input_mutual_information(
    p, pyx: TransitionMatrix, pux: TransitionMatrix
) -> float:
    """I(U;Y) induced by the (not necessarily normalized) input weights p.

    Accepting unnormalized weights keeps the function usable for
    finite-difference probes slightly off the simplex.
    """
    a, nu, ny = _kernel(pyx, pux)
    p = np.asarray(p, dtype=float)
    if p.shape != (a.shape[0],):
        raise DimensionMismatch(
            f"input weights must have shape ({a.shape[0]},), got {p.shape}"
        )
    return float(_mi_batch(_joint_rows(p[None], a), nu, ny)[0])


def mutual_information_gradient(
    p, pyx: TransitionMatrix, pux: TransitionMatrix
) -> np.ndarray:
    """Exact gradient of input_mutual_information at p.

    Component x is sum_{u,y} p(y|x) p(u|x) log2[q(u,y) / (q(u) q(y))]
    minus log2(e); cells with q(u,y) = 0 are skipped.
    """
    a, nu, ny = _kernel(pyx, pux)
    return _gradient_batch(np.asarray(p, dtype=float)[None], a, nu, ny)[0]


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    return _project_rows(np.asarray(v, dtype=float)[None])[0]


def _composition_blocks(k: int, d: int):
    """Integer compositions of k into d parts, in lexicographic order.

    Yields int64 arrays block by block so grids never materialize at once.
    """
    if d == 1:
        yield np.array([[k]], dtype=np.int64)
        return
    if d == 2:
        a = np.arange(k + 1, dtype=np.int64)
        yield np.stack([a, k - a], axis=1)
        return
    for c0 in range(k + 1):
        for sub in _composition_blocks(k - c0, d - 1):
            pre = np.full((sub.shape[0], 1), c0, dtype=np.int64)
            yield np.hstack([pre, sub])


def capacity_grid(
    pyx: TransitionMatrix, pux: TransitionMatrix, resolution: float = 1e-3
) -> CapacityResult:
    """Exhaustive search over the simplex lattice with the given spacing.

    Ties are broken by the first lattice point in lexicographic order.
    Refuses input alphabets larger than GRID_INPUT_LIMIT.
    """
    nx = pyx.input_size
    if nx > GRID_INPUT_LIMIT:
        raise AlphabetLimitError(
            f"grid search supports input alphabets up to {GRID_INPUT_LIMIT}, got {nx}"
        )
    if not 0.0 < resolution <= 1.0:
        raise DomainError("resolution must lie in (0, 1]")
    inv = 1.0 / resolution  # inf for a subnormal resolution, which round() refuses
    if inv == np.inf or comb(max(1, round(inv)) + nx - 1, nx - 1) > MAX_GRID_POINTS:
        raise DomainError(
            f"lattice would exceed {MAX_GRID_POINTS} points; coarsen the resolution"
        )
    k = max(1, round(inv))
    a, nu, ny = _kernel(pyx, pux)

    best_val = -np.inf
    best_p = None
    total = 0
    for blk in _composition_blocks(k, nx):
        pts = blk.astype(float) / k
        vals = _mi_batch(pts @ a, nu, ny)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_p = pts[i].copy()
        total += blk.shape[0]
    return CapacityResult(best_val, best_p, SOLVER_GRID, total, 1.0 / k)


def capacity_optimize(
    pyx: TransitionMatrix,
    pux: TransitionMatrix,
    options: SolverOptions | None = None,
) -> CapacityResult:
    """Multi-start projected gradient ascent over the input simplex.

    Runs from the uniform distribution plus `options.restarts` points
    sampled uniformly from the simplex (fixed internal key, so the result
    is a deterministic function of the inputs).  Among runs whose values
    tie within 1e-12 the uniform start wins, then earlier restarts.

    All runs advance together as the rows of one (starts, nx) array.  Rows
    that converged or stalled are frozen by masks, and the Armijo search is
    per row, so each run takes exactly the path it would take alone.
    """
    opts = options or SolverOptions()
    a, nu, ny = _kernel(pyx, pux)
    nx = a.shape[0]
    e = -np.log1p(-stream(_RESTART_KEY).random((opts.restarts, nx)))  # flat Dirichlet
    p = np.vstack([np.full(nx, 1.0 / nx), e / e.sum(axis=1, keepdims=True)])
    steps = np.zeros(len(p), dtype=np.int64)
    running = np.ones(len(p), dtype=bool)
    t_init = np.ones(len(p))  # warm start: the step accepted last pass, doubled
    j0 = _mi_batch(_joint_rows(p, a), nu, ny)
    for _ in range(opts.max_iterations):
        g = _gradient_batch(p, a, nu, ny)
        running &= ~(_stationarity(p, g) < opts.convergence_tol)
        t_step, pending = t_init.copy(), running.copy()
        while True:
            # With no float-representable ascent step left, a row would
            # stall identically on every remaining pass: account them.
            stalled = pending & (t_step <= 1e-14)
            steps[stalled] = opts.max_iterations
            running &= ~stalled
            pending &= ~stalled
            if not pending.any():
                break
            cand = _project_rows(p + t_step[:, None] * g)
            j_cand = _mi_batch(_joint_rows(cand, a), nu, ny)
            accept = pending & (j_cand >= j0 + 1e-4 * _row_dot(g, cand - p))
            np.copyto(p, cand, where=accept[:, None])
            np.copyto(j0, j_cand, where=accept)
            np.copyto(t_init, np.minimum(1.0, 2.0 * t_step), where=accept)
            pending &= ~accept
            np.multiply(t_step, 0.5, out=t_step, where=pending)
        steps += running
        if not running.any():
            break

    residual = _stationarity(p, _gradient_batch(p, a, nu, ny))
    vals = _mi_batch(_joint_rows(p, a), nu, ny)
    w = int(np.flatnonzero(vals >= vals.max() - _TIE_TOL)[0])
    return CapacityResult(float(vals[w]), p[w], SOLVER_GRADIENT, int(steps[w]),
                          float(residual[w]))


def capacity_gap(px: Pmf, pyx: TransitionMatrix, pux: TransitionMatrix) -> float:
    """Rate lost to the perturbation: I(X;Y) - I(U;Y) = I(X;Y|U), in bits.

    Computed exactly from the triple joint p(x, u, y) = p(x) p(y|x) p(u|x);
    nonnegative because U depends on (X, Y) only through X.
    """
    a, nu, ny = _kernel(pyx, pux, px)
    triple = (px.probs[:, None] * a).reshape(px.size, nu, ny)
    h_xu = _entropy_bits(triple.sum(axis=2))
    h_uy = _entropy_bits(triple.sum(axis=0))
    h_u = _entropy_bits(triple.sum(axis=(0, 2)))
    h_xuy = _entropy_bits(triple)
    gap = h_xu + h_uy - h_u - h_xuy
    if -1e-9 < gap < 0.0:  # roundoff below zero
        return 0.0
    return float(gap)


def sweep_capacity_surface(p1_grid, p2_grid) -> list[tuple[float, float, float, float]]:
    """Closed-form capacity and gap on a (p1, p2) grid, row-major.

    Both grids must lie within [0, 0.5].  Rows are
    (p1, p2, 1 - H(q), H(q) - H(p1)) with q = p1 + p2 - 2 p1 p2.
    """
    p1s = [float(p) for p in p1_grid]
    p2s = [float(p) for p in p2_grid]
    for p in p1s + p2s:
        if not 0.0 <= p <= 0.5:
            raise DomainError(f"grid value {p!r} outside [0, 0.5]")
    rows = []
    for p1 in p1s:
        for p2 in p2s:
            cap = 1.0 - binary_entropy(composite_crossover(p1, p2))
            rows.append((p1, p2, cap, bsc_capacity_gap(p1, p2)))
    return rows
