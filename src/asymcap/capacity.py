"""Capacity of a channel decoded with a statistically perturbed codebook.

The decoder never sees the encoder's codeword symbol X, only its perturbed
copy U, so the relevant single-letter quantity is I(U; Y) under the joint
p(u, y) = sum_x p(x) p(y|x) p(u|x).  This module maximizes that quantity
over the input distribution p(x) three ways: a closed form for the binary
symmetric case, a simplex-lattice search, and multi-start projected
gradient ascent.  The lattice search returns the exhaustive search's
result bit for bit, but bisects the lattice lines and skips those that
its probes and a bound from I(U;Y) = [H(U) + H(Y)] - H(U, Y), a difference
of concave functions, show cannot hold the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .info import (
    DimensionMismatch,
    DomainError,
    Pmf,
    TransitionMatrix,
    _conditional_mutual_information,
    _freeze,
    _kernel,
    _log_ratios,
    _mix,
    _mutual_information,
    _probability,
    _row_dot,
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

GRID_INPUT_LIMIT = 4          # exhaustive search refuses larger input alphabets
MAX_GRID_POINTS = 20_000_000  # lattice size guard
MAX_RESTARTS = 1000           # the solver holds a (restarts + 1, nx) start array
_LOG2E = float(np.log2(np.e))
# capacity_grid evaluates every lattice line that may hold a point within
# MARGIN of the best lattice value; rounding in its bound is far smaller.
MARGIN = 1e-9
_BISECT_BATCH = 512   # lattice points probed per array pass while bisecting
# Candidates whose objective is within this of the best are treated as tied;
# the uniform start then wins, which pins down the maximizer on flat
# objectives (p1 or p2 equal to 1/2) where every input distribution is optimal.
_TIE_TOL = 1e-12
# Projected Armijo search along the projection arc (Bertsekas, Nonlinear
# Programming, 2nd ed., 1999, sec. 2.3): a trial step is accepted when it
# raises j and gains at least _SIGMA of its first-order gain.  On a
# quadratic, _SIGMA = 1/2 accepts exactly the steps up to the maximum along
# the line, so a step that overshoots it is rejected.  The next pass starts
# from the accepted step doubled, up to _T_MAX, which only keeps it finite.
_SIGMA = 0.5
_T_MAX = 2.0 ** 32
# A row is at its float floor when a rejected trial predicts a gain of at
# most _FLOOR_ULPS ulps of |j|, or its step is at most _EPS.  Such a step
# moves p by about its rounding; the projection is not exactly idempotent,
# so without that bound a gain of rounding noise could keep a search
# halving forever.  A row stopped here stays where its pass found it: fewer
# steps than the budget, and the gap that failed the tolerance test.
_FLOOR_ULPS = 4
_EPS = float(np.finfo(float).eps)
# Each pass of a row's step search tries t, t/2, ..., t/2^(_LADDER-1) (_ascend).
_LADDER = 4
_RUNGS = np.ldexp(1.0, -np.arange(_LADDER))
# Fixed Philox key for restart sampling keeps the solver deterministic.
_RESTART_KEY = 0x243F6A8885A308D3


class AlphabetLimitError(ValueError):
    """Input alphabet too large for exhaustive grid search."""


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the capacity solvers; convergence_tol is in
    bits, a bound on the gradient solver's residual (CapacityResult)."""

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

    residual is the lattice spacing for the grid solver and 0 for the
    closed form.  For the gradient solver it is the Frank-Wolfe gap at
    argmax_px, in bits: the largest g_x over the live inputs x less p.g,
    with g the gradient of I(U;Y) (mutual_information_gradient) and the
    inputs held at 0 (_dead_inputs) not live.  It is never negative, 0
    exactly at a KKT point, and where I(U;Y) is concave in p(x), as on an
    erasure channel or perturbation, it bounds capacity - value.  Like the
    gradient it skips empty (u, y) cells, so at a sparse boundary point it
    can read below that shortfall.  iterations counts the ascent steps the
    winning run took, each of which raised I(U;Y), and these two fields
    tell how the run stopped:

    - budget iff iterations equals max_iterations; a residual above the
      tolerance then says the run did not converge;
    - tolerance iff iterations is below max_iterations and residual below
      convergence_tol;
    - float floor otherwise: no shorter step could show a gain in float
      arithmetic, so what remains to gain is lost in rounding, and the run
      stopped where its residual had just failed the tolerance.
    """

    capacity: float
    argmax_px: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        _freeze(self, "argmax_px", np.array(self.argmax_px, dtype=float, copy=True))


def capacity_closed_form_bsc(p1: float, p2: float) -> CapacityResult:
    """Closed form for a binary symmetric channel and perturbation.

    The two flips compose into one binary symmetric link of crossover
    q = p1 + p2 - 2 p1 p2, so the value is 1 - H(q), attained by the
    uniform input.
    """
    p1, p2 = float(_probability("p1", p1)), float(_probability("p2", p2))
    cap = 1.0 - binary_entropy(composite_crossover(p1, p2))
    return CapacityResult(cap, np.array([0.5, 0.5]), 0, 0.0)


def _evaluate(P: np.ndarray, a: np.ndarray, nu: int, ny: int):
    """_mix(P, a) as (nu, ny) tables, their _log_ratios and I(U;Y)."""
    t = _mix(P, a).reshape(-1, nu, ny)
    logs = _log_ratios(t)
    return t, logs, _mutual_information(t, logs)


def _gradient(logs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient of I(U;Y) at each row from its _log_ratios table."""
    return _mix(logs.reshape(len(logs), -1), a.T) - _LOG2E


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, by
    sort and threshold (Duchi et al., ICML 2008)."""
    s, n = V.shape
    u = np.sort(V, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    rho = n - 1 - (u * np.arange(1, n + 1) > css - 1.0)[:, ::-1].argmax(axis=1)
    theta = (css[np.arange(s), rho] - 1.0) / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def _dead_inputs(P: np.ndarray, q: np.ndarray, a: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """Mask of the coordinates of each row of P that sit at 0 with a
    one-sided derivative of -inf, given q = _mix(P, a).

    Mass eps moved onto an input x at 0 feeds the cells c = (u, y) with
    q(c) = 0 that x reaches, and changes I(U;Y) by kappa eps log2(1/eps) +
    O(eps), where kappa adds A[x, c] over those cells with q(u) = q(y) = 0
    and subtracts it over those with q(u), q(y) > 0.  The gradient skips
    cells with q(c) = 0, so the ascent itself must hold x at 0 when
    kappa < 0.  With no coordinate at 0, or no cell at 0, none is dead."""
    if P.all() or q.all():
        return np.zeros(P.shape, dtype=bool)
    t = q.reshape(-1, nu, ny)
    zu, zy = t.sum(axis=2, keepdims=True) == 0, t.sum(axis=1, keepdims=True) == 0
    sign = (zu & zy).astype(float) - ((t == 0) & ~zu & ~zy)
    return (P == 0) & (_mix(sign.reshape(len(P), -1), a.T) < 0)


def _direction(P: np.ndarray, a: np.ndarray, nu: int, ny: int, q: np.ndarray,
               logs: np.ndarray):
    """The gradient of each row of P less its largest entry off the dead
    coordinates, and the dead mask (_dead_inputs), from P's _evaluate tables.

    Neither the projection nor a first-order gain sees a constant added to
    a row, but rounding does: the raw gradient carries -log2(e) in every
    entry, and a long step t g would round p + t g far above p's own ulp.
    Shifted, every coordinate the projection keeps lies in (-1, 1]."""
    G = _gradient(logs, a)
    dead = _dead_inputs(P, q, a, nu, ny)
    return G - np.where(dead, -np.inf, G).max(axis=1, keepdims=True), dead


def _arc(P: np.ndarray, G: np.ndarray, t, dead: np.ndarray) -> np.ndarray:
    """proj(p + t g) for each row, its dead coordinates ranked below every
    other coordinate so that they stay at 0."""
    return _project_rows(np.where(dead, -np.inf, P + np.reshape(t, (-1, 1)) * G))


def _vector(v, what: str, size: int | None = None) -> np.ndarray:
    """v as a float vector of the given size, or any size >= 1; else DimensionMismatch."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not len(v) or len(v) != (size or len(v)):
        raise DimensionMismatch(f"{what} must have shape ({size or 'n >= 1'},), got {v.shape}")
    return v


def input_mutual_information(
    p, pyx: TransitionMatrix, pux: TransitionMatrix
) -> float:
    """I(U;Y) induced by the (not necessarily normalized) input weights p.

    Accepting unnormalized weights keeps the function usable for
    finite-difference probes slightly off the simplex.
    """
    a, nu, ny = _kernel(pyx, pux)
    p = _vector(p, "input weights", a.shape[0])
    return float(_evaluate(p[None], a, nu, ny)[2][0])


def mutual_information_gradient(
    p, pyx: TransitionMatrix, pux: TransitionMatrix
) -> np.ndarray:
    """Exact gradient of input_mutual_information at p.

    Component x is sum_{u,y} p(y|x) p(u|x) log2[q(u,y) / (q(u) q(y))]
    minus log2(e); cells with q(u,y) = 0 are skipped.
    """
    a, nu, ny = _kernel(pyx, pux)
    p = _vector(p, "input weights", a.shape[0])
    return _gradient(_evaluate(p[None], a, nu, ny)[1], a)[0]


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    return _project_rows(_vector(v, "vector")[None])[0]


def _lines(k: int, nx: int):
    """The lattice's lines in lexicographic order, for nx >= 2.  Line i
    fixes the leading parts lead[i] (nx - 2 of them) and holds the
    length[i] + 1 points (lead[i], j, length[i] - j), j = 0..length[i]."""
    d = nx - 2
    lead = np.indices((k + 1,) * d, dtype=np.int64).reshape(d, (k + 1) ** d).T
    lead = lead[lead.sum(axis=1) <= k]
    return lead, k - lead.sum(axis=1)


def _points(k, lead, length, line, j) -> np.ndarray:
    """The lattice points (lead[line], j, length[line] - j) / k, one per row."""
    return np.column_stack([lead[line], j, length[line] - j]) / k


def _dc_parts(a, nu, ny, k, lead, length, line, j):
    """g = H(U) + H(Y), h = H(U, Y) and g's slope per unit step of j at the
    lattice points _points(k, lead, length, line, j); I(U;Y) = g - h.

    Its arithmetic is free: these values only rule points in or out against
    MARGIN, far above any rounding.  A cell with q(u) = 0 (or q(y) = 0) adds
    0 to the slope: strictly inside a line every coordinate the line moves
    is positive, so such a cell is 0 along the whole line."""
    a3, m = a.reshape(-1, nu, ny), nu * ny
    # one product gives the columns q(u, y), then q(u), then q(y)
    t = _mix(_points(k, lead, length, line, j), np.hstack((a, a3.sum(axis=2), a3.sum(axis=1))))
    logs = np.log2(np.where(t > 0, t, 1.0))
    # a unit step of j moves mass 1/k from coordinate nx-1 to nx-2, so q
    # moves by d/k; the log2(e) terms cancel because d sums to 0
    d = a3[-2] - a3[-1]
    slope = -_mix(logs[:, m:], np.concatenate((d.sum(axis=1), d.sum(axis=0)))[:, None])[:, 0] / k
    return -_row_dot(t[:, m:], logs[:, m:]), -_row_dot(t[:, :m], logs[:, :m]), slope


def _batched(fn, *cols):
    """fn over the rows of cols in slices of _BISECT_BATCH, concatenated."""
    n = len(cols[0])
    parts = [fn(*(c[i:i + _BISECT_BATCH] for c in cols)) for i in range(0, n, _BISECT_BATCH)]
    return [np.concatenate(v) for v in zip(*parts)]


def _live_lines(a, nu, ny, k, lead, length) -> np.ndarray:
    """Mask of the lattice lines that can hold a point within MARGIN of the
    lattice maximum (capacity_grid says why the bound holds).

    Both ends of every line are probed; then the lines are bisected one
    level per pass.  A pass probes the midpoint m of every surviving segment
    [i0, i1] of j, on every line not yet live, and drops a segment when the
    larger, over its ends e, of g(m) + g'(m) (e - m) - h(e) is below the
    best value probed minus MARGIN.  It halves the segments it keeps, and
    drops a segment with no point strictly inside it (i1 - i0 <= 1), as both
    its ends are probed.  So every m lies strictly inside its line, where g'
    is finite, and the bisection stops when no unprobed point is left in a
    surviving segment.  A line goes live only when a probed point scores
    within MARGIN of that best."""
    n = len(length)
    if n == 1:
        return np.ones(1, dtype=bool)
    parts = partial(_dc_parts, a, nu, ny, k, lead, length)
    lines, zero = np.arange(n), np.zeros(n, dtype=np.int64)
    g, h, _ = _batched(parts, np.tile(lines, 2), np.concatenate([zero, length]))
    best = (g - h).max()
    live = (g - h >= best - MARGIN).reshape(2, n).any(axis=0)
    line, i0, i1, h0, h1 = lines, zero, length, h[:n], h[n:]
    while (inner := (i1 - i0 > 1) & ~live[line]).any():
        line, i0, i1, h0, h1 = (v[inner] for v in (line, i0, i1, h0, h1))
        mid = (i0 + i1) // 2
        g, h, slope = _batched(parts, line, mid)
        best = max(best, (g - h).max())
        cut = best - MARGIN
        live[line[g - h >= cut]] = True
        bound = g + np.maximum((i0 - mid) * slope - h0, (i1 - mid) * slope - h1)
        keep = bound >= cut
        line, i0, i1, mid, h0, h1, h = (v[keep] for v in (line, i0, i1, mid, h0, h1, h))
        line, i0, i1, h0, h1 = (np.concatenate(v) for v in zip(
            (line, i0, mid, h0, h), (line, mid, i1, h, h1)))
    return live


def capacity_grid(
    pyx: TransitionMatrix, pux: TransitionMatrix, resolution: float = 1e-3
) -> CapacityResult:
    """Maximum of I(U;Y) over the simplex lattice with the given spacing.

    The result is the exhaustive search's, bit for bit: the largest lattice
    value, ties broken by the first lattice point in lexicographic order,
    iterations the lattice size and residual the spacing.  But only the lattice
    lines (first nx - 2 coordinates fixed) on which a probed point scores
    within MARGIN of the best value probed are evaluated, each whole and by the
    same operations as in an exhaustive pass.  Every point of the others was
    probed or lies in a segment ruled out by a bound, as each segment the
    bound keeps is halved until it holds no unprobed point: I(U;Y) = g - h with
    g = H(U) + H(Y) and h = H(U, Y) both concave in p(x), so on a segment g
    lies under its tangent at the midpoint and h over its chord (_live_lines).
    Rounding in the bound and in the values is far below MARGIN, so a skipped
    line holds only points strictly below the maximum, and the tie rule still
    holds.  A one-symbol input has the one-point lattice p(x) = 1.  Refuses
    input alphabets larger than GRID_INPUT_LIMIT.
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
    if nx == 1:
        one = float(_evaluate(np.ones((1, 1)), a, nu, ny)[2][0])
        return CapacityResult(one, [1.0], 1, 1.0 / k)
    lead, length = _lines(k, nx)

    best_val, best_p = -np.inf, None
    for line in np.flatnonzero(_live_lines(a, nu, ny, k, lead, length)):
        j = np.arange(length[line] + 1)
        pts = _points(k, lead, length, np.full_like(j, line), j)
        vals = _evaluate(pts, a, nu, ny)[2]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_p = float(vals[i]), pts[i].copy()
    return CapacityResult(best_val, best_p, comb(k + nx - 1, nx - 1), 1.0 / k)


def _carry(kept, rows, new, idx) -> None:
    """kept[rows] = new[idx], array by array: accepted trials move in."""
    for k, n in zip(kept, new):
        k[rows] = n.take(idx, 0)


def _ascend(p: np.ndarray, a: np.ndarray, nu: int, ny: int, opts: SolverOptions):
    """Projected Armijo ascent of I(U;Y) from each row of p, all rows as one
    array.  Returns the final rows, their values, the steps each took and
    their Frank-Wolfe gaps (CapacityResult's residual).

    A row stops on the tolerance, at the float floor or on the budget and
    leaves the step search, which is per row, so each row takes exactly the
    path it would take alone (each row of _mix and _row_dot has its one-row
    bits).  A pass tries the ladder t, t/2, ..., t/2^(_LADDER-1) at once for
    each row still searching, and goes on from t/2^_LADDER for rows no rung
    stops; the rungs are the exact halvings of a one-step-per-pass search,
    and a row takes the first rung at which that search would stop, so the
    path is the same bit for bit.  An accepted trial raises the row's value,
    moves the row and keeps it running; a float-floor stop leaves the row
    where its pass found it, so steps and gaps alone tell the three stops
    apart (CapacityResult).  A row carries its accepted trial's joint and
    log-ratio tables into its next gradient, so each point is evaluated once
    (_evaluate).  Each pass begins with the gap test, one _row_dot with the
    pass's direction, whose largest live entry is 0 (_direction); the last
    pass's direction gives the gaps returned, with no further projection."""
    p = p.copy()
    steps = np.zeros(len(p), dtype=np.int64)
    running = np.ones(len(p), dtype=bool)
    t_init = np.ones(len(p))  # warm start: the step accepted last pass, doubled
    q, logs, j0 = _evaluate(p, a, nu, ny)
    for it in range(opts.max_iterations + 1):
        G, dead = _direction(p, a, nu, ny, q, logs)
        gap = 0.0 - _row_dot(p, G)  # G's largest live entry is 0; 0.0 - keeps +0.0
        running &= ~(gap < opts.convergence_tol)
        if it == opts.max_iterations or not running.any():
            return p, j0, steps, gap
        rows, t_top = running.nonzero()[0], t_init[running]
        while len(rows):
            r, t_step = np.repeat(rows, _LADDER), (t_top[:, None] * _RUNGS).ravel()
            cand = _arc(p.take(r, 0), G.take(r, 0), t_step, dead.take(r, 0))
            qc, lc, jc = _evaluate(cand, a, nu, ny)
            jr = j0[r]
            gain = _row_dot(G.take(r, 0), cand - p.take(r, 0))  # first-order gain of the trial
            accept = (jc > jr) & (jc >= jr + _SIGMA * gain)
            floor = ~accept & ((gain <= _FLOOR_ULPS * np.spacing(np.abs(jr))) | (t_step <= _EPS))
            stop = (accept | floor).reshape(-1, _LADDER)
            hit = stop.any(axis=1)
            k = (np.arange(len(rows)) * _LADDER + stop.argmax(axis=1))[hit]  # first stop
            stopped, acc = rows[hit], accept[k]
            up, done = k[acc], stopped[acc]
            _carry((p, q, logs, j0), done, (cand, qc, lc, jc), up)
            t_init[done] = np.minimum(_T_MAX, 2.0 * t_step[up])
            steps[done] += 1
            running[stopped[floor[k]]] = False
            rows, t_top = rows[~hit], t_top[~hit] * 0.5 ** _LADDER


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

    Each run is a projected Armijo search along the projection arc, its warm
    start the last accepted step doubled; it backtracks on a ladder of exact
    halvings tried at once, with one-step-at-a-time bits, carries its
    accepted trial's joint and log-ratio tables into its next gradient, and
    tests its Frank-Wolfe gap, in bits, against convergence_tol at the start
    of each pass (_ascend).  Every step a run accepts raises I(U;Y).  A run
    stopped on the budget iff iterations equals max_iterations, on the
    tolerance iff iterations is below it and residual below convergence_tol,
    and at the float floor otherwise (CapacityResult).  An input at 0 whose
    one-sided derivative is -inf (_dead_inputs) is held at 0, in the steps
    and in the residual.  All runs advance together as the rows of one
    (starts, nx) array, and each takes exactly the path it would take alone.
    """
    opts = options or SolverOptions()
    a, nu, ny = _kernel(pyx, pux)
    nx = a.shape[0]
    e = -np.log1p(-stream(_RESTART_KEY).random((opts.restarts, nx)))  # flat Dirichlet
    starts = np.vstack([np.full(nx, 1.0 / nx), e / e.sum(axis=1, keepdims=True)])
    p, vals, steps, residual = _ascend(starts, a, nu, ny, opts)
    w = int(np.flatnonzero(vals >= vals.max() - _TIE_TOL)[0])
    return CapacityResult(float(vals[w]), p[w], int(steps[w]), float(residual[w]))


def capacity_gap(px: Pmf, pyx: TransitionMatrix, pux: TransitionMatrix) -> float:
    """Rate lost to the perturbation: I(X;Y) - I(U;Y) = I(X;Y|U), in bits.

    Computed exactly from the triple joint p(x, u, y) = p(x) p(y|x) p(u|x)
    as H(X|U) + H(Y|U) - H(X,Y|U), the expression whose identity
    I(U;Y) = I(X;Y) - I(X;Y|U) verify checks (rate_loss_decomposition);
    nonnegative because U depends on (X, Y) only through X.
    """
    a, nu, ny = _kernel(pyx, pux, px)
    triple = (px.probs[:, None] * a).reshape(1, px.size, nu, ny)  # one table: x, u, y
    gap = float(_conditional_mutual_information(triple, (0,), (2,), (1,))[0])
    if -1e-9 < gap < 0.0:  # roundoff below zero
        return 0.0
    return gap


def sweep_capacity_surface(p1_grid, p2_grid) -> list[tuple[float, float, float, float]]:
    """Closed-form capacity and gap on a (p1, p2) grid, row-major.

    Both grids must lie within [0, 0.5].  Rows are
    (p1, p2, 1 - H(q), H(q) - H(p1)) with q = p1 + p2 - 2 p1 p2, evaluated
    over the whole mesh at once, each entry as the scalar formulas give it.
    """
    g1, g2 = (np.fromiter(grid, dtype=float) for grid in (p1_grid, p2_grid))
    g = np.concatenate([g1, g2])
    bad = np.extract(~((g >= 0.0) & (g <= 0.5)), g)  # NaN is never inside
    if bad.size:
        raise DomainError(f"grid value {float(bad[0])!r} outside [0, 0.5]")
    p1, p2 = np.repeat(g1, len(g2)), np.tile(g2, len(g1))
    cap = 1.0 - binary_entropy(composite_crossover(p1, p2))
    return list(zip(p1.tolist(), p2.tolist(), cap.tolist(), bsc_capacity_gap(p1, p2).tolist()))
