"""Capacity solvers: closed form, lattice search, gradient ascent."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymcap import capacity
from asymcap.capacity import (
    MAX_RESTARTS,
    AlphabetLimitError,
    CapacityResult,
    SolverOptions,
    capacity_closed_form_bsc,
    capacity_gap,
    capacity_grid,
    capacity_optimize,
    input_mutual_information,
    mutual_information_gradient,
    simplex_project,
    sweep_capacity_surface,
)
from asymcap.info import (
    DimensionMismatch,
    DomainError,
    JointPmf,
    Pmf,
    TransitionMatrix,
    _kernel,
    _mix,
    _mutual_information,
    _row_dot,
    binary_entropy,
    bsc,
    bsc_capacity_gap,
    build_joint_uy,
    composite_crossover,
    mutual_information,
)
from asymcap.verify import default_grid

from gates import (GOLDEN_CASES, check_default_restarts_reach_the_maximum, golden_pair,
                   golden_summary, load_bench)

# Frozen reference values (high-precision evaluations rounded to float64).
CAP_01_01 = 0.3199229542717202      # 1 - H(0.18)
CAP_01_02 = 0.1732536275073821      # 1 - H(0.26)
CAP_005_005 = 0.5470574518127168    # 1 - H(0.095)
CAP_BSC_011 = 0.500084041835472     # 1 - H(0.11), classical capacity
GAP_01_01 = 0.21108145213899862     # H(0.18) - H(0.1)
CAP_025_025 = 0.045565997075035035  # 1 - H(0.375)

TOL = 1e-12


def _random_stochastic(rng, rows, cols, floor=0.02):
    m = rng.random((rows, cols)) + floor
    return TransitionMatrix(m / m.sum(axis=1, keepdims=True))


class TestClosedForm:
    def test_noiseless(self):
        r = capacity_closed_form_bsc(0.0, 0.0)
        assert r.capacity == 1.0
        np.testing.assert_array_equal(r.argmax_px, [0.5, 0.5])

    @pytest.mark.parametrize("p1", [0.0, 0.2, 0.37, 0.5])
    def test_half_perturbation_erases_everything(self, p1):
        assert capacity_closed_form_bsc(p1, 0.5).capacity == pytest.approx(0.0, abs=TOL)

    def test_frozen_values(self):
        assert capacity_closed_form_bsc(0.1, 0.1).capacity == pytest.approx(CAP_01_01, abs=TOL)
        assert capacity_closed_form_bsc(0.1, 0.2).capacity == pytest.approx(CAP_01_02, abs=TOL)
        assert capacity_closed_form_bsc(0.05, 0.05).capacity == pytest.approx(CAP_005_005, abs=TOL)

    def test_no_perturbation_reduces_to_channel_capacity(self):
        assert capacity_closed_form_bsc(0.11, 0.0).capacity == pytest.approx(CAP_BSC_011, abs=TOL)

    @pytest.mark.parametrize("bad", [(-0.1, 0.2), (0.2, 1.3)])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            capacity_closed_form_bsc(*bad)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_flip_symmetry(self, p1, p2):
        c = capacity_closed_form_bsc(p1, p2).capacity
        assert capacity_closed_form_bsc(1 - p1, p2).capacity == pytest.approx(c, abs=1e-12)
        assert capacity_closed_form_bsc(p1, 1 - p2).capacity == pytest.approx(c, abs=1e-12)

    def test_strict_dominance_by_unperturbed_capacity(self):
        for p1 in (0.05, 0.2, 0.45):
            for p2 in (0.05, 0.2, 0.45):
                c = capacity_closed_form_bsc(p1, p2).capacity
                assert c < 1 - binary_entropy(p1)
        # equality when the perturbation vanishes
        assert capacity_closed_form_bsc(0.2, 0.0).capacity == pytest.approx(
            1 - binary_entropy(0.2), abs=TOL
        )


class TestGrid:
    def test_bsc_matches_closed_form(self):
        r = capacity_grid(bsc(0.1), bsc(0.1), 1e-3)
        assert abs(r.capacity - CAP_01_01) < 1e-5
        assert np.abs(r.argmax_px - 0.5).max() < 1e-3
        assert r.residual == pytest.approx(1e-3)

    def test_identity_perturbation_gives_channel_capacity(self):
        r = capacity_grid(bsc(0.11), TransitionMatrix.identity(2), 1e-3)
        assert abs(r.capacity - CAP_BSC_011) < 1e-5

    def test_useless_channel_is_flat_zero(self):
        useless = TransitionMatrix([[0.6, 0.4], [0.6, 0.4]])
        r = capacity_grid(useless, TransitionMatrix.identity(2), 0.05)
        assert abs(r.capacity) < 1e-12

    def test_exact_ties_break_to_first_lattice_point(self):
        ident = TransitionMatrix.identity(2)
        r = capacity_grid(ident, ident, resolution=1.0)
        # both lattice points score exactly 0 bits; the first one wins
        assert r.capacity == 0.0
        np.testing.assert_array_equal(r.argmax_px, [0.0, 1.0])
        assert r.iterations == 2

    def test_alphabet_limit(self):
        rng = np.random.default_rng(0)
        with pytest.raises(AlphabetLimitError):
            capacity_grid(_random_stochastic(rng, 5, 2), _random_stochastic(rng, 5, 2), 0.1)

    def test_lattice_size_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            capacity_grid(_random_stochastic(rng, 4, 2), _random_stochastic(rng, 4, 2), 1e-3)

    @pytest.mark.parametrize("resolution", [1e-320, 5e-324])
    def test_subnormal_resolution_refused(self, resolution):
        # 1 / resolution overflows to inf, even for a one-input channel
        for pyx in (bsc(0.1), TransitionMatrix([[0.3, 0.7]])):
            pux = TransitionMatrix.identity(pyx.input_size)
            with pytest.raises(DomainError, match="lattice"):
                capacity_grid(pyx, pux, resolution)

    def test_iterations_counts_lattice_points(self):
        r = capacity_grid(bsc(0.1), bsc(0.2), 0.01)
        assert r.iterations == 101


def _composition_blocks(k, d):
    """Integer compositions of k into d parts in lexicographic order, one
    int64 block per lattice line (the first d - 2 parts fixed)."""
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


def _exhaustive_grid(pyx, pux, resolution):
    """Reference lattice search: every line evaluated, first strict maximum wins."""
    nx = pyx.input_size
    k = max(1, round(1.0 / resolution))
    a, nu, ny = _kernel(pyx, pux)
    best_val, best_p, total = -np.inf, None, 0
    for blk in _composition_blocks(k, nx):
        pts = blk.astype(float) / k
        vals = capacity._evaluate(pts, a, nu, ny)[2]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_p = pts[i].copy()
        total += blk.shape[0]
    return CapacityResult(best_val, best_p, total, 1.0 / k)


PRUNING_RESOLUTIONS = (1.0, 0.5, 0.37, 0.2, 0.013, 0.01, 1e-3)
PRUNING_KINDS = ("plain", "zeros", "tiny", "flat", "diagonal")


def _pruning_case(i):
    """Case i of 140 covers each (nx, kind, resolution) once: nx 1-4, ny and
    nu 1-6, tables plain, with zero cells, with entries near 1e-300, flat
    (a useless channel, or a perturbation with equal rows), or with a heavy
    diagonal, whose maximizer tends to lie inside the simplex."""
    nx, kind = 1 + i % 4, PRUNING_KINDS[i // 4 % 5]
    resolution = PRUNING_RESOLUTIONS[i % 7]
    if nx == 4 and resolution == 1e-3:
        resolution = 0.02  # 1e-3 exceeds the lattice size guard at nx = 4
    rng = np.random.default_rng(1000 + i)
    mats = []
    for cols in rng.integers(1, 7, size=2):
        m = rng.random((nx, cols)) + 0.02
        if kind == "zeros":
            m[rng.random((nx, cols)) < 0.35] = 0.0
            m[:, 0] += 0.05
        elif kind == "tiny":
            m[rng.random((nx, cols)) < 0.35] = 1e-300
        elif kind == "flat" and len(mats) == i // 20 % 2:
            m[:] = m[0]
        elif kind == "diagonal":
            m[np.arange(nx), np.arange(nx) % cols] += 5.0
        mats.append(TransitionMatrix(m / m.sum(axis=1, keepdims=True)))
    return mats[0], mats[1], resolution


class TestGridPruning:
    """capacity_grid skips lattice lines by a bound, yet must return the
    exhaustive search's result bit for bit."""

    @pytest.mark.parametrize("case", range(140))
    def test_matches_exhaustive_search(self, case):
        pyx, pux, resolution = _pruning_case(case)
        got = capacity_grid(pyx, pux, resolution)
        want = _exhaustive_grid(pyx, pux, resolution)
        assert golden_summary(got) == golden_summary(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_interior_maximum(self, seed):
        # the maximizer is inside the simplex and off the probed midpoints,
        # so only a valid bound keeps its line
        rng = np.random.default_rng(seed)
        pyx, pux = (_random_stochastic(rng, 3, 3, floor=0.02 + 5.0 * np.eye(3)) for _ in "yu")
        got = capacity_grid(pyx, pux, 1e-3)
        assert np.all(got.argmax_px > 0.0)
        assert golden_summary(got) == golden_summary(_exhaustive_grid(pyx, pux, 1e-3))

    @staticmethod
    def _rows_evaluated(monkeypatch, pyx, pux):
        """capacity_grid at spacing 1e-3 and the rows it evaluates exactly:
        _dc_parts' probes call _mix directly, so these are whole lines."""
        rows = []
        evaluate = capacity._evaluate
        monkeypatch.setattr(capacity, "_evaluate",
                            lambda P, a, nu, ny: rows.append(len(P)) or evaluate(P, a, nu, ny))
        return capacity_grid(pyx, pux, 1e-3), sum(rows)

    def test_peaked_objective_skips_most_lines(self, monkeypatch):
        pyx, pux = golden_pair(31, 3, 3, 3)
        r, rows = self._rows_evaluated(monkeypatch, pyx, pux)
        assert r.iterations == 501_501
        assert rows <= 0.25 * 501_501

    @pytest.mark.parametrize("flat", ["channel", "perturbation"])
    def test_flat_objective_evaluates_every_point(self, monkeypatch, flat):
        rng = np.random.default_rng(9)
        pyx, pux = _random_stochastic(rng, 3, 4), _random_stochastic(rng, 3, 3)
        if flat == "channel":
            pyx = TransitionMatrix(np.repeat(pyx.matrix[:1], 3, axis=0))
        else:
            pux = TransitionMatrix(np.repeat(pux.matrix[:1], 3, axis=0))
        r, rows = self._rows_evaluated(monkeypatch, pyx, pux)
        assert rows == 501_501
        assert golden_summary(r) == golden_summary(_exhaustive_grid(pyx, pux, 1e-3))

    def test_edge_maximum_probes_short_segments(self, monkeypatch):
        # the bench's `capacity` pair nx3_0 at seed 0, pass 0: its maximum
        # lies on the edge p(x3) = 0, and on 35 other lines the bound keeps
        # a segment of at most 8 points next to an edge.  Bisecting those
        # segments down to their last points rules the lines out;
        # evaluating them whole would take 20,106 rows.
        pyx = TransitionMatrix([
            [0.29757920337241706, 0.627130126691422, 0.0752906699361609],
            [0.39675009095694536, 0.5905083739252773, 0.012741535117777463],
            [0.2478532433397215, 0.6819655408100254, 0.07018121585025333]])
        pux = TransitionMatrix([
            [0.29315260308289487, 0.23265528355752013, 0.2197022346243574, 0.2544898787352276],
            [0.2453286888253916, 0.18424065811653179, 0.16081576823227545, 0.40961488482580116],
            [0.18402803798882694, 0.28080833962177476, 0.12463597970664468, 0.4105276426827536]])
        r, rows = self._rows_evaluated(monkeypatch, pyx, pux)
        assert r.argmax_px[2] == 0.0
        assert rows <= 2 * 1001
        assert golden_summary(r) == golden_summary(_exhaustive_grid(pyx, pux, 1e-3))

    @staticmethod
    def check_diagonal_pairs(seeds, resolution=0.01):
        """capacity_grid against the exhaustive search on heavy-diagonal 3x3
        pairs, whose maximizer lies inside the simplex."""
        for seed in seeds:
            rng = np.random.default_rng(seed)
            pyx, pux = (_random_stochastic(rng, 3, 3, floor=0.02 + 5.0 * np.eye(3)) for _ in "yu")
            got = capacity_grid(pyx, pux, resolution)
            assert golden_summary(got) == golden_summary(
                _exhaustive_grid(pyx, pux, resolution)), seed

    def test_maximum_inside_a_short_segment(self):
        # on some of these pairs (seeds 2, 25, 42, 51 and 54) the maximum
        # lies strictly inside a short segment, off its midpoint, and every
        # point probed on its line scores more than MARGIN below the best
        # probed elsewhere, so only bisecting the segment to its last
        # unprobed point keeps the line
        self.check_diagonal_pairs(range(64))

    @staticmethod
    def check_bound_covers_segments(seeds):
        """On lines 0, 250, 500 and 900 of the spacing-1e-3 lattice of random
        3-input pairs, _live_lines' bound at the midpoint m of a segment
        [i0, i1] is no lower than the segment's best value: g(m) + max over
        its ends e of (e - m) s(m) - h(e) >= max g(j) - h(j), j in [i0, i1]."""
        k = 1000
        lead, length = capacity._lines(k, 3)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            pyx, pux = (_random_stochastic(rng, 3, int(rng.integers(2, 5))) for _ in "yu")
            a, nu, ny = _kernel(pyx, pux)
            for line in (0, 250, 500, 900):
                n = length[line]
                j = np.arange(n + 1)
                g, h, s = capacity._dc_parts(a, nu, ny, k, lead, length, np.full_like(j, line), j)
                for i0, i1 in [(0, n), (0, n // 2), (n // 2, n), (n // 4, 3 * n // 4)]:
                    m = (i0 + i1) // 2
                    bound = g[m] + max((i0 - m) * s[m] - h[i0], (i1 - m) * s[m] - h[i1])
                    assert bound >= (g - h)[i0:i1 + 1].max() - 1e-12, (seed, line, i0, i1)

    def test_bound_covers_its_segment(self):
        # the pruning cases above still pass with the bound's tangent term
        # zeroed or negated; this check fails under both
        self.check_bound_covers_segments(range(100))


class TestOptimize:
    def test_bsc_matches_closed_form(self):
        r = capacity_optimize(bsc(0.1), bsc(0.2))
        assert abs(r.capacity - CAP_01_02) < 1e-6

    def test_flat_objective_returns_uniform(self):
        # at half perturbation every input law scores zero; the uniform
        # start must win the tie so the maximizer is pinned
        r = capacity_optimize(bsc(0.3), bsc(0.5))
        assert r.capacity == pytest.approx(0.0, abs=TOL)
        np.testing.assert_array_equal(r.argmax_px, [0.5, 0.5])

    def test_identity_perturbation_matches_grid(self):
        pyx = bsc(0.11)
        ident = TransitionMatrix.identity(2)
        r = capacity_optimize(pyx, ident)
        g = capacity_grid(pyx, ident, 1e-3)
        assert abs(r.capacity - g.capacity) < 2e-3
        assert abs(r.capacity - CAP_BSC_011) < 1e-6

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_ternary_agrees_with_grid(self, seed):
        rng = np.random.default_rng(seed)
        pyx = _random_stochastic(rng, 3, 2)
        pux = _random_stochastic(rng, 3, 3)
        r = capacity_optimize(pyx, pux)
        g = capacity_grid(pyx, pux, 1e-3)
        assert abs(r.capacity - g.capacity) < 2e-3

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(77)
        pyx = _random_stochastic(rng, 3, 3, floor=0.05)
        pux = _random_stochastic(rng, 3, 3, floor=0.05)
        opts = SolverOptions(max_iterations=2, restarts=1)
        r = capacity_optimize(pyx, pux, opts)
        assert r.iterations == 2
        assert r.residual > opts.convergence_tol

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        pyx = _random_stochastic(rng, 3, 3)
        pux = _random_stochastic(rng, 3, 2)
        a = capacity_optimize(pyx, pux)
        b = capacity_optimize(pyx, pux)
        assert a.capacity == b.capacity
        np.testing.assert_array_equal(a.argmax_px, b.argmax_px)

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SolverOptions(restarts=0)
        with pytest.raises(DomainError):
            SolverOptions(restarts=MAX_RESTARTS + 1)
        with pytest.raises(DomainError):
            SolverOptions(grid_resolution=0.0)
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                SolverOptions(convergence_tol=tol)

    def test_low_capacity_pair_does_not_crawl(self):
        # capacity about 8e-4 and a tiny gradient: with the warm start capped
        # at t <= 1 the ascent spent all 300 iterations and printed 6.7e-4
        pyx, pux = golden_pair(133, 3, 3, 3)
        r = capacity_optimize(pyx, pux)
        assert r.capacity >= capacity_grid(pyx, pux, 1e-3).capacity - 1e-9
        assert r.iterations <= 60

    def test_zero_entries_reach_lattice_maximum(self):
        # nx3_zeros: an input at 0 feeds empty cells; letting the steps move
        # it (the gradient skips those cells) stopped the ascent at 0.0858880
        pyx, pux = golden_pair(32, 3, 3, 4, zeros=True)
        g = capacity_grid(pyx, pux, 1e-3)
        assert g.capacity == pytest.approx(0.0859982, abs=1e-7)
        assert abs(capacity_optimize(pyx, pux).capacity - g.capacity) < 1e-5

    # X = 2 shares U with X = 0 and Y with X = 1, so at px = (1/2, 1/2, 0)
    # it alone feeds the empty cell (u, y) = (0, 1), and moving mass onto it
    # costs eps log2(1/eps); the private X = 2 of the second pair gains that.
    _CONFUSER = ([[1, 0], [0, 1], [0, 1]], [[1, 0], [0, 1], [1, 0]])
    _PRIVATE = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("tables, dead", [(_CONFUSER, True), (_PRIVATE, False)])
    def test_dead_input_has_minus_infinite_derivative(self, tables, dead):
        pyx, pux = (TransitionMatrix(np.array(m, dtype=float)) for m in tables)
        a, nu, ny = _kernel(pyx, pux)
        p = np.array([0.5, 0.5, 0.0])
        q = _mix(p[None], a)
        np.testing.assert_array_equal(capacity._dead_inputs(p[None], q, a, nu, ny)[0],
                                      [False, False, dead])
        base = input_mutual_information(p, pyx, pux)
        slopes = [(input_mutual_information(p + eps * np.array([-0.5, -0.5, 1.0]), pyx, pux)
                   - base) / eps for eps in (1e-4, 1e-8, 1e-12)]
        assert all(np.diff(slopes) < -1.0) if dead else all(np.diff(slopes) > 1.0)

    @staticmethod
    def _dead_by_sign_rule(P, q, a, nu, ny):
        """_dead_inputs' rule written cell by cell: x at 0 is dead when the
        sum of A[x, c] over the cells c with q(c) = 0, taken with + where
        q(u) = q(y) = 0 and - where q(u), q(y) > 0, is negative."""
        dead = np.zeros(P.shape, dtype=bool)
        for i, (p, t) in enumerate(zip(P, q.reshape(-1, nu, ny))):
            zu, zy = t.sum(axis=1) == 0, t.sum(axis=0) == 0
            for x in np.flatnonzero(p == 0):
                kappa = []
                for u, y in zip(*np.nonzero(t == 0)):
                    if zu[u] and zy[y]:
                        kappa.append(a[x, u * ny + y])
                    elif not (zu[u] or zy[y]):
                        kappa.append(-a[x, u * ny + y])
                dead[i, x] = math.fsum(kappa) < 0
        return dead

    def test_dead_inputs_match_the_sign_rule(self, monkeypatch):
        # with no zero cell in q the sign table is 0, so _dead_inputs must
        # return the all-False mask without forming its sign product
        products = []
        monkeypatch.setattr(capacity, "_mix", lambda P, b: products.append(1) or _mix(P, b))
        seen = set()
        for seed in range(70):
            rng = np.random.default_rng(seed)
            nx, ny, nu = 2 + seed % 7, *(int(v) for v in rng.integers(1, 6, size=2))
            pyx, pux = golden_pair(900 + seed, nx, ny, nu, zeros=seed % 2 == 0)
            a, nu, ny = _kernel(pyx, pux)
            P = rng.dirichlet(np.ones(nx), size=12)
            P[rng.random(P.shape) < 0.4] = 0.0
            P[np.arange(12), rng.integers(nx, size=12)] += 0.1
            P /= P.sum(axis=1, keepdims=True)
            q = _mix(P, a)
            for rows in [slice(None)] + [slice(i, i + 1) for i in range(12)]:
                del products[:]
                got = capacity._dead_inputs(P[rows], q[rows], a, nu, ny)
                want = self._dead_by_sign_rule(P[rows], q[rows], a, nu, ny)
                np.testing.assert_array_equal(got, want)
                skipped = P[rows].all() or q[rows].all()
                assert len(products) == (0 if skipped else 1)
                seen.add((bool(P[rows].all()), bool(q[rows].all()), bool(got.any())))
        # rows at 0 with and without a zero cell, and some input found dead
        assert {(False, True, False), (False, False, False), (False, False, True)} <= seen

    def test_zero_cells_give_no_warning_and_no_nan(self):
        pyx, pux = (TransitionMatrix(np.array(m, dtype=float)) for m in self._CONFUSER)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = capacity_optimize(pyx, pux)
        assert np.isfinite([r.capacity, r.residual, *r.argmax_px]).all()
        assert r.capacity == pytest.approx(1.0, abs=1e-9)
        assert r.argmax_px[2] == 0.0

    @pytest.mark.parametrize("name", ["nx3_zeros", "nx4_a", "nx8_zeros"])
    def test_batch_rows_follow_their_lone_paths(self, name):
        pyx, pux = GOLDEN_CASES[name][0]()
        a, nu, ny = _kernel(pyx, pux)
        starts = np.random.default_rng(5).dirichlet(np.ones(a.shape[0]), size=8)
        opts = SolverOptions()
        batch = capacity._ascend(starts, a, nu, ny, opts)
        for i in range(len(starts)):
            alone = capacity._ascend(starts[i:i + 1], a, nu, ny, opts)
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[i], want[0])

    def test_default_restarts_reach_the_maximum(self):
        # only the last of the eight default starts reaches it
        check_default_restarts_reach_the_maximum()

    def test_input_size_mismatch(self):
        # the solvers take no px, so the message names only the two matrices
        with pytest.raises(DimensionMismatch, match="^input alphabets disagree: "
                           "channel has 2, perturbation has 3$"):
            capacity_optimize(bsc(0.1), TransitionMatrix.identity(3))


# Solver results of the projected Armijo ascent that stops at the float
# floor; any change of a bit must be explained.  Each entry is (capacity,
# argmax_px, iterations, residual), floats as float.hex.
GOLDEN_RESULTS = {
    "bsc_0.1_0.2": (
        "0x1.62d2cc4075e8cp-3",
        ["0x1.0000000000000p-1", "0x1.0000000000000p-1"],
        0, "0x0.0p+0",
    ),
    "bsc_0.3_0.5": (
        "0x0.0p+0",
        ["0x1.0000000000000p-1", "0x1.0000000000000p-1"],
        0, "0x0.0p+0",
    ),
    "bsc_0_0": (
        "0x1.0000000000000p+0",
        ["0x1.0000000000000p-1", "0x1.0000000000000p-1"],
        0, "0x0.0p+0",
    ),
    "bsc_0.11_identity": (
        "0x1.000b03f9dea47p-1",
        ["0x1.0000000000000p-1", "0x1.0000000000000p-1"],
        0, "0x0.0p+0",
    ),
    "nx2_a": (
        "0x1.1e0d61495aefcp-7",
        ["0x1.9f925f9ae7cd3p-2", "0x1.3036d0328c196p-1"],
        10, "0x1.170456ad16a81p-29",
    ),
    "nx2_zeros": (
        "0x1.0c97dfbe54be0p-10",
        ["0x1.d2250eee54872p-2", "0x1.16ed7888d5bc7p-1"],
        17, "0x1.4e6794ecd7bb6p-32",
    ),
    "nx3_a": (
        "0x1.0777ff19cc9e0p-6",
        ["0x0.0p+0", "0x1.dea01a101eec6p-2", "0x1.10aff2f7f089dp-1"],
        14, "0x1.0abdecc54d013p-30",
    ),
    "nx3_zeros": (
        "0x1.603fac67ae572p-4",
        ["0x1.2997f24b5c3e5p-1", "0x0.0p+0", "0x1.acd01b6947836p-2"],
        21, "0x1.f0cc173bcdccfp-32",
    ),
    "nx4_a": (
        "0x1.04bc46d12ba1ap-6",
        [
            "0x1.1073fc778d849p-1", "0x0.0p+0", "0x0.0p+0",
            "0x1.df180710e4f6ep-2",
        ],
        14, "0x1.b5688ebf9db1fp-30",
    ),
    "nx4_zeros": (
        "0x1.8518e9666f024p-3",
        [
            "0x1.417a288d42acap-1", "0x1.7d0baee57aa6cp-2", "0x0.0p+0",
            "0x0.0p+0",
        ],
        15, "0x1.07acbcf28cf89p-29",
    ),
    "nx8_a": (
        "0x1.2f7261a4b9282p-4",
        [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.a9dc97a8424f8p-2",
            "0x1.2b11b42bded84p-1", "0x0.0p+0",
        ],
        15, "0x1.53d9ccb4e32cdp-29",
    ),
    "nx8_zeros": (
        "0x1.558bfae3c3bd6p-2",
        [
            "0x0.0p+0", "0x0.0p+0", "0x1.e3e1b25c19453p-2",
            "0x0.0p+0", "0x0.0p+0", "0x1.00fe04ea36625p-2",
            "0x0.0p+0", "0x1.1b2048b9b0587p-2",
        ],
        17, "0x1.d900c6841512ep-28",
    ),
    "nx3_two_steps": (
        "0x1.c6a4acef453aap-7",
        ["0x1.09c3e607c98ecp-2", "0x1.748f093968da4p-2", "0x1.81ad10becd970p-2"],
        2, "0x1.c5100856192d7p-7",
    ),
    "nx4_loose": (
        "0x1.5c05032c82500p-6",
        [
            "0x0.0p+0", "0x1.3086457f846f6p-1", "0x0.0p+0",
            "0x1.9ef37500f7214p-2",
        ],
        16, "0x1.0dcf408e8067fp-21",
    ),
}

# Capacities the same cases reached under the earlier step rule (warm
# start capped at t <= 1, sufficient-increase constant 1e-4); the float-floor
# ascent may only find more.
GOLDEN_FLOORS = {
    "nx2_a": "0x1.1e0d61495aaa2p-7",
    "nx2_zeros": "0x1.0c7e1aa865ab8p-10",
    "nx3_a": "0x1.0777ff19cc8efp-6",
    "nx3_zeros": "0x1.5fcc21f71a01bp-4",
    "nx4_a": "0x1.04bc46d12b9dcp-6",
    "nx4_zeros": "0x1.8518e9666f024p-3",
    "nx8_a": "0x1.2f7261a4b9288p-4",
    "nx8_zeros": "0x1.558bfae3c3be0p-2",
    "nx3_two_steps": "0x1.a47fc4a78ad12p-7",
    "nx4_loose": "0x1.5c05032c5cbb8p-6",
}


class TestOptimizeGolden:
    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    def test_bit_identical(self, name):
        build, kw = GOLDEN_CASES[name]
        pyx, pux = build()
        r = capacity_optimize(pyx, pux, SolverOptions(**kw))
        if name in GOLDEN_FLOORS:
            assert r.capacity >= float.fromhex(GOLDEN_FLOORS[name]) - 1e-12
        # the gap is never negative, and 0.0 - keeps a zero gap at +0.0
        assert r.residual >= 0.0 and math.copysign(1.0, r.residual) == 1.0
        assert golden_summary(r) == GOLDEN_RESULTS[name]


def _sequential_ascend(p, a, nu, ny, opts):
    """Reference for capacity._ascend: each pass of the step search tries one
    step per pending row and halves it for the rows that go on.  Returns
    _ascend's (rows, values, steps, gaps) and the most trials one search
    took."""
    p = p.copy()
    steps = np.zeros(len(p), dtype=np.int64)
    running = np.ones(len(p), dtype=bool)
    t_init = np.ones(len(p))
    j0 = capacity._evaluate(p, a, nu, ny)[2]
    most = 0
    for it in range(opts.max_iterations + 1):
        g, dead = capacity._direction(p, a, nu, ny, *capacity._evaluate(p, a, nu, ny)[:2])
        gap = 0.0 - _row_dot(p, g)
        running &= ~(gap < opts.convergence_tol)
        if it == opts.max_iterations or not running.any():
            return (p, j0, steps, gap), most
        t_step, pending = t_init.copy(), running.copy()
        trials = np.zeros(len(p), dtype=np.int64)
        while pending.any():
            trials += pending
            cand = capacity._arc(p, g, t_step, dead)
            j_cand = capacity._evaluate(cand, a, nu, ny)[2]
            gain = _row_dot(g, cand - p)
            accept = pending & (j_cand > j0) & (j_cand >= j0 + capacity._SIGMA * gain)
            floor = pending & ~accept & (
                (gain <= capacity._FLOOR_ULPS * np.spacing(np.abs(j0)))
                | (t_step <= capacity._EPS))
            np.copyto(p, cand, where=accept[:, None])
            np.copyto(j0, j_cand, where=accept)
            np.copyto(t_init, np.minimum(capacity._T_MAX, 2.0 * t_step), where=accept)
            steps += accept
            running &= ~floor
            pending &= ~(accept | floor)
            np.multiply(t_step, 0.5, out=t_step, where=pending)
        most = max(most, int(trials.max()))


# max_iterations 1 and 2 stop runs mid-search, restarts=1 leaves a batch of
# two rows, and the loose tolerance stops them early
ORACLE_OPTIONS = (SolverOptions(), SolverOptions(max_iterations=1),
                  SolverOptions(max_iterations=2, restarts=1),
                  SolverOptions(restarts=3, convergence_tol=1e-5))


class TestSequentialOracle:
    """_ascend tries a ladder of halved steps per pass; every row must end
    bit for bit where the one-trial-per-pass search leaves it."""

    @staticmethod
    def _check(pyx, pux, opts, seed):
        a, nu, ny = _kernel(pyx, pux)
        nx = a.shape[0]
        starts = np.vstack([np.full(nx, 1.0 / nx),
                            np.random.default_rng(seed).dirichlet(np.ones(nx), opts.restarts)])
        want, most = _sequential_ascend(starts, a, nu, ny, opts)
        got = capacity._ascend(starts, a, nu, ny, opts)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        return most

    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    def test_golden_cases(self, name):
        build, kw = GOLDEN_CASES[name]
        self._check(*build(), SolverOptions(**kw), seed=0)

    def test_random_pairs(self, monkeypatch):
        passes = _watch_passes(monkeypatch)
        most = 0
        for i in range(200):
            rng = np.random.default_rng(i)
            nx, ny, nu = (int(v) for v in rng.integers(2, (9, 6, 6)))
            pyx, pux = golden_pair(500 + i, nx, ny, nu, zeros=i % 3 == 0)
            most = max(most, self._check(pyx, pux, ORACLE_OPTIONS[i % 4], seed=i))
        # some search ran past the first ladder, so the rungs after it were
        # compared too
        assert most > capacity._LADDER
        # some pass stopped a row on the tolerance while another row searched on
        assert any(entered and stopped for entered, stopped, _ in passes)
        # _dead_inputs took both branches: passes with a coordinate at 0 and
        # passes without one
        assert {zero for _, _, zero in passes} == {False, True}

    def test_search_stops_at_first_step_below_eps(self, monkeypatch):
        # Perturbation rows 1.5e-7 apart leave I(U;Y) near 5e-17.  At that
        # float floor every trial step below 2^-7 projects to one point,
        # rejected with a gain (1.4e-31) above the ulp bound (2.5e-32), so
        # only the t <= eps clause ends the second step's search: it halves
        # from its warm start 2^-2 to 2^-52 (51 trials).  The ladder holding
        # 2^-52 starts at 2^-50, so no later ladder may be tried.
        pyx = TransitionMatrix([[0.8047001045307913, 0.19529989546920865],
                                [0.4876040819049241, 0.512395918095076],
                                [0.7771938759081197, 0.2228061240918804]])
        pux = TransitionMatrix([[0.20929579292134798, 0.06804181756303547, 0.7226623895156166],
                                [0.20929578513878505, 0.06804190861171733, 0.7226623062494977],
                                [0.20929569064398587, 0.06804205635030622, 0.7226622530057079]])
        start = np.array([[0.34098942504725377, 0.3341109606270165, 0.32489961432572967]])
        opts = SolverOptions(convergence_tol=1e-300)  # no tolerance stop above the floor
        a, nu, ny = _kernel(pyx, pux)
        want, most = _sequential_ascend(start, a, nu, ny, opts)
        assert most == 51 and want[2][0] == 1
        tried, real_arc = [], capacity._arc

        def arc(p, g, t, dead):
            tried.append(np.min(t))
            return real_arc(p, g, t, dead)

        monkeypatch.setattr(capacity, "_arc", arc)
        got = capacity._ascend(start, a, nu, ny, opts)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert min(tried) == capacity._EPS / 2


def _watch_passes(monkeypatch):
    """Record each pass of capacity._ascend as (rows entering its step
    search, rows its gap test stopped, whether some row had a coordinate at
    0).  A pass begins with a _direction call, and its first _arc call holds
    _LADDER trials per entering row.  The gap test stopped row i if its gap
    is below the tolerance and it was running: at the first pass, or when
    the last pass raised its value, as every accepted step does, moving the
    row and keeping it running (a row that stopped earlier keeps its point,
    its value and its gap)."""
    passes, current, run = [], [None], {}
    ascend, direction, arc = capacity._ascend, capacity._direction, capacity._arc

    def watched_ascend(p, a, nu, ny, opts):
        run.update(tol=opts.convergence_tol, j=None)
        try:
            return ascend(p, a, nu, ny, opts)
        finally:
            run.clear()

    def watched_direction(P, a, nu, ny, q, logs):
        G, dead = direction(P, a, nu, ny, q, logs)
        if run:  # not one of the one-trial-per-pass reference's passes
            j = _mutual_information(q, logs)
            below = 0.0 - _row_dot(P, G) < run["tol"]
            moved = np.ones(len(P), dtype=bool) if run["j"] is None else j != run["j"]
            run["j"] = j
            current[0] = [0, int((below & moved).sum()), not P.all()]
            passes.append(current[0])
        return G, dead

    def watched_arc(P, G, t, dead):
        if current[0]:
            current[0][0] = len(P) // capacity._LADDER
            current[0] = None
        return arc(P, G, t, dead)

    for name, f in [("_ascend", watched_ascend), ("_direction", watched_direction),
                    ("_arc", watched_arc)]:
        monkeypatch.setattr(capacity, name, f)
    return passes


class TestEvaluatedOnce:
    """capacity_optimize evaluates each point once: the ascent carries an
    accepted trial's tables into the next pass and the final residual, and
    projects nothing but its ladders' trials."""

    @staticmethod
    def _oracle_trials(monkeypatch, starts, a, nu, ny, opts):
        """Trials per pass of the one-trial-per-pass search: the _arc calls
        after each _direction call."""
        trials, direction, arc = [], capacity._direction, capacity._arc

        def counted_direction(*args):
            trials.append(0)
            return direction(*args)

        def counted_arc(*args):
            trials[-1] += 1
            return arc(*args)

        with monkeypatch.context() as m:
            m.setattr(capacity, "_direction", counted_direction)
            m.setattr(capacity, "_arc", counted_arc)
            _sequential_ascend(starts, a, nu, ny, opts)
        return trials

    @pytest.mark.parametrize("name, zero", [("nx2_a", False), ("nx4_a", True)])
    def test_dispatch_counts(self, monkeypatch, name, zero):
        build, kw = GOLDEN_CASES[name]
        pyx, pux = build()
        opts = SolverOptions(**kw)
        inputs, events, zeros, logs = [], [], [], []
        real = {f: getattr(capacity, f) for f in
                ("_ascend", "_project_rows", "_mix", "_log_ratios", "_dead_inputs")}

        def ascend(p, a, nu, ny, opts):
            inputs.append((p.copy(), a, nu, ny))
            return real["_ascend"](p, a, nu, ny, opts)

        def project(V):
            events.append(("project", real["_project_rows"](V)))
            return events[-1][1]

        def mix(P, b):
            if b is inputs[0][1]:  # a point evaluation, not a gradient's or _dead_inputs' product
                events.append(("evaluate", P.copy()))
            return real["_mix"](P, b)

        with monkeypatch.context() as m:
            m.setattr(capacity, "_ascend", ascend)
            m.setattr(capacity, "_project_rows", project)
            m.setattr(capacity, "_mix", mix)
            m.setattr(capacity, "_log_ratios", lambda t: logs.append(1) or real["_log_ratios"](t))
            m.setattr(capacity, "_dead_inputs",
                      lambda P, *args: zeros.append(not P.all()) or real["_dead_inputs"](P, *args))
            got = capacity_optimize(pyx, pux, opts)
        assert golden_summary(got) == GOLDEN_RESULTS[name]
        assert any(zeros) == zero and not all(zeros)

        starts = inputs[0][0]
        ladders = [-(-n // capacity._LADDER) for n in self._oracle_trials(
            monkeypatch, starts, *inputs[0][1:], opts)]
        # one projection per ladder: none for a gap test or the final residual
        assert [kind for kind, _ in events].count("project") == sum(ladders)
        # the starts are evaluated once, then each ladder's trials: no
        # accepted point, and no final point, is evaluated again
        evaluated = [X for kind, X in events if kind == "evaluate"]
        assert len(evaluated) == len(logs) == 1 + sum(ladders)
        np.testing.assert_array_equal(evaluated[0], starts)
        last = None
        for kind, X in events[1:]:
            if kind == "project":
                last = X
            else:  # every evaluated row is a trial from the projection just made
                assert (X[:, None, :] == last[None]).all(axis=2).any(axis=1).all()
        assert events[-1][0] == "evaluate"


class TestResidual:
    """The gradient solver's residual is the Frank-Wolfe gap at argmax_px."""

    @staticmethod
    def check_gap_definition(seeds):
        """On dense instances (no input is held at 0), at budgets 1, 3 and
        300, residual is g.max() - p.g with g the gradient at p = argmax_px."""
        for seed in seeds:
            rng = np.random.default_rng(seed)
            nx = (2, 3, 4, 8)[seed % 4]
            pyx, pux = (_random_stochastic(rng, nx, int(rng.integers(2, 6))) for _ in range(2))
            for budget in (1, 3, 300):
                r = capacity_optimize(pyx, pux, SolverOptions(max_iterations=budget))
                g = mutual_information_gradient(r.argmax_px, pyx, pux)
                assert abs(r.residual - (g.max() - r.argmax_px @ g)) <= 1e-12, (seed, budget)

    def test_is_the_frank_wolfe_gap(self):
        self.check_gap_definition(range(24))

    def test_a_tolerance_stop_reports_the_gap_that_stopped_it(self, monkeypatch, tmp_path):
        # A start stopped on the tolerance when, with the tolerance lowered
        # to 1e-300, it searches on (a run at the float floor or on the
        # budget tries nothing more), or when its gap is 0 at the first
        # test.  Exactly those runs end below the budget with their residual
        # below the tolerance: every accepted step raises I(U;Y) and keeps
        # its row running, and a float-floor stop leaves its row where the
        # gap test had just failed.
        starts, trials = [], [0]
        ascend, arc = capacity._ascend, capacity._arc
        monkeypatch.setattr(capacity, "_ascend",
                            lambda p, *args: starts.append(p) or ascend(p, *args))
        monkeypatch.setattr(capacity, "_arc",
                            lambda *args: trials.__setitem__(0, trials[0] + 1) or arc(*args))

        def run(p, a, nu, ny, opts):
            trials[0] = 0
            return ascend(p, a, nu, ny, opts), trials[0]

        stops = []
        for name, pyx, pux, opts in _stop_rule_cases(tmp_path):
            low = replace(opts, convergence_tol=1e-300)
            del starts[:]
            capacity_optimize(pyx, pux, opts)
            a, nu, ny = _kernel(pyx, pux)
            for i, p in enumerate(starts[0]):
                (_, _, steps, gap), tried = run(p[None], a, nu, ny, opts)
                (*_, low_gap), low_tried = run(p[None], a, nu, ny, low)
                on_tol = low_tried > tried or (gap[0] == 0.0 and tried == 0)
                assert on_tol == (steps[0] < opts.max_iterations
                                  and gap[0] < opts.convergence_tol), (name, i)
                if not on_tol:  # the tolerance played no part
                    assert low_tried == tried and low_gap.tobytes() == gap.tobytes(), name
                stops.append((on_tol, gap[0] == 0.0))
        # tolerance stops with and without a gap of 0, and runs stopped otherwise
        assert set(stops) == {(True, True), (True, False), (False, False)}


def _stop_rule_cases(root):
    """(name, pyx, pux, options) for each golden case and two more pairs.
    On start 8 of nx4_zeros, start 2 of golden_pair(556, 4, 4, 3) and start
    7 of nx8_0 in pass 1 of the bench's capacity workload at seed 8, a rule
    that accepted a step leaving I(U;Y) unchanged and stopped its run there
    would end at the float floor with a gap below the tolerance."""
    cases = [(name, *build(), SolverOptions(**kw)) for name, (build, kw) in GOLDEN_CASES.items()]
    load_bench("workloads").make_inputs("capacity", 8, str(root))
    nx8_0 = (TransitionMatrix.from_file(root / "pass1" / f"nx8_0_{m}.txt")
             for m in ("channel", "perturb"))
    return cases + [("pair_556", *golden_pair(556, 4, 4, 3), SolverOptions()),
                    ("capacity_8_nx8_0", *nx8_0, SolverOptions())]


class TestGradient:
    @pytest.mark.parametrize("seed", [3, 14, 15])
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(2, 5))
        pyx = _random_stochastic(rng, nx, int(rng.integers(2, 5)))
        pux = _random_stochastic(rng, nx, int(rng.integers(2, 5)))
        w = rng.random(nx) + 0.1
        p = w / w.sum()
        g = mutual_information_gradient(p, pyx, pux)
        h = 1e-6
        fd = np.zeros(nx)
        for i in range(nx):
            e = np.zeros(nx)
            e[i] = h
            fd[i] = (
                input_mutual_information(p + e, pyx, pux)
                - input_mutual_information(p - e, pyx, pux)
            ) / (2 * h)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-9) < 1e-4

    def test_symmetric_instance_has_symmetric_gradient(self):
        g = mutual_information_gradient(np.array([0.5, 0.5]), bsc(0.1), bsc(0.2))
        assert g[0] == pytest.approx(g[1], abs=1e-12)

    def test_mi_at_uniform_equals_closed_form(self):
        val = input_mutual_information(np.array([0.5, 0.5]), bsc(0.1), bsc(0.1))
        assert val == pytest.approx(CAP_01_01, abs=TOL)

    @pytest.mark.parametrize("fn", [input_mutual_information, mutual_information_gradient])
    @pytest.mark.parametrize("p", [np.ones(3) / 3, np.full((1, 2), 0.5), 0.5])
    def test_bad_shape_is_dimension_mismatch(self, fn, p):
        with pytest.raises(DimensionMismatch,
                           match=r"^input weights must have shape \(2,\), got "):
            fn(p, bsc(0.1), bsc(0.2))


class TestSimplexProject:
    def test_known_points(self):
        np.testing.assert_allclose(simplex_project(np.array([2.0, 0.0])), [1.0, 0.0])
        np.testing.assert_allclose(simplex_project(np.array([0.6, 0.6])), [0.5, 0.5])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_output_on_simplex(self, vals):
        p = simplex_project(np.array(vals))
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fixed_point_on_simplex(self):
        p = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(simplex_project(p), p, atol=1e-12)

    @pytest.mark.parametrize("v", [np.ones((2, 2)), np.ones((1, 3)), [], 1.0])
    def test_bad_shape_is_dimension_mismatch(self, v):
        with pytest.raises(DimensionMismatch,
                           match=r"^vector must have shape \(n >= 1,\), got "):
            simplex_project(v)


class TestGap:
    def test_identity_perturbation_no_loss(self):
        assert capacity_gap(Pmf.uniform(2), bsc(0.1), TransitionMatrix.identity(2)) == 0.0

    def test_frozen_value(self):
        g = capacity_gap(Pmf.uniform(2), bsc(0.1), bsc(0.1))
        assert g == pytest.approx(GAP_01_01, abs=TOL)

    def test_half_perturbation_loses_everything(self):
        g = capacity_gap(Pmf.uniform(2), bsc(0.2), bsc(0.5))
        assert g == pytest.approx(1 - binary_entropy(0.2), abs=TOL)

    def test_permutation_perturbation_within_clamp(self):
        flip = TransitionMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert abs(capacity_gap(Pmf.uniform(2), bsc(0.1), flip)) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(2, 5))
        w = rng.random(nx) + 0.05
        px = Pmf(w / w.sum())
        pyx = _random_stochastic(rng, nx, int(rng.integers(2, 4)))
        pux = _random_stochastic(rng, nx, int(rng.integers(2, 4)))
        assert capacity_gap(px, pyx, pux) >= 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatch):
            capacity_gap(Pmf.uniform(3), bsc(0.1), bsc(0.1))

    def test_matches_binary_symmetric_gap_on_grid(self):
        # the p = 0 and p = 0.5 rows included: H(q) - H(p1) with q the composite crossover
        grid = default_grid(0.05)
        assert grid[0] == 0.0 and grid[-1] == 0.5
        err = np.array([capacity_gap(Pmf.uniform(2), bsc(a), bsc(b)) - bsc_capacity_gap(a, b)
                        for a in grid for b in grid])
        assert np.max(np.abs(err)) < 1e-12


def _erasure(k, e):
    """U = X with probability 1 - e, else the extra symbol k: a (k, k + 1) table."""
    return TransitionMatrix(np.hstack([(1.0 - e) * np.eye(k), np.full((k, 1), e)]))


def _shannon_capacity(w):
    """max_p I(X;Y) in bits of the channel rows w, by Blahut-Arimoto run
    until its upper bound max_x D(w_x || q) is within 1e-13 of its lower
    bound sum_x p_x D(w_x || q)."""
    p = np.full(len(w), 1.0 / len(w))
    for _ in range(10**6):
        q = p @ w
        d = np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0) / q), 0.0).sum(axis=1)
        lower, upper = p @ d, d.max()
        if upper - lower <= 1e-13:
            return lower
        p = p * np.exp2(d)
        p /= p.sum()
    raise AssertionError("Blahut-Arimoto did not converge")


class TestErasureOracle:
    """An erasure perturbation scales I(U;Y) by 1 - e at every p(x), and an
    erasure channel does the same to the codebook's own channel, so
    C = (1 - e) C_Shannon of the other table in both orientations, at a
    non-uniform maximizer; and the gap at the argmax is e I(X;Y)."""

    @staticmethod
    def _instance(seed):
        rng = np.random.default_rng(seed)
        nx = (2, 3, 4, 8)[seed % 4]
        w = rng.dirichlet(np.full(int(rng.integers(2, 6)), 0.5), size=nx)
        return TransitionMatrix(w), rng.uniform(0.05, 0.95)

    @pytest.mark.parametrize("seed", range(24))
    def test_capacity_is_the_erased_shannon_capacity(self, seed):
        w, e = self._instance(seed)
        want = (1.0 - e) * _shannon_capacity(w.matrix)
        erasure = _erasure(w.input_size, e)
        res = capacity_optimize(w, erasure)
        assert res.capacity == pytest.approx(want, abs=1e-9)
        assert capacity_optimize(erasure, w).capacity == pytest.approx(want, abs=1e-9)
        p = res.argmax_px
        i_xy = mutual_information(JointPmf(p[:, None] * w.matrix))
        assert capacity_gap(Pmf(p), w, erasure) == pytest.approx(e * i_xy, abs=1e-12)
        # I(U;Y) is concave in p(x) here, so the residual, a Frank-Wolfe gap,
        # bounds the shortfall at any budget
        for budget in (1, 2, 4, 300):
            for pair in ((w, erasure), (erasure, w)):
                r = capacity_optimize(*pair, SolverOptions(max_iterations=budget))
                assert want - r.capacity <= r.residual + 1e-12, (budget, pair[0] is w)


def _model_instance(seed):
    """Seeded (px, pyx, pux): nx from 2 to 5, nu != ny, about a third of the
    entries zero."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 6))
    ny, nu = (int(v) for v in rng.choice(np.arange(1, 6), size=2, replace=False))
    w = rng.random(nx) + 0.05
    w[rng.random(nx) < 0.3] = 0.0
    w[0] += 0.1
    pyx, pux = golden_pair(seed, nx, ny, nu, zeros=True)
    return w / w.sum(), pyx, pux


class TestOneModel:
    """The (U, Y) joint, the solver's objective and the gap share one kernel."""

    @pytest.mark.parametrize("seed", range(40))
    def test_gap_is_difference_of_informations(self, seed):
        p, pyx, pux = _model_instance(seed)
        i_xy = mutual_information(JointPmf(p[:, None] * pyx.matrix))
        i_uy = mutual_information(build_joint_uy(Pmf(p), pyx, pux))
        assert capacity_gap(Pmf(p), pyx, pux) == pytest.approx(i_xy - i_uy, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_joint_and_objective_agree(self, seed):
        p, pyx, pux = _model_instance(seed)
        want = input_mutual_information(p, pyx, pux)
        assert mutual_information(build_joint_uy(Pmf(p), pyx, pux)) == pytest.approx(
            want, abs=1e-14)


class TestSweepSurface:
    def test_row_major_order_and_values(self):
        rows = sweep_capacity_surface([0.0, 0.1], [0.0, 0.2])
        assert [(r[0], r[1]) for r in rows] == [(0.0, 0.0), (0.0, 0.2), (0.1, 0.0), (0.1, 0.2)]
        for p1, p2, cap, gap in rows:
            q = p1 + p2 - 2 * p1 * p2
            assert cap == pytest.approx(1 - binary_entropy(q), abs=TOL)
            assert gap == pytest.approx(binary_entropy(q) - binary_entropy(p1), abs=TOL)

    def test_no_perturbation_column_has_zero_gap(self):
        rows = sweep_capacity_surface([0.0, 0.1, 0.3], [0.0])
        assert all(r[3] == 0.0 for r in rows)

    def test_half_crossover_row_has_zero_capacity(self):
        rows = sweep_capacity_surface([0.5], [0.0, 0.1, 0.4])
        assert all(abs(r[2]) < TOL for r in rows)

    def test_symmetry_in_arguments(self):
        a = {(r[0], r[1]): r[2] for r in sweep_capacity_surface([0.1, 0.3], [0.1, 0.3])}
        for (p1, p2), c in a.items():
            assert c == pytest.approx(a[(p2, p1)], abs=1e-12)

    def test_quarter_point(self):
        (row,) = sweep_capacity_surface([0.25], [0.25])
        assert row[2] == pytest.approx(CAP_025_025, abs=TOL)

    def test_rejects_values_beyond_half(self):
        with pytest.raises(DomainError):
            sweep_capacity_surface([0.6], [0.1])

    @pytest.mark.parametrize("grids", [([np.nan], [0.1]), ([0.1], [np.inf]),
                                       ([0.1, 0.2], [0.3, -0.0, -1e-300])])
    def test_rejects_nan_inf_and_negative(self, grids):
        with pytest.raises(DomainError):
            sweep_capacity_surface(*grids)

    def test_matches_per_point_formulas(self):
        grid = np.linspace(0.0, 0.5, 26).tolist()
        want = [(p1, p2, 1.0 - binary_entropy(composite_crossover(p1, p2)),
                 bsc_capacity_gap(p1, p2)) for p1 in grid for p2 in grid]
        got = sweep_capacity_surface(grid, grid)
        assert [tuple(v.hex() for v in row) for row in got] == [
            tuple(v.hex() for v in row) for row in want]

    def test_rows_are_plain_floats(self):
        rows = sweep_capacity_surface(np.array([0.0, 0.25]), (p for p in (0.1, 0.5)))
        assert len(rows) == 4
        assert all(type(row) is tuple and len(row) == 4 for row in rows)
        assert all(type(v) is float for row in rows for v in row)

    def test_monotone_in_both_noises(self):
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        caps = {(r[0], r[1]): r[2] for r in sweep_capacity_surface(grid, grid)}
        for i, p1 in enumerate(grid[:-1]):
            for p2 in grid:
                assert caps[(grid[i + 1], p2)] <= caps[(p1, p2)] + 1e-12
                assert caps[(p2, grid[i + 1])] <= caps[(p2, p1)] + 1e-12


class TestCapacityResult:
    def test_argmax_read_only(self):
        r = capacity_closed_form_bsc(0.1, 0.1)
        with pytest.raises(ValueError):
            r.argmax_px[0] = 0.9
