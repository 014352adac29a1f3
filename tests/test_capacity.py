"""Capacity solvers: closed form, lattice search, gradient ascent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    binary_entropy,
    bsc,
    build_joint_uy,
    mutual_information,
)

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
        assert r.solver == "closed_form"

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
        assert r.solver == "grid"
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


class TestOptimize:
    def test_bsc_matches_closed_form(self):
        r = capacity_optimize(bsc(0.1), bsc(0.2))
        assert abs(r.capacity - CAP_01_02) < 1e-6
        assert r.solver == "gradient"

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

    def test_input_size_mismatch(self):
        # the solvers take no px, so the message names only the two matrices
        with pytest.raises(DimensionMismatch, match="^input alphabets disagree: "
                           "channel has 2, perturbation has 3$"):
            capacity_optimize(bsc(0.1), TransitionMatrix.identity(3))


def _golden_pair(seed, nx, ny, nu, zeros=False):
    """Seeded (channel, perturbation) pair; `zeros` blanks about a third of
    the entries so the solver meets empty (u, y) cells."""
    rng = np.random.default_rng(seed)
    mats = []
    for cols in (ny, nu):
        m = rng.random((nx, cols)) + 0.02
        if zeros:
            m[rng.random((nx, cols)) < 0.35] = 0.0
            m[:, 0] += 0.05
        mats.append(TransitionMatrix(m / m.sum(axis=1, keepdims=True)))
    return mats


GOLDEN_CASES = {
    "bsc_0.1_0.2": (lambda: (bsc(0.1), bsc(0.2)), {}),
    "bsc_0.3_0.5": (lambda: (bsc(0.3), bsc(0.5)), {}),
    "bsc_0_0": (lambda: (bsc(0.0), bsc(0.0)), {}),
    "bsc_0.11_identity": (lambda: (bsc(0.11), TransitionMatrix.identity(2)), {}),
    "nx2_a": (lambda: _golden_pair(21, 2, 2, 3), {}),
    "nx2_zeros": (lambda: _golden_pair(22, 2, 3, 3, zeros=True), {}),
    "nx3_a": (lambda: _golden_pair(31, 3, 2, 3), {}),
    "nx3_zeros": (lambda: _golden_pair(32, 3, 3, 4, zeros=True), {}),
    "nx4_a": (lambda: _golden_pair(41, 4, 3, 2), {}),
    "nx4_zeros": (lambda: _golden_pair(42, 4, 4, 4, zeros=True), {}),
    "nx8_a": (lambda: _golden_pair(81, 8, 4, 3), {}),
    "nx8_zeros": (lambda: _golden_pair(82, 8, 5, 5, zeros=True), {}),
    "nx3_two_steps": (lambda: _golden_pair(77, 3, 3, 3),
                      {"max_iterations": 2, "restarts": 1}),
    "nx4_loose": (lambda: _golden_pair(43, 4, 3, 3), {"restarts": 3, "convergence_tol": 1e-6}),
}


def _golden_summary(r):
    return (r.capacity.hex(), [float(v).hex() for v in r.argmax_px],
            r.iterations, r.residual.hex())


# Solver results captured before the restarts were batched into one
# (starts, nx) ascent; batching must keep every bit.  Each entry is
# (capacity, argmax_px, iterations, residual), floats as float.hex.
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
        "0x1.1e0d61495aaa2p-7",
        ["0x1.9f9269b00f883p-2", "0x1.3036cb27f83bep-1"],
        300, "0x1.1eb9e96f4395dp-26",
    ),
    "nx2_zeros": (
        "0x1.0c7e1aa865ab8p-10",
        ["0x1.da9bcadfb5da4p-2", "0x1.12b21a902512ep-1"],
        300, "0x1.138f8d942fb70p-14",
    ),
    "nx3_a": (
        "0x1.0777ff19cc8efp-6",
        ["0x0.0p+0", "0x1.dea0221c2d574p-2", "0x1.10afeef1e9545p-1"],
        300, "0x1.1f1e38c4c8865p-26",
    ),
    "nx3_zeros": (
        "0x1.5fcc21f71a01bp-4",
        ["0x1.1fdd22b2b9d56p-1", "0x0.0p+0", "0x1.c045ba9a8c554p-2"],
        300, "0x1.cdae3476334bfp-5",
    ),
    "nx4_a": (
        "0x1.04bc46d12b9dcp-6",
        [
            "0x1.1073fe5355f00p-1", "0x0.0p+0", "0x0.0p+0",
            "0x1.df180359541ffp-2",
        ],
        300, "0x1.62cd7fb213770p-27",
    ),
    "nx4_zeros": (
        "0x1.8518e9666f024p-3",
        [
            "0x1.417a28970c44bp-1", "0x1.7d0baed1e776ap-2", "0x0.0p+0",
            "0x0.0p+0",
        ],
        300, "0x1.4c2b25d9d3f48p-29",
    ),
    "nx8_a": (
        "0x1.2f7261a4b9288p-4",
        [
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.a9dc979e95896p-2",
            "0x1.2b11b430b53b4p-1", "0x0.0p+0",
        ],
        300, "0x1.0a2fcf062370ap-28",
    ),
    "nx8_zeros": (
        "0x1.558bfae3c3be0p-2",
        [
            "0x0.0p+0", "0x0.0p+0", "0x1.e3e1b1e1bc4b0p-2",
            "0x0.0p+0", "0x0.0p+0", "0x1.00fe05209f364p-2",
            "0x0.0p+0", "0x1.1b2048fda47e4p-2",
        ],
        32, "0x1.0b941faadaf39p-30",
    ),
    "nx3_two_steps": (
        "0x1.a47fc4a78ad12p-7",
        ["0x1.236c108005474p-2", "0x1.6a0a68285ec70p-2", "0x1.728987579bf14p-2"],
        2, "0x1.0c79b28dfd98cp-5",
    ),
    "nx4_loose": (
        "0x1.5c05032c5cbb8p-6",
        [
            "0x0.0p+0", "0x1.308637a624640p-1", "0x0.0p+0",
            "0x1.9ef390b3b7384p-2",
        ],
        79, "0x1.fe927af80b232p-21",
    ),
}


class TestOptimizeGolden:
    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    def test_bit_identical(self, name):
        build, kw = GOLDEN_CASES[name]
        pyx, pux = build()
        r = capacity_optimize(pyx, pux, SolverOptions(**kw))
        assert _golden_summary(r) == GOLDEN_RESULTS[name]


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


def _model_instance(seed):
    """Seeded (px, pyx, pux): nx from 2 to 5, nu != ny, about a third of the
    entries zero."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 6))
    ny, nu = (int(v) for v in rng.choice(np.arange(1, 6), size=2, replace=False))
    w = rng.random(nx) + 0.05
    w[rng.random(nx) < 0.3] = 0.0
    w[0] += 0.1
    pyx, pux = _golden_pair(seed, nx, ny, nu, zeros=True)
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
