"""Probability types, entropy functionals, and matrix file parsing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymcap.info import (
    DimensionMismatch,
    DomainError,
    JointPmf,
    MatrixFileError,
    Pmf,
    TransitionMatrix,
    _clean_mass,
    _conditional_entropy,
    _entropy_bits,
    _marginal_sum,
    _markov_deviation,
    _mix,
    _mutual_information,
    _row_dot,
    binary_entropy,
    bsc,
    build_joint_uy,
    build_joint_xuyv,
    check_markov,
    conditional_entropy,
    entropy,
    load_matrix,
    mutual_information,
)

import single_table

# Frozen reference values (high-precision entropy evaluations rounded to
# float64).  Computed once with an arbitrary-precision library and pinned.
H_QUARTER = 0.8112781244591328          # H(0.25)
H_TERNARY = 1.1567796494470395          # H(0.7, 0.2, 0.1)
MI_BSC_01 = 0.5310044064107188          # 1 - H(0.1)

TOL = 1e-12


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=TOL)

    def test_frozen_value(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=TOL)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0 + 1e-15

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-9, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)

    # float.hex of the scalar H(p), pinned when it was a scalar-only function
    PINNED = {
        0.0: "0x0.0p+0",
        5e-324: "0x0.0000000000432p-1022",
        1e-300: "0x1.4db3639c84769p-987",
        0.05: "0x1.25453e71f2a22p-2",
        0.1: "0x1.e0406181bc7cep-2",
        1 / 3: "0x1.d62adf1ea257cp-1",
        0.25: "0x1.9f5fd8a9063e3p-1",
        0.5: "0x1.0000000000000p+0",
        1 - 2.0 ** -53: "0x1.b38aa3b295c18p-48",
        1.0: "0x0.0p+0",
    }

    @pytest.mark.parametrize("p", list(PINNED))
    def test_pinned_bits(self, p):
        h = binary_entropy(p)
        assert type(h) is float and h.hex() == self.PINNED[p]

    def test_array_matches_scalar_bits(self):
        rng = np.random.default_rng(19)
        p = np.concatenate([
            list(self.PINNED), rng.random(20_000), 0.5 * rng.random(2_000),
            np.ldexp(rng.random(2_000), -rng.integers(30, 1074, 2_000)),  # subnormals too
            1.0 - np.ldexp(rng.random(2_000), -rng.integers(1, 54, 2_000)),
        ]).reshape(-1, 2)
        h = binary_entropy(p)
        assert h.shape == p.shape and h.dtype == np.float64
        assert h.tobytes() == np.array([binary_entropy(float(v)) for v in p.flat]).tobytes()

    @pytest.mark.parametrize("bad", [[0.2, np.nan], [np.inf, 0.2], [[0.1], [-1e-300]]])
    def test_array_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(np.array(bad))


class TestPmf:
    def test_uniform(self):
        p = Pmf.uniform(4)
        assert p.size == 4
        np.testing.assert_allclose(p.probs, 0.25)

    def test_renormalizes_within_tolerance(self):
        p = Pmf([0.5, 0.5 + 5e-7])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_mass(self):
        with pytest.raises(DomainError):
            Pmf([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Pmf([1.1, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Pmf([np.nan, 1.0])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            Pmf([[0.5, 0.5]])

    def test_rejects_oversized_alphabet(self):
        with pytest.raises(DimensionMismatch):
            Pmf(np.full(65, 1.0 / 65))

    def test_probs_read_only(self):
        p = Pmf.uniform(2)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8))
    def test_normalized_weights_accepted(self, weights):
        w = np.array(weights)
        p = Pmf(w / w.sum())
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestTransitionMatrix:
    def test_identity(self):
        t = TransitionMatrix.identity(3)
        assert t.input_size == 3 and t.output_size == 3
        np.testing.assert_array_equal(t.matrix, np.eye(3))

    def test_bad_row_named(self):
        with pytest.raises(DomainError, match=r"^row 2: entries sum to 1.4, expected 1 within 1e-06$"):
            TransitionMatrix([[0.5, 0.5], [0.7, 0.7]])

    @pytest.mark.parametrize("row3", [[np.nan, 0.5], [-0.5, 1.5], [0.9, 0.9]])
    def test_first_bad_row_named(self, row3):
        # rows are validated in one pass, but the message names the first
        # bad row, and row 3's NaN or negative entry does not outrank it
        with pytest.raises(DomainError, match=r"^row 2: entries sum to 1.4, expected 1 within 1e-06$"):
            TransitionMatrix([[0.5, 0.5], [0.7, 0.7], row3])

    def test_bad_row_checks_in_order(self):
        # within one row: non-finite, then negative, then the sum
        with pytest.raises(DomainError, match=r"^row 2: non-finite entry$"):
            TransitionMatrix([[0.5, 0.5], [-1.0, np.inf]])
        with pytest.raises(DomainError, match=r"^row 2: negative entry$"):
            TransitionMatrix([[0.5, 0.5], [-1.0, 3.0]])

    def test_rectangular_allowed(self):
        t = TransitionMatrix([[0.2, 0.3, 0.5]])
        assert t.input_size == 1 and t.output_size == 3

    def test_bsc(self):
        t = bsc(0.1)
        np.testing.assert_allclose(t.matrix, [[0.9, 0.1], [0.1, 0.9]])
        for bad in (1.5, -0.0001, float("nan")):
            with pytest.raises(DomainError) as info:
                bsc(bad)
            assert str(info.value) == f"crossover={bad!r} outside [0, 1]"


class TestJointPmf:
    def test_axis_count_bounds(self):
        with pytest.raises(DimensionMismatch):
            JointPmf(np.full(4, 0.25))
        with pytest.raises(DimensionMismatch):
            JointPmf(np.full((2, 2, 2, 2, 2), 1 / 32))

    def test_marginal_single_axis_is_pmf(self):
        j = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        m = j.marginal((0,))
        assert isinstance(m, Pmf)
        np.testing.assert_allclose(m.probs, [0.3, 0.7])

    def test_marginal_respects_axis_order(self):
        j = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        swapped = j.marginal((1, 0))
        np.testing.assert_allclose(swapped.table, j.table.T)

    def test_marginal_rejects_repeats(self):
        j = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(DimensionMismatch):
            j.marginal((0, 0))

    def test_marginal_rejects_out_of_range(self):
        j = JointPmf([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(IndexError):
            j.marginal((2,))


# A wrong number of axes, an empty table and an oversized alphabet: one
# message per type, naming the type and the shape it got.
PMF_AXES = "pmf: expected 1 axis"
MATRIX_AXES = "transition matrix: expected 2 axes"
JOINT_AXES = "joint table: expected 2 to 4 axes"


@pytest.mark.parametrize("cls, table, head", [
    (Pmf, [[0.5, 0.5]], PMF_AXES),
    (Pmf, np.empty(0), PMF_AXES),
    (Pmf, np.full(65, 1 / 65), PMF_AXES),
    (Pmf, 1.0, PMF_AXES),
    (TransitionMatrix, [0.5, 0.5], MATRIX_AXES),
    (TransitionMatrix, np.empty((0, 2)), MATRIX_AXES),
    (TransitionMatrix, np.full((2, 65), 1 / 65), MATRIX_AXES),
    (TransitionMatrix, np.full((65, 2), 0.5), MATRIX_AXES),
    (JointPmf, np.full(4, 0.25), JOINT_AXES),
    (JointPmf, np.full((2,) * 5, 1 / 32), JOINT_AXES),
    (JointPmf, np.empty((2, 0)), JOINT_AXES),
    (JointPmf, np.full((65, 1), 1 / 65), JOINT_AXES),
])
def test_table_shape_message(cls, table, head):
    shape = np.shape(table)
    with pytest.raises(DimensionMismatch) as info:
        cls(table)
    assert str(info.value) == f"{head} of 1 to 64 symbols, got shape {shape}"


class TestEntropy:
    def test_uniform_in_bits(self):
        assert entropy(Pmf.uniform(4)) == pytest.approx(2.0, abs=TOL)

    def test_point_mass_zero(self):
        assert entropy(Pmf([1.0, 0.0, 0.0])) == 0.0

    def test_frozen_ternary(self):
        assert entropy(Pmf([0.7, 0.2, 0.1])) == pytest.approx(H_TERNARY, abs=TOL)

    def test_deterministic_tables_give_positive_zero(self):
        # +0.0, as binary_entropy(0.0) gives, not -0.0
        j = JointPmf([[0.0, 1.0], [0.0, 0.0]])
        got = [entropy(Pmf([1.0])), entropy(Pmf([0.0, 1.0])), binary_entropy(0.0),
               conditional_entropy(j, (0, 1), ()), conditional_entropy(j, (0,), (1,))]
        assert [h.hex() for h in got] == ["0x0.0p+0"] * 5


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=TOL)

    def test_identity_coupling_one_bit(self):
        assert mutual_information(JointPmf(np.eye(2) / 2)) == pytest.approx(1.0, abs=TOL)

    def test_bsc_uniform_input(self):
        j = build_joint_uy(Pmf.uniform(2), bsc(0.1), TransitionMatrix.identity(2))
        assert mutual_information(j) == pytest.approx(MI_BSC_01, abs=TOL)

    def test_requires_two_axes(self):
        with pytest.raises(DimensionMismatch):
            mutual_information(JointPmf(np.full((2, 2, 2), 0.125)))

    # Bits pinned before I(U;Y) and the capacity solver shared one log-ratio
    # core; several tables have zero cells, one a zero row and one a zero column.
    GOLDEN = {
        "bsc_uniform": ([[0.45, 0.05], [0.05, 0.45]], "0x1.0fdfcf3f21c18p-1"),
        "independent": ([[0.12, 0.18], [0.28, 0.42]], "0x1.3333333333334p-55"),
        "zero_cell": ([[0.5, 0.0], [0.25, 0.25]], "0x1.3ebfb1520c7c6p-2"),
        "zero_row": ([[0.3, 0.2, 0.1], [0.0, 0.0, 0.0], [0.1, 0.1, 0.2]],
                     "0x1.8702ffb04f9d7p-4"),
        "identity3": ([[1 / 3, 0, 0], [0, 1 / 3, 0], [0, 0, 1 / 3]], "0x1.95c01a39fbd68p+0"),
        "skewed_2x4": ([[0.07, 0.0, 0.31, 0.02], [0.11, 0.29, 0.0, 0.2]],
                       "0x1.66c5b3252d928p-1"),
        "point_mass": ([[1.0, 0.0], [0.0, 0.0]], "0x0.0p+0"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_bit_identical(self, name):
        table, bits = self.GOLDEN[name]
        assert mutual_information(JointPmf(np.array(table))).hex() == bits


class TestConditionalEntropy:
    def test_chain_rule(self):
        rng = np.random.default_rng(5)
        t = rng.random((3, 4))
        j = JointPmf(t / t.sum())
        h_ab = conditional_entropy(j, (0, 1), ())
        h_b = conditional_entropy(j, (1,), ())
        assert conditional_entropy(j, (0,), (1,)) == pytest.approx(h_ab - h_b, abs=TOL)

    def test_bsc_channel_entropy(self):
        # H(Y|X) of a symmetric binary channel equals the crossover entropy.
        j = build_joint_uy(Pmf.uniform(2), bsc(0.3), TransitionMatrix.identity(2))
        # axes of build_joint_uy output are (u, y) with u = x here
        assert conditional_entropy(j, (1,), (0,)) == pytest.approx(
            binary_entropy(0.3), abs=TOL
        )

    def test_empty_given_is_joint_entropy(self):
        j = JointPmf([[0.25, 0.25], [0.25, 0.25]])
        assert conditional_entropy(j, (0, 1), ()) == pytest.approx(2.0, abs=TOL)

    def test_zero_probability_events_ignored(self):
        j = JointPmf([[0.5, 0.0], [0.5, 0.0]])  # second column never occurs
        h = conditional_entropy(j, (0,), (1,))
        assert h == pytest.approx(1.0, abs=TOL)

    def test_overlapping_axes_rejected(self):
        j = JointPmf([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(DimensionMismatch):
            conditional_entropy(j, (0,), (0,))


class TestCheckMarkov:
    def test_product_chain_is_exact(self):
        # p(a, b, c) = p(b) p(a|b) p(c|b) satisfies the chain by construction
        rng = np.random.default_rng(11)
        pb = rng.random(3)
        pb /= pb.sum()
        pab = rng.random((3, 4))
        pab /= pab.sum(axis=1, keepdims=True)
        pcb = rng.random((3, 2))
        pcb /= pcb.sum(axis=1, keepdims=True)
        t = np.einsum("b,ba,bc->abc", pb, pab, pcb)
        assert check_markov(JointPmf(t)) < 1e-14

    def test_coupled_triple_violates(self):
        # a = c exactly, both independent of b: p(a,c|b) never factorizes
        t = np.zeros((2, 2, 2))
        t[0, :, 0] = 0.25
        t[1, :, 1] = 0.25
        assert check_markov(JointPmf(t)) > 0.2

    def test_zero_probability_condition_skipped(self):
        t = np.zeros((2, 2, 2))
        t[:, 0, :] = 0.25  # b = 1 never occurs
        dev = check_markov(JointPmf(t))
        assert np.isfinite(dev) and dev < 1e-14

    def test_needs_three_axes(self):
        with pytest.raises(DimensionMismatch):
            check_markov(JointPmf([[0.5, 0.5], [0.0, 0.0]]))


@st.composite
def _stacks(draw):
    """Tables of one random 2- to 4-axis shape, each scaled to total 1 but
    not yet renormalized, with zero cells planted in one of two patterns per
    table (so rows of a stack differ in where their zeros lie), and a random
    axis order with a split point into target and condition."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = rng.random((2, *shape)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        t = rng.random(shape) * 10.0 ** rng.uniform(-3.0, 0.0, shape)
        t[patterns[rng.integers(2)]] = 0.0
        t.flat[rng.integers(t.size)] = 0.5 + rng.random()  # at least one positive cell
        raw.append(t / t.sum())
    order = tuple(draw(st.permutations(range(len(shape)))))
    return raw, order, draw(st.integers(1, len(shape)))


def _same(got, want):
    assert [float(g).hex() for g in got] == [float(w).hex() for w in want]


class TestStackedKernels:
    """Every table of a stack gets the bits of the single-table reference,
    and so does each public function, which runs the kernels on a one-table
    stack."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_rows_match_single_tables(self, case):
        raw, order, split = case
        tables = [single_table.clean_mass(t.copy()) for t in raw]
        stack = _clean_mass(np.stack(raw), "joint table")
        assert stack.tobytes() == np.stack(tables).tobytes()
        target, cond = order[:split], order[split:]  # cond may be empty
        _same(_entropy_bits(stack), [single_table.entropy(t) for t in tables])
        _same(_conditional_entropy(stack, target, cond),
              [single_table.conditional_entropy(t, target, cond) for t in tables])

        def marginal(axes):
            got = _clean_mass(_marginal_sum(stack, axes), "joint table")
            want = [single_table.marginal(t, axes) for t in tables]
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
            return got, want

        one, one_want = marginal(order[:1])
        _same(_entropy_bits(one), [single_table.entropy(m) for m in one_want])
        pair, pair_want = marginal(order[-2:])
        _same(_mutual_information(pair), [_mutual_information(m) for m in pair_want])
        if len(order) == 2:
            _same(_mutual_information(stack), [_mutual_information(t) for t in tables])
        if len(order) >= 3:
            triple, triple_want = marginal(order[:3])
            _same(_markov_deviation(triple), [_markov_deviation(m) for m in triple_want])
        if len(order) == 3:
            _same(_markov_deviation(stack), [_markov_deviation(t) for t in tables])

    @settings(max_examples=100, deadline=None)
    @given(_stacks())
    def test_public_functions_match_single_tables(self, case):
        raw, order, split = case
        target, cond = order[:split], order[split:]
        for t in raw:
            j, want = JointPmf(t), single_table.clean_mass(t.copy())
            assert j.table.tobytes() == want.tobytes()
            _same([conditional_entropy(j, target, cond), conditional_entropy(j, order, ())],
                  [single_table.conditional_entropy(want, target, cond),
                   single_table.entropy(want)])
            one = single_table.marginal(want, order[:1])
            assert j.marginal(order[:1]).probs.tobytes() == one.tobytes()
            _same([entropy(j.marginal(order[:1]))], [single_table.entropy(one)])
            pair = j.marginal(order[-2:]).table
            assert pair.tobytes() == single_table.marginal(want, order[-2:]).tobytes()

    def test_rows_of_a_transition_matrix_are_renormalized_alone(self):
        rows = np.random.default_rng(5).random((7, 5)) * (1.0 + 1e-7)
        rows[2, 1:] = 0.0
        rows /= rows.sum(axis=1, keepdims=True) * (1.0 - 3e-7)
        got = TransitionMatrix(rows).matrix
        assert got.tobytes() == np.stack([single_table.clean_mass(r.copy()) for r in rows]).tobytes()


class TestProductRule:
    """Each row of _mix and _row_dot has the bits of its one-row call and of
    any other batch that holds it: _ascend's promise that each row takes
    the path it would take alone rests on this."""

    @staticmethod
    def _table(rng, shape, signed=False):
        """Entries of mixed magnitude, about a fifth of them 0, negative too
        if signed (log-ratio and sign tables)."""
        t = rng.random(shape) * 10.0 ** rng.uniform(-3.0, 0.0, shape)
        t[rng.random(shape) < 0.2] = 0.0
        return t * rng.choice((-1.0, 1.0), shape) if signed else t

    @staticmethod
    def _same_rows(rng, n, rows_of):
        """rows_of(s), the product over rows s of n-row operands, over all n
        rows against a split of them and against single rows, the last too."""
        got, k = rows_of(slice(None)), int(rng.integers(n + 1))
        assert got.tobytes() == np.concatenate([rows_of(slice(k)), rows_of(slice(k, n))]).tobytes()
        for i in [*rng.integers(n, size=3), n - 1]:
            assert got[i].tobytes() == rows_of(slice(i, i + 1))[0].tobytes(), i

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_one_row_calls(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            n, nx, cells = (int(v) for v in rng.integers(1, (1101, 9, 37)))
            a = self._table(rng, (nx, cells))  # a kernel: rows x, flattened (u, y) cells
            P, logs = self._table(rng, (n, nx)), self._table(rng, (n, cells), signed=True)
            X, Y = self._table(rng, (n, nx), True), self._table(rng, (n, nx), True)
            self._same_rows(rng, n, lambda s: _mix(P[s], a))
            self._same_rows(rng, n, lambda s: _mix(logs[s], a.T))
            self._same_rows(rng, n, lambda s: _row_dot(X[s], Y[s]))


class TestBuildJoints:
    def test_joint_uy_matches_direct_sum(self):
        px = Pmf([0.3, 0.7])
        pyx = bsc(0.1)
        pux = bsc(0.2)
        j = build_joint_uy(px, pyx, pux)
        expected = np.zeros((2, 2))
        for x in range(2):
            for y in range(2):
                for u in range(2):
                    expected[u, y] += px.probs[x] * pyx.matrix[x, y] * pux.matrix[x, u]
        np.testing.assert_allclose(j.table, expected, atol=1e-15)

    def test_joint_uy_alphabet_check(self):
        with pytest.raises(DimensionMismatch, match="px has 3, channel has 2, perturbation has 2"):
            build_joint_uy(Pmf.uniform(3), bsc(0.1), bsc(0.2))

    @staticmethod
    def _einsum_joint(px, pyx, pux):
        """Reference: the sum over x as one einsum, through JointPmf as well."""
        return JointPmf(np.einsum("x,xy,xu->uy", px.probs, pyx.matrix, pux.matrix)).table

    def test_joint_uy_bsc_grid_bit_identical(self):
        px = Pmf.uniform(2)
        for p1 in np.arange(51) / 100:
            for p2 in np.arange(51) / 100:
                got = build_joint_uy(px, bsc(p1), bsc(p2)).table
                assert got.tobytes() == self._einsum_joint(px, bsc(p1), bsc(p2)).tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_joint_uy_general_within_four_eps(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny, nu = (int(v) for v in rng.integers(2, 6, size=3))
        tables = []
        for rows, cols in ((1, nx), (nx, ny), (nx, nu)):
            m = rng.random((rows, cols)) + 0.02
            m[rng.random((rows, cols)) < 0.3] = 0.0
            m[:, 0] += 0.05
            tables.append(m / m.sum(axis=1, keepdims=True))
        px, pyx, pux = Pmf(tables[0][0]), TransitionMatrix(tables[1]), TransitionMatrix(tables[2])
        np.testing.assert_allclose(build_joint_uy(px, pyx, pux).table,
                                   self._einsum_joint(px, pyx, pux),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_xuyv_marginals(self):
        j = build_joint_xuyv(Pmf.uniform(2), 0.1, 0.2)
        q = 0.1 + 0.2 - 2 * 0.1 * 0.2
        np.testing.assert_allclose(j.marginal((0,)).probs, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(j.marginal((1,)).probs, [0.5, 0.5], atol=1e-15)
        # V disagrees with X exactly when the two flips do not cancel
        xv = j.marginal((0, 3)).table
        assert xv[0, 1] + xv[1, 0] == pytest.approx(q, abs=1e-15)

    def test_xuyv_against_enumeration(self):
        p1, p2 = 0.15, 0.35
        j = build_joint_xuyv(Pmf([0.4, 0.6]), p1, p2)
        expected = np.zeros((2, 2, 2, 2))
        for x, wx in ((0, 0.4), (1, 0.6)):
            for z1 in (0, 1):
                for z2 in (0, 1):
                    w = wx * (p1 if z1 else 1 - p1) * (p2 if z2 else 1 - p2)
                    expected[x, x ^ z2, x ^ z1, x ^ z1 ^ z2] += w
        np.testing.assert_allclose(j.table, expected, atol=1e-15)

    def test_xuyv_requires_binary(self):
        with pytest.raises(DimensionMismatch):
            build_joint_xuyv(Pmf.uniform(3), 0.1, 0.1)


class TestLoadMatrix:
    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# header\n\n0.9 0.1\n# middle\n0.2 0.8\n")
        np.testing.assert_allclose(load_matrix(f), [[0.9, 0.1], [0.2, 0.8]])

    def test_ragged_names_line(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0.9 0.1\n0.2 0.3 0.5\n")
        with pytest.raises(MatrixFileError, match="line 2"):
            load_matrix(f)

    def test_unparseable_names_line(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0.9 0.1\n0.2 oops\n")
        with pytest.raises(MatrixFileError, match="line 2"):
            load_matrix(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("# nothing\n")
        with pytest.raises(MatrixFileError):
            load_matrix(f)

    def test_transition_from_file_names_row(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("0.9 0.1\n0.9 0.6\n")
        with pytest.raises(MatrixFileError, match="row 2"):
            TransitionMatrix.from_file(f)
