"""Codebook generation, transmission, decoding, and the experiment loop."""

import itertools
import math

import numpy as np
import pytest

from asymcap import codec
from asymcap.codec import (
    CODEBOOK_CELL_CAP,
    CodebookLimitError,
    CodebookPair,
    SimConfig,
    TrialReport,
    collision_experiment,
    generate_codebooks,
    induced_channel,
    map_decode,
    run_experiment,
    transmit,
    typicality_decode,
)
from asymcap.info import (
    DimensionMismatch,
    DomainError,
    JointPmf,
    Pmf,
    TransitionMatrix,
    bsc,
    build_joint_uy,
    composite_crossover,
)
from asymcap.rng import (
    TAG_CHANNEL,
    TAG_CODEBOOK,
    TAG_MESSAGE,
    TAG_PERTURB,
    TAG_SWEEP,
    derive_seed,
    stream,
)

UNIF2 = Pmf.uniform(2)


def _scalar_pmf_draw(u, probs):
    """Inverse-CDF counting rule, one uniform at a time."""
    cdf = 0.0
    count = 0
    for p in probs:
        cdf += p
        if cdf <= u:
            count += 1
    return min(count, len(probs) - 1)


def _scalar_row_draw(u, row):
    return _scalar_pmf_draw(u, row)


class TestGenerateCodebooks:
    def test_deterministic_in_seed(self):
        a = generate_codebooks(8, 16, UNIF2, bsc(0.2), 7)
        b = generate_codebooks(8, 16, UNIF2, bsc(0.2), 7)
        np.testing.assert_array_equal(a.cx, b.cx)
        np.testing.assert_array_equal(a.cu, b.cu)
        c = generate_codebooks(8, 16, UNIF2, bsc(0.2), 8)
        assert not np.array_equal(a.cx, c.cx)

    def test_identity_perturbation_copies_encoder_rows(self):
        pair = generate_codebooks(6, 40, UNIF2, TransitionMatrix.identity(2), 3)
        np.testing.assert_array_equal(pair.cx, pair.cu)

    def test_point_mass_source(self):
        pair = generate_codebooks(4, 32, Pmf([1.0, 0.0]), TransitionMatrix.identity(2), 1)
        assert not pair.cx.any()
        assert not pair.cu.any()

    def test_disagreement_rate_tracks_perturbation(self):
        pair = generate_codebooks(64, 32, UNIF2, bsc(0.2), 0)
        rate = (pair.cx != pair.cu).mean()
        assert abs(rate - 0.2) < 3 * math.sqrt(0.2 * 0.8 / (64 * 32))

    def test_matches_scalar_sampling_oracle(self):
        px = Pmf([0.3, 0.5, 0.2])
        pux = TransitionMatrix([[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.05, 0.05, 0.9]])
        pair = generate_codebooks(5, 11, px, pux, 99)
        ux = stream(derive_seed(99, 0, TAG_CODEBOOK)).random((5, 11))
        uu = stream(derive_seed(99, 0, TAG_PERTURB)).random((5, 11))
        for i in range(5):
            for j in range(11):
                x = _scalar_pmf_draw(ux[i, j], px.probs)
                assert pair.cx[i, j] == x
                assert pair.cu[i, j] == _scalar_row_draw(uu[i, j], pux.matrix[x])

    def test_memory_cap_refused_before_allocation(self):
        with pytest.raises(CodebookLimitError):
            generate_codebooks(1 << 20, 1 << 7, UNIF2, bsc(0.1), 0)

    def test_shape_and_immutability(self):
        pair = generate_codebooks(3, 5, UNIF2, bsc(0.1), 0)
        assert pair.M == 3 and pair.n == 5
        with pytest.raises(ValueError):
            pair.cx[0, 0] = 1
        with pytest.raises(ValueError):
            pair.cu[0, 0] = 1

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generate_codebooks(2, 4, Pmf.uniform(3), bsc(0.1), 0)

    def test_bad_dimensions(self):
        with pytest.raises(DomainError):
            generate_codebooks(0, 4, UNIF2, bsc(0.1), 0)


class TestCodebookPair:
    def test_shape_agreement_enforced(self):
        with pytest.raises(DimensionMismatch):
            CodebookPair(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 4), dtype=np.int64), 0)

    def test_one_dimensional_rejected(self):
        with pytest.raises(DimensionMismatch):
            CodebookPair(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64), 0)

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)])
    def test_empty_codebook_rejected(self, shape):
        # decoding one would fail in a reduction over zero rows or symbols
        empty = np.zeros(shape, dtype=np.int64)
        with pytest.raises(DimensionMismatch, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            CodebookPair(empty, empty, 0)


class TestTransmit:
    def test_identity_channel(self):
        cw = np.array([0, 1, 1, 0, 1], dtype=np.int64)
        np.testing.assert_array_equal(transmit(cw, TransitionMatrix.identity(2), 5), cw)

    def test_always_flip(self):
        cw = np.array([0, 1, 0], dtype=np.int64)
        np.testing.assert_array_equal(transmit(cw, bsc(1.0), 5), 1 - cw)

    def test_flip_rate(self):
        y = transmit(np.zeros(10_000, dtype=np.int64), bsc(0.1), 42)
        assert abs(y.mean() - 0.1) < 3 * math.sqrt(0.1 * 0.9 / 10_000)

    def test_deterministic(self):
        cw = np.arange(2, dtype=np.int64).repeat(50)
        np.testing.assert_array_equal(transmit(cw, bsc(0.3), 1), transmit(cw, bsc(0.3), 1))

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(DomainError):
            transmit(np.array([0, 2], dtype=np.int64), bsc(0.1), 0)

    def test_requires_vector(self):
        with pytest.raises(DimensionMismatch):
            transmit(np.zeros((2, 2), dtype=np.int64), bsc(0.1), 0)


class TestInducedChannel:
    def test_binary_symmetric_composition(self):
        got = induced_channel(UNIF2, bsc(0.1), bsc(0.05))
        q = 0.1 + 0.05 - 2 * 0.1 * 0.05
        np.testing.assert_allclose(got.matrix, bsc(q).matrix, atol=1e-15)

    def test_identity_perturbation_recovers_channel(self):
        got = induced_channel(UNIF2, bsc(0.3), TransitionMatrix.identity(2))
        np.testing.assert_allclose(got.matrix, bsc(0.3).matrix, atol=1e-15)

    def test_unreachable_symbol_row_is_uniform(self):
        got = induced_channel(Pmf([1.0, 0.0]), bsc(0.2), TransitionMatrix.identity(2))
        np.testing.assert_allclose(got.matrix[1], [0.5, 0.5])
        np.testing.assert_allclose(got.matrix[0], [0.8, 0.2])


def _scalar_typicality(y, pair, epsilon, joint):
    """Independent per-symbol walk over the three typicality conditions."""
    t = joint.table
    nu, ny = t.shape
    pu = t.sum(axis=1)
    py = t.sum(axis=0)
    hu = -sum(p * math.log2(p) for p in pu if p > 0)
    hy = -sum(p * math.log2(p) for p in py if p > 0)
    huy = -sum(p * math.log2(p) for p in t.ravel() if p > 0)
    n = len(y)

    ry = 0.0
    for s in y:
        if py[s] <= 0:
            ry = math.inf
            break
        ry -= math.log2(py[s])
    hits = []
    for w in range(pair.M):
        ru = 0.0
        ruy = 0.0
        for j in range(n):
            u = pair.cu[w, j]
            if pu[u] <= 0 or t[u, y[j]] <= 0:
                ru = math.inf
                ruy = math.inf
                break
            ru -= math.log2(pu[u])
            ruy -= math.log2(t[u, y[j]])
        if (
            abs(ru / n - hu) < epsilon
            and abs(ry / n - hy) < epsilon
            and abs(ruy / n - huy) < epsilon
        ):
            hits.append(w + 1)
    return hits[0] if len(hits) == 1 else 0


class TestTypicalityDecode:
    def test_noiseless_unique_match(self):
        pair = generate_codebooks(4, 16, UNIF2, bsc(0.0), 0)
        assert len({tuple(r) for r in pair.cx}) == 4  # rows distinct at this seed
        joint = build_joint_uy(UNIF2, bsc(0.0), bsc(0.0))
        for w in range(4):
            assert typicality_decode(pair.cx[w], pair, 0.5, joint) == w + 1

    def test_atypical_output_nulls_every_codebook(self):
        px = Pmf([0.9, 0.1])
        ident = TransitionMatrix.identity(2)
        pair = generate_codebooks(4, 20, px, ident, 2)
        joint = build_joint_uy(px, ident, ident)
        y = np.ones(20, dtype=np.int64)  # rare symbol everywhere
        assert typicality_decode(y, pair, 0.05, joint) == 0

    def test_duplicate_typical_rows_null(self):
        row = np.tile([0, 1], 8).astype(np.int64)
        pair = CodebookPair(np.stack([row, row]), np.stack([row, row]), 0)
        joint = build_joint_uy(UNIF2, bsc(0.0), bsc(0.0))
        assert typicality_decode(row, pair, 0.5, joint) == 0

    def test_zero_probability_symbol_never_typical(self):
        # decoder codeword uses a symbol the perturbation cannot emit
        pair = CodebookPair(
            np.zeros((1, 8), dtype=np.int64), np.ones((1, 8), dtype=np.int64), 0
        )
        joint = build_joint_uy(Pmf([1.0, 0.0]), TransitionMatrix.identity(2),
                               TransitionMatrix.identity(2))
        assert typicality_decode(np.zeros(8, dtype=np.int64), pair, 5.0, joint) == 0

    def test_epsilon_must_be_positive(self):
        pair = generate_codebooks(2, 4, UNIF2, bsc(0.1), 0)
        joint = build_joint_uy(UNIF2, bsc(0.1), bsc(0.1))
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                typicality_decode(np.zeros(4, dtype=np.int64), pair, epsilon, joint)

    def test_rejects_marginal_joint(self):
        pair = generate_codebooks(2, 4, UNIF2, bsc(0.1), 0)
        j3 = JointPmf(np.full((2, 2, 2), 0.125))
        with pytest.raises(DimensionMismatch):
            typicality_decode(np.zeros(4, dtype=np.int64), pair, 0.1, j3)

    def test_output_length_checked(self):
        pair = generate_codebooks(2, 4, UNIF2, bsc(0.1), 0)
        joint = build_joint_uy(UNIF2, bsc(0.1), bsc(0.1))
        with pytest.raises(DimensionMismatch):
            typicality_decode(np.zeros(5, dtype=np.int64), pair, 0.1, joint)

    def test_codeword_rate_alone_rejects_a_row(self):
        # both rows pass the output and joint tests; row 2's own symbol rate
        # 1.127 lies 0.156 from H(U) = 0.971, so only row 1 is typical
        joint = JointPmf(np.array([[0.5, 0.1], [0.1, 0.3]]))
        cu = np.array([[0, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 1]], dtype=np.int64)
        y = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
        assert typicality_decode(y, CodebookPair(cu, cu, 0), 0.1, joint) == 1
        decide = codec._typicality_rule(joint, 0.1, 6)
        assert decide(codec._shared_counts(cu, 2, 2)(y[None])).tolist() == [1]

    @pytest.mark.parametrize("bad", [2, 5, -1])
    def test_codebook_symbol_checked(self, bad):
        # 2 would count into the next row's cells, 5 past the table, -1 below it
        cu = np.array([[0, 0, 0, 0], [bad] * 4, [1, 1, 1, 1]], dtype=np.int64)
        joint = build_joint_uy(UNIF2, bsc(0.1), bsc(0.1))
        with pytest.raises(DomainError, match="decoder codebook"):
            typicality_decode([0, 0, 0, 0], CodebookPair(cu, cu, 0), 0.5, joint)

    def test_agrees_with_independent_reimplementation(self):
        px, pyx, pux = UNIF2, bsc(0.05), bsc(0.05)
        joint = build_joint_uy(px, pyx, pux)
        for trial in range(60):
            pair = generate_codebooks(4, 200, px, pux, trial)
            y = transmit(pair.cx[trial % 4], pyx, 10_000 + trial)
            got = typicality_decode(y, pair, 0.05, joint)
            assert got == _scalar_typicality(y, pair, 0.05, joint)


class TestMapDecode:
    def test_noiseless_identity_always_correct(self):
        pair = generate_codebooks(4, 16, UNIF2, bsc(0.0), 0)
        pyu = induced_channel(UNIF2, bsc(0.0), bsc(0.0))
        for w in range(4):
            assert map_decode(pair.cx[w], pair, pyu) == w + 1

    def test_two_candidate_majority(self):
        cu = np.array([[0, 0, 0], [1, 1, 1]], dtype=np.int64)
        pair = CodebookPair(cu, cu, 0)
        pyu = induced_channel(UNIF2, bsc(0.1), bsc(0.05))  # BSC(q), q = 0.14 < 0.5
        assert map_decode(np.array([0, 0, 1]), pair, pyu) == 1
        assert map_decode(np.array([1, 0, 1]), pair, pyu) == 2

    def test_half_perturbation_always_ties_to_first(self):
        # all transition entries equal 1/2, so every score is bit-identical
        # for n = 3 regardless of how the counts split across cells
        pair = generate_codebooks(5, 3, UNIF2, bsc(0.5), 8)
        pyu = induced_channel(UNIF2, bsc(0.1), bsc(0.5))
        for bits in range(8):
            y = np.array([(bits >> k) & 1 for k in range(3)], dtype=np.int64)
            assert map_decode(y, pair, pyu) == 1

    def test_all_minus_infinity_returns_first(self):
        cu = np.array([[0, 0], [1, 1]], dtype=np.int64)
        pair = CodebookPair(cu, cu, 0)
        pyu = TransitionMatrix.identity(2)
        assert map_decode(np.array([0, 1]), pair, pyu) == 1

    def test_zero_probability_cell_eliminates_only_that_row(self):
        cu = np.array([[0, 0], [1, 1]], dtype=np.int64)
        pair = CodebookPair(cu, cu, 0)
        pyu = TransitionMatrix([[1.0, 0.0], [0.5, 0.5]])
        assert map_decode(np.array([0, 1]), pair, pyu) == 2

    def test_output_symbol_checked(self):
        pair = generate_codebooks(2, 4, UNIF2, bsc(0.1), 0)
        pyu = induced_channel(UNIF2, bsc(0.1), bsc(0.1))
        with pytest.raises(DomainError):
            map_decode(np.array([0, 0, 0, 2]), pair, pyu)

    @pytest.mark.parametrize("bad", [2, 5, -1])
    def test_codebook_symbol_checked(self, bad):
        # unchecked, a row of 2s counted into row 3's cells and won
        cu = np.array([[0, 0, 0, 0], [bad] * 4, [1, 1, 1, 1]], dtype=np.int64)
        with pytest.raises(DomainError, match="decoder codebook"):
            map_decode([0, 0, 0, 0], CodebookPair(cu, cu, 0), bsc(0.1))


class TestDecoderIsolation:
    def test_decisions_depend_only_on_decoder_codebook(self):
        pair = generate_codebooks(8, 32, UNIF2, bsc(0.2), 4)
        scrambled = CodebookPair(1 - pair.cx, pair.cu, pair.seed)
        pyu = induced_channel(UNIF2, bsc(0.1), bsc(0.2))
        joint = build_joint_uy(UNIF2, bsc(0.1), bsc(0.2))
        for t in range(10):
            y = transmit(pair.cx[t % 8], bsc(0.1), 500 + t)
            assert map_decode(y, pair, pyu) == map_decode(y, scrambled, pyu)
            assert typicality_decode(y, pair, 0.1, joint) == typicality_decode(
                y, scrambled, 0.1, joint
            )


class TestSimConfig:
    def test_epsilon_rules(self):
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.1, decoder="typicality")
        for eps in (-0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                SimConfig.binary_symmetric(
                    n=4, M=2, p1=0.1, p2=0.1, decoder="typicality", epsilon=eps
                )
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.1, decoder="map", epsilon=0.1)

    def test_bad_enum_values(self):
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.1, decoder="viterbi")
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.1, codebook_mode="reused")

    def test_positivity(self):
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=0, M=2, p1=0.1, p2=0.1)
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.1, trials=0)

    def test_alphabet_agreement(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(n=4, M=2, px=Pmf.uniform(3), pyx=bsc(0.1), pux=bsc(0.1))

    def test_cell_cap(self):
        with pytest.raises(CodebookLimitError):
            SimConfig.binary_symmetric(n=1 << 7, M=1 << 20, p1=0.1, p2=0.1)

    def test_binary_symmetric_echo_carries_the_dataclass_defaults(self):
        echo = SimConfig.binary_symmetric(n=4, M=2, p1=0.1, p2=0.2).echo()
        assert list(echo.items()) == [
            ("n", 4), ("M", 2), ("decoder", "map"), ("epsilon", None), ("trials", 1000),
            ("codebook_mode", "fresh_per_trial"), ("master_seed", 0), ("p1", 0.1),
            ("p2", 0.2), ("px", [0.5, 0.5]), ("pyx", bsc(0.1).matrix.tolist()),
            ("pux", bsc(0.2).matrix.tolist()),
        ]

    def test_general_matrices_leave_p_fields_unset(self):
        cfg = SimConfig(n=4, M=2, px=UNIF2, pyx=bsc(0.1), pux=bsc(0.1))
        assert cfg.p1 is None and cfg.p2 is None
        echo = cfg.echo()
        assert echo["p1"] is None
        assert echo["pyx"] == bsc(0.1).matrix.tolist()


@pytest.fixture(scope="module")
def report():
    cfg = SimConfig.binary_symmetric(n=16, M=4, p1=0.1, p2=0.1, trials=400, master_seed=21)
    return run_experiment(cfg)


class TestTrialReport:
    def test_counting_invariants(self, report):
        assert report.pe_hat == report.error_count / report.trials_run
        assert sum(s for _, s in report.per_message_errors) == report.trials_run
        assert sum(e for e, _ in report.per_message_errors) == report.error_count
        assert 0.0 <= report.pe_hat <= 1.0

    def test_lambda_is_worst_per_message_rate(self, report):
        rates = [e / s for e, s in report.per_message_errors if s > 0]
        assert report.lambda_max_hat == max(rates)

    def test_elapsed_excluded_from_equality(self, report):
        cfg = SimConfig.binary_symmetric(n=16, M=4, p1=0.1, p2=0.1, trials=400, master_seed=21)
        again = run_experiment(cfg)
        assert again == report  # elapsed differs, everything else identical

    def test_wire_field_order(self, report):
        assert list(report.to_json_dict().keys()) == [
            "trials", "errors", "pe_hat", "ci95", "lambda_max_hat", "rate",
            "n", "M", "decoder", "epsilon", "p1", "p2", "seed", "elapsed_seconds",
        ]
        d = report.to_json_dict()
        assert d["rate"] == math.log2(4) / 16
        assert d["epsilon"] is None
        assert d["seed"] == 21

    def test_ci_is_wald_interval(self, report):
        p = report.pe_hat
        expect = 1.96 * math.sqrt(p * (1 - p) / report.trials_run)
        assert report.ci95_halfwidth == pytest.approx(expect, rel=1e-12)


def _scalar_experiment(cfg):
    """Full pipeline re-implementation: seeds, sampling, and MAP scoring
    rebuilt from scratch on top of the raw uniform streams."""
    pyu = induced_channel(cfg.px, cfg.pyx, cfg.pux)
    logp = np.log(pyu.matrix)
    errors = 0
    for t in range(cfg.trials):
        pair_seed = derive_seed(cfg.master_seed, t, TAG_CODEBOOK)
        ux = stream(derive_seed(pair_seed, 0, TAG_CODEBOOK)).random((cfg.M, cfg.n))
        uu = stream(derive_seed(pair_seed, 0, TAG_PERTURB)).random((cfg.M, cfg.n))
        cx = [
            [_scalar_pmf_draw(ux[i, j], cfg.px.probs) for j in range(cfg.n)]
            for i in range(cfg.M)
        ]
        cu = [
            [_scalar_row_draw(uu[i, j], cfg.pux.matrix[cx[i][j]]) for j in range(cfg.n)]
            for i in range(cfg.M)
        ]
        w = int(stream(derive_seed(cfg.master_seed, t, TAG_MESSAGE)).integers(cfg.M))
        uy = stream(derive_seed(cfg.master_seed, t, TAG_CHANNEL)).random(cfg.n)
        y = [_scalar_row_draw(uy[j], cfg.pyx.matrix[cx[w][j]]) for j in range(cfg.n)]

        ny = pyu.output_size
        best_w, best_score = 0, -math.inf
        for i in range(cfg.M):
            cells = [0] * (pyu.input_size * ny)
            for j in range(cfg.n):
                cells[cu[i][j] * ny + y[j]] += 1
            score = 0.0
            for c, count in enumerate(cells):
                lv = logp.ravel()[c]
                if count > 0 and lv == -math.inf:
                    score = score + -math.inf
                else:
                    score = score + count * lv
            if score > best_score:
                best_w, best_score = i, score
        if best_w != w:
            errors += 1
    return errors


class TestRunExperiment:
    def test_agrees_with_scalar_pipeline_oracle(self):
        cfg = SimConfig.binary_symmetric(
            n=64, M=4, p1=0.02, p2=0.02, trials=500, master_seed=13
        )
        report = run_experiment(cfg)
        assert report.error_count == _scalar_experiment(cfg)

    def test_deterministic_across_runs(self):
        cfg = SimConfig.binary_symmetric(n=32, M=8, p1=0.1, p2=0.1, trials=200, master_seed=6)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.error_count == b.error_count
        assert a.per_message_errors == b.per_message_errors

    def test_fixed_codebook_mode_deterministic(self):
        cfg = SimConfig.binary_symmetric(
            n=32, M=4, p1=0.05, p2=0.05, trials=200, codebook_mode="fixed", master_seed=11
        )
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a == b
        assert a.config_echo["codebook_mode"] == "fixed"

    def test_fixed_and_fresh_modes_differ(self):
        fresh = SimConfig.binary_symmetric(
            n=16, M=8, p1=0.2, p2=0.2, trials=300, master_seed=2
        )
        fixed = SimConfig.binary_symmetric(
            n=16, M=8, p1=0.2, p2=0.2, trials=300, codebook_mode="fixed", master_seed=2
        )
        assert run_experiment(fresh).per_message_errors != run_experiment(fixed).per_message_errors

    def test_noiseless_configuration_never_errs(self):
        # all 300 fresh codebooks at this seed have distinct encoder rows,
        # so exact decoding is guaranteed (a duplicate row would tie)
        cfg = SimConfig.binary_symmetric(n=32, M=2, p1=0.0, p2=0.0, trials=300, master_seed=5)
        report = run_experiment(cfg)
        assert report.error_count == 0
        assert report.pe_hat == 0.0
        assert report.lambda_max_hat == 0.0

    def test_independent_perturbation_forces_blind_guessing(self):
        cfg = SimConfig.binary_symmetric(n=16, M=16, p1=0.1, p2=0.5, trials=2000, master_seed=9)
        report = run_experiment(cfg)
        target = 15.0 / 16.0
        assert abs(report.pe_hat - target) < 3 * math.sqrt(target * (1 - target) / 2000)

    def test_typicality_decoder_runs_and_reports(self):
        cfg = SimConfig.binary_symmetric(
            n=100, M=2, p1=0.05, p2=0.05, decoder="typicality", epsilon=0.2,
            trials=100, master_seed=3,
        )
        report = run_experiment(cfg)
        assert report.config_echo["decoder"] == "typicality"
        assert report.to_json_dict()["epsilon"] == 0.2
        assert report.pe_hat < 0.5


class TestCollisionExperiment:
    def test_full_collision_pins_worst_rate_to_one(self):
        assert collision_experiment(2, 2, 8, 0.0, 0.0, 100, 3) == 1.0

    def test_partial_collision_also_saturates(self):
        # colliders share one decoder row, so the tie-break always elects
        # the lowest index and every other collider errs on every send
        assert collision_experiment(8, 4, 8, 0.1, 0.1, 200, 3) == 1.0

    def test_exceeds_random_guessing_bound(self):
        for m in (2, 4):
            lam = collision_experiment(8, m, 16, 0.05, 0.05, 400, 1)
            assert lam >= 1 - 1 / m

    def test_degenerate_single_collider(self):
        assert collision_experiment(4, 1, 32, 0.0, 0.0, 50, 3) == 0.0

    def test_bounds_checked(self):
        with pytest.raises(DomainError):
            collision_experiment(4, 0, 8, 0.1, 0.1, 10, 0)
        with pytest.raises(DomainError):
            collision_experiment(4, 5, 8, 0.1, 0.1, 10, 0)
        with pytest.raises(DomainError):
            collision_experiment(4, 2, 8, 0.1, 0.1, 0, 0)

    def test_deterministic(self):
        a = collision_experiment(8, 2, 16, 0.1, 0.1, 100, 12)
        b = collision_experiment(8, 2, 16, 0.1, 0.1, 100, 12)
        assert a == b


class TestCellCap:
    def test_cap_is_sane(self):
        assert CODEBOOK_CELL_CAP == 1 << 26


# Goldens captured from the per-trial loop before trials ran in blocks: every
# seeded report must stay bit-identical.  The cases cover fresh and fixed
# codebooks, both decoders, M = 1, 3 and 1024, n = 37 (not a multiple of
# Philox's four-word block), trial counts that no block size divides, and a
# ternary-input law with zero entries (-inf log cells, nu = 4 != ny = 2).
_PX3 = Pmf([0.5, 0.3, 0.2])
_PYX3 = TransitionMatrix([[0.7, 0.3], [0.0, 1.0], [0.4, 0.6]])
_PUX3 = TransitionMatrix(
    [[0.6, 0.0, 0.4, 0.0], [0.1, 0.5, 0.0, 0.4], [0.0, 0.0, 0.3, 0.7]]
)


def _bsc_case(n, M, trials, seed, p1=0.1, p2=0.1, **kw):
    return SimConfig.binary_symmetric(
        n=n, M=M, p1=p1, p2=p2, trials=trials, master_seed=seed, **kw
    )


def _ternary_case(n, M, trials, seed, **kw):
    return SimConfig(
        n=n, M=M, px=_PX3, pyx=_PYX3, pux=_PUX3, trials=trials, master_seed=seed, **kw
    )


_TYP = "typicality"
_GOLDEN_CASES = {
    "fresh_map_n16_M16": _bsc_case(16, 16, 300, 1, p1=0.05, p2=0.05),
    "fresh_map_n37_M3": _bsc_case(37, 3, 257, 2, p1=0.15, p2=0.1),
    "fixed_map_n37_M3": _bsc_case(37, 3, 257, 2, p1=0.3, p2=0.2, codebook_mode="fixed"),
    "fresh_map_M1": _bsc_case(8, 1, 50, 3),
    "fresh_map_n16_M1024": _bsc_case(16, 1024, 21, 4, p1=0.05, p2=0.05),
    "fixed_map_n12_M1024": _bsc_case(
        12, 1024, 41, 5, p1=0.05, p2=0.05, codebook_mode="fixed"
    ),
    "fresh_typ_n100_M4": _bsc_case(
        100, 4, 100, 6, p1=0.05, p2=0.05, decoder=_TYP, epsilon=0.2
    ),
    "fixed_typ_n64_M8": _bsc_case(
        64, 8, 150, 7, decoder=_TYP, epsilon=0.3, codebook_mode="fixed"
    ),
    "fresh_typ_n37_M3": _bsc_case(37, 3, 211, 8, p1=0.2, p2=0.05, decoder=_TYP, epsilon=0.25),
    "general_fresh_map": _ternary_case(37, 5, 173, 9),
    "general_fixed_map": _ternary_case(24, 7, 120, 10, codebook_mode="fixed"),
    "general_fresh_typ": _ternary_case(40, 3, 90, 11, decoder=_TYP, epsilon=0.4),
}

# Wire report without elapsed_seconds, then {message index: (errors, sent)}
# for every message sent at least once.
_GOLDEN_REPORTS = {
    "fresh_map_n16_M16": (
        {"trials": 300, "errors": 8, "pe_hat": 0.02666666666666667,
         "ci95": 0.018231004929535312, "lambda_max_hat": 0.09090909090909091,
         "rate": 0.25, "n": 16, "M": 16, "decoder": "map", "epsilon": None, "p1": 0.05,
         "p2": 0.05, "seed": 1},
        {0: (0, 13), 1: (1, 28), 2: (1, 21), 3: (2, 22), 4: (0, 20), 5: (0, 15),
         6: (0, 14), 7: (0, 17), 8: (1, 16), 9: (1, 14), 10: (0, 18), 11: (0, 15),
         12: (1, 25), 13: (0, 20), 14: (1, 19), 15: (0, 23)},
    ),
    "fresh_map_n37_M3": (
        {"trials": 257, "errors": 2, "pe_hat": 0.007782101167315175,
         "ci95": 0.01074339328754983, "lambda_max_hat": 0.014285714285714285,
         "rate": 0.04283682434381503, "n": 37, "M": 3, "decoder": "map",
         "epsilon": None, "p1": 0.15, "p2": 0.1, "seed": 2},
        {0: (1, 86), 1: (0, 101), 2: (1, 70)},
    ),
    "fixed_map_n37_M3": (
        {"trials": 257, "errors": 95, "pe_hat": 0.36964980544747084,
         "ci95": 0.05901680526206471, "lambda_max_hat": 0.48514851485148514,
         "rate": 0.04283682434381503, "n": 37, "M": 3, "decoder": "map",
         "epsilon": None, "p1": 0.3, "p2": 0.2, "seed": 2},
        {0: (20, 86), 1: (49, 101), 2: (26, 70)},
    ),
    "fresh_map_M1": (
        {"trials": 50, "errors": 0, "pe_hat": 0.0, "ci95": 0.0, "lambda_max_hat": 0.0,
         "rate": 0.0, "n": 8, "M": 1, "decoder": "map", "epsilon": None, "p1": 0.1,
         "p2": 0.1, "seed": 3},
        {0: (0, 50)},
    ),
    "fresh_map_n16_M1024": (
        {"trials": 21, "errors": 10, "pe_hat": 0.47619047619047616,
         "ci95": 0.2136109305012963, "lambda_max_hat": 1.0, "rate": 0.625, "n": 16,
         "M": 1024, "decoder": "map", "epsilon": None, "p1": 0.05, "p2": 0.05,
         "seed": 4},
        {106: (1, 1), 119: (1, 1), 171: (0, 1), 225: (1, 1), 319: (1, 1), 344: (0, 1),
         350: (0, 1), 427: (1, 1), 492: (1, 1), 503: (0, 1), 551: (0, 1), 559: (1, 1),
         566: (0, 1), 663: (1, 1), 669: (0, 1), 678: (0, 1), 699: (0, 1), 829: (0, 1),
         833: (0, 1), 843: (1, 1), 907: (1, 1)},
    ),
    "fixed_map_n12_M1024": (
        {"trials": 41, "errors": 27, "pe_hat": 0.6585365853658537,
         "ci95": 0.14515305681966567, "lambda_max_hat": 1.0, "rate": 0.8333333333333334,
         "n": 12, "M": 1024, "decoder": "map", "epsilon": None, "p1": 0.05, "p2": 0.05,
         "seed": 5},
        {32: (1, 1), 50: (1, 1), 118: (1, 1), 123: (0, 1), 152: (1, 1), 158: (0, 1),
         174: (0, 1), 188: (1, 1), 201: (0, 1), 217: (2, 2), 221: (1, 1), 248: (1, 1),
         251: (0, 1), 300: (0, 1), 364: (1, 1), 405: (1, 1), 427: (1, 1), 466: (1, 1),
         481: (0, 1), 500: (0, 1), 511: (1, 1), 530: (1, 1), 551: (1, 1), 562: (1, 1),
         573: (1, 1), 583: (1, 1), 614: (1, 1), 618: (1, 1), 683: (1, 1), 693: (0, 1),
         704: (1, 1), 716: (1, 1), 795: (0, 1), 812: (1, 1), 850: (0, 2), 861: (1, 1),
         991: (0, 1), 1010: (0, 1), 1019: (1, 1)},
    ),
    "fresh_typ_n100_M4": (
        {"trials": 100, "errors": 4, "pe_hat": 0.04, "ci95": 0.03840799916684023,
         "lambda_max_hat": 0.05, "rate": 0.02, "n": 100, "M": 4,
         "decoder": "typicality", "epsilon": 0.2, "p1": 0.05, "p2": 0.05, "seed": 6},
        {0: (1, 20), 1: (1, 22), 2: (1, 25), 3: (1, 33)},
    ),
    "fixed_typ_n64_M8": (
        {"trials": 150, "errors": 1, "pe_hat": 0.006666666666666667,
         "ci95": 0.01302303827553025, "lambda_max_hat": 0.045454545454545456,
         "rate": 0.046875, "n": 64, "M": 8, "decoder": "typicality", "epsilon": 0.3,
         "p1": 0.1, "p2": 0.1, "seed": 7},
        {0: (0, 16), 1: (1, 22), 2: (0, 21), 3: (0, 15), 4: (0, 20), 5: (0, 17),
         6: (0, 17), 7: (0, 22)},
    ),
    "fresh_typ_n37_M3": (
        {"trials": 211, "errors": 22, "pe_hat": 0.10426540284360189,
         "ci95": 0.041235819592288635, "lambda_max_hat": 0.12121212121212122,
         "rate": 0.04283682434381503, "n": 37, "M": 3, "decoder": "typicality",
         "epsilon": 0.25, "p1": 0.2, "p2": 0.05, "seed": 8},
        {0: (8, 74), 1: (8, 66), 2: (6, 71)},
    ),
    "general_fresh_map": (
        {"trials": 173, "errors": 3, "pe_hat": 0.017341040462427744,
         "ci95": 0.019452346847727134, "lambda_max_hat": 0.03571428571428571,
         "rate": 0.06275481337533412, "n": 37, "M": 5, "decoder": "map",
         "epsilon": None, "p1": None, "p2": None, "seed": 9},
        {0: (0, 33), 1: (1, 28), 2: (0, 36), 3: (1, 33), 4: (1, 43)},
    ),
    "general_fixed_map": (
        {"trials": 120, "errors": 5, "pe_hat": 0.041666666666666664,
         "ci95": 0.03575346396064562, "lambda_max_hat": 0.17647058823529413,
         "rate": 0.11697312175240017, "n": 24, "M": 7, "decoder": "map",
         "epsilon": None, "p1": None, "p2": None, "seed": 10},
        {0: (3, 17), 1: (0, 18), 2: (2, 17), 3: (0, 19), 4: (0, 11), 5: (0, 17),
         6: (0, 21)},
    ),
    "general_fresh_typ": (
        {"trials": 90, "errors": 12, "pe_hat": 0.13333333333333333,
         "ci95": 0.07023122305184515, "lambda_max_hat": 0.2, "rate": 0.0396240625180289,
         "n": 40, "M": 3, "decoder": "typicality", "epsilon": 0.4, "p1": None,
         "p2": None, "seed": 11},
        {0: (6, 30), 1: (3, 31), 2: (3, 29)},
    ),
}


_COLLISION_ARGS = ("M", "n", "p1", "p2", "trials", "seed", "want")
_GOLDEN_COLLISIONS = [
    (8, 16, 0.2, 0.15, 301, 13, {1: 0.2059800664451827, 2: 1.0, 4: 1.0}),
    (4, 24, 0.25, 0.2, 150, 14, {1: 0.17333333333333334, 2: 1.0, 4: 1.0}),
]


class TestGoldenReports:
    @pytest.mark.parametrize("name", list(_GOLDEN_CASES))
    def test_report_unchanged(self, name):
        cfg = _GOLDEN_CASES[name]
        report = run_experiment(cfg)
        wire = report.to_json_dict()
        del wire["elapsed_seconds"]
        want_wire, want_sent = _GOLDEN_REPORTS[name]
        assert wire == want_wire
        assert len(report.per_message_errors) == cfg.M
        got_sent = {i: es for i, es in enumerate(report.per_message_errors) if es[1]}
        assert got_sent == want_sent

    @pytest.mark.parametrize("cells", [1, 1 << 9, 1 << 20])
    @pytest.mark.parametrize(
        "name",
        ["fresh_map_n16_M16", "fixed_typ_n64_M8", "general_fresh_map", "fixed_map_n12_M1024",
         "general_fixed_map"],
    )
    def test_block_size_does_not_matter(self, monkeypatch, name, cells):
        # one trial per block up to every trial in one block
        monkeypatch.setattr(codec, "TRIAL_BLOCK_CELLS", cells)
        self.test_report_unchanged(name)

    @pytest.mark.parametrize(_COLLISION_ARGS, _GOLDEN_COLLISIONS)
    def test_collision_unchanged(self, M, n, p1, p2, trials, seed, want):
        got = {m: collision_experiment(M, m, n, p1, p2, trials, seed) for m in want}
        assert got == want

    @pytest.mark.parametrize("cells", [1, 1 << 9, 1 << 20])
    @pytest.mark.parametrize(_COLLISION_ARGS, _GOLDEN_COLLISIONS)
    def test_collision_block_size_does_not_matter(
        self, monkeypatch, cells, M, n, p1, p2, trials, seed, want
    ):
        monkeypatch.setattr(codec, "TRIAL_BLOCK_CELLS", cells)
        self.test_collision_unchanged(M, n, p1, p2, trials, seed, want)


class _FirstBlock(Exception):
    pass


class TestSharedBlockSize:
    """A shared-codebook block is bounded by both of its growing sides:
    trials x M (the counts) and trials x n (uniforms, outputs, one-hot)."""

    @staticmethod
    def _block(monkeypatch, M, n, shared=True):
        # broadcast views: no codebook of M x n cells is allocated, and the
        # kernel stops at its first block, reporting that block's trials
        book = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (M, n))
        cfg = _bsc_case(n, M, 1 << 20, 0, codebook_mode="fixed")

        def stop(seed, ts, tags):
            raise _FirstBlock(ts.size)

        monkeypatch.setattr(codec, "derive_seeds", stop)
        with pytest.raises(_FirstBlock) as first:
            codec._trial_errors(cfg, None, (book, book) if shared else None)
        return first.value.args[0]

    @pytest.mark.parametrize(
        ("M", "n", "want"),
        [(4096, 32, 4), (8, 16, 1024), (2, 4096, 4), (2, 1 << 16, 1), (1 << 15, 1, 1)],
    )
    def test_block_bounded_by_messages_and_length(self, monkeypatch, M, n, want):
        # (2, 2^16) is a two-message fixed run of long codewords: one trial
        # a block, not TRIAL_BLOCK_CELLS // 2 trials of 2^16 uniforms each
        assert self._block(monkeypatch, M, n) == want

    @pytest.mark.parametrize(("M", "n", "want"), [(16, 16, 64), (8, 16, 128), (4096, 32, 1)])
    def test_fresh_block_holds_trial_block_cells(self, monkeypatch, M, n, want):
        assert self._block(monkeypatch, M, n, shared=False) == want


class TestSharedCounts:
    """The matrix-product count of a shared codebook against the offset
    bincount that per-trial codebooks use."""

    @staticmethod
    def _fresh(cu, y, nu, ny):
        return codec._fresh_counts(np.broadcast_to(cu, (y.shape[0],) + cu.shape), y, nu, ny)

    @pytest.mark.parametrize("case", range(40))
    def test_equals_bincount_count(self, case):
        rnd = np.random.default_rng(case)
        T, M, n = (int(v) for v in rnd.integers(1, (9, 40, 70)))
        if case < 3:  # the edges: one message, one symbol, both
            M, n = (1, 5, 1)[case], (7, 1, 1)[case]
        nu, ny = (int(v) for v in rnd.integers(1, 6, size=2))
        cu = rnd.integers(0, nu, size=(M, n))
        y = rnd.integers(0, ny, size=(T, n))
        shared = codec._shared_counts(cu, nu, ny)
        want = self._fresh(cu, y, nu, ny)
        got = shared(y)
        assert got.dtype == want.dtype and got.shape == (T, M, nu * ny)
        np.testing.assert_array_equal(got, want)
        # a block size that does not divide T: the blocks' counts concatenate
        parts = [shared(y[lo:lo + 3]) for lo in range(0, T, 3)]
        np.testing.assert_array_equal(np.concatenate(parts), want)

    def test_zero_probability_cells_score_alike(self):
        # cells of zero probability: -inf where they are hit, 0 where not
        rnd = np.random.default_rng(5)
        with np.errstate(divide="ignore"):
            logp = np.log(np.array([0.7, 0.0, 0.3, 0.7, 0.0, 1.0]))
        cu = rnd.integers(0, 3, size=(40, 4))
        y = rnd.integers(0, 2, size=(6, 4))
        got = codec._count_scores(np.moveaxis(codec._shared_counts(cu, 3, 2)(y), -1, 0), logp)
        want = codec._count_scores(np.moveaxis(self._fresh(cu, y, 3, 2), -1, 0), logp)
        assert np.isneginf(want).any() and np.isfinite(want).any()
        np.testing.assert_array_equal(got, want)

    def test_float64_indicators_count_alike(self, monkeypatch):
        asked = []
        monkeypatch.setattr(codec, "_indicator_dtype", lambda n: asked.append(n) or np.float64)
        rnd = np.random.default_rng(9)
        cu = rnd.integers(0, 2, size=(13, 21))
        y = rnd.integers(0, 3, size=(4, 21))
        shared = codec._shared_counts(cu, 2, 3)
        assert asked == [21]
        np.testing.assert_array_equal(shared(y), self._fresh(cu, y, 2, 3))

    def test_indicator_dtype_exact_up_to_its_bound(self):
        # checked through the helper alone: no codebook of 2^24 symbols is built
        assert codec._indicator_dtype(1) is np.float32
        assert codec._indicator_dtype(1 << 24) is np.float32
        assert codec._indicator_dtype((1 << 24) + 1) is np.float64
        assert int(np.float32(1 << 24)) == 1 << 24
        assert int(np.float32((1 << 24) + 1)) != (1 << 24) + 1


def _scores(counts, logvals):
    """Cell-ordered count scores of counts (..., k), one array term at a time."""
    total = np.zeros(counts.shape[:-1])
    for c, lv in enumerate(logvals):
        column = counts[..., c]
        total = total + (np.where(column > 0, -np.inf, 0.0) if np.isneginf(lv) else column * lv)
    return total


def _typicality_oracle(cu, y, joint, epsilon):
    """Typicality decisions for outputs y (T, n) against decoder codebooks
    cu (T, M, n), with the u and y rates counted from the codebooks and the
    outputs themselves rather than from the (u, y) count tables."""
    t = joint.table
    nu, ny = t.shape
    n = y.shape[-1]
    with np.errstate(divide="ignore"):
        lu, ly, luy = np.log2(t.sum(axis=1)), np.log2(t.sum(axis=0)), np.log2(t).ravel()
    hu, hy, huy = (codec._entropy_bits(p) for p in (t.sum(axis=1), t.sum(axis=0), t))
    rate_u = -_scores(codec._cell_counts(cu, nu), lu) / n
    rate_y = -_scores(codec._cell_counts(y, ny), ly) / n
    rate_uy = -_scores(codec._fresh_counts(cu, y, nu, ny), luy) / n
    ok = ((np.abs(rate_u - hu) < epsilon) & (np.abs(rate_y - hy) < epsilon)[:, None]
          & (np.abs(rate_uy - huy) < epsilon))
    return np.where(ok.sum(axis=-1) == 1, np.argmax(ok, axis=-1) + 1, 0)


class TestTypicalityFromCounts:
    """The typicality rule takes the u and y rates from the margins of the
    (u, y) count tables; integer margins keep every bit of every rate."""

    def test_column_scores_keep_their_bits(self):
        # zero counts against negative and -inf log values, signs of zero included
        rnd = np.random.default_rng(3)
        counts = rnd.integers(0, 3, size=(5, 7, 6))
        with np.errstate(divide="ignore"):
            logvals = np.log(np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.4]))
        got = codec._count_scores(np.moveaxis(counts, -1, 0), logvals)
        assert got.tobytes() == _scores(counts, logvals).tobytes()

    @pytest.mark.parametrize("case", range(30))
    def test_shared_fresh_and_oracle_agree(self, case):
        rnd = np.random.default_rng(100 + case)
        nu, ny = (int(v) for v in rnd.integers(1, 5, size=2))
        if case < 2:  # nu != ny both ways
            nu, ny = (2, 4)[case], (3, 1)[case]
        t = rnd.random((nu, ny)) * (rnd.random((nu, ny)) > 0.3)  # zero cells
        t[0, 0] += 0.1
        joint = JointPmf(t / t.sum())
        T, M, n = (int(v) for v in rnd.integers(1, (7, 12, 40)))
        # rows drawn from the joint's u law, a few with any symbol, and the
        # outputs but the first drawn through p(y|u) from the last row: rows
        # of zero-probability symbols and jointly typical rows both occur
        pu = joint.table.sum(axis=1)
        cu = rnd.choice(nu, size=(M, n), p=pu)
        cu[: M // 4] = rnd.integers(0, nu, size=(M // 4, n))
        cdf = np.cumsum(joint.table[cu[-1]] / pu[cu[-1], None], axis=-1)
        y = (rnd.random((T, n, 1)) > cdf).sum(axis=-1).clip(max=ny - 1)
        y[:1] = rnd.integers(0, ny, size=(1, n))
        fresh = np.broadcast_to(cu, (T, M, n))
        for epsilon in (0.02, 0.1, 0.4, 2.0):
            decide = codec._typicality_rule(joint, epsilon, n)
            want = _typicality_oracle(fresh, y, joint, epsilon)
            np.testing.assert_array_equal(decide(codec._fresh_counts(fresh, y, nu, ny)), want)
            np.testing.assert_array_equal(decide(codec._shared_counts(cu, nu, ny)(y)), want)

    @pytest.mark.parametrize("cells", [1, 1 << 9, 1 << 20])
    def test_fixed_run_equals_per_trial_oracle(self, monkeypatch, cells):
        # ternary input, nu = 4 != ny = 2, zero-probability cells
        monkeypatch.setattr(codec, "TRIAL_BLOCK_CELLS", cells)
        cfg = _ternary_case(24, 6, 80, 12, decoder=_TYP, epsilon=0.3, codebook_mode="fixed")
        joint = build_joint_uy(cfg.px, cfg.pyx, cfg.pux)
        pair = generate_codebooks(cfg.M, cfg.n, cfg.px, cfg.pux, cfg.master_seed)
        errs = np.zeros(cfg.M, dtype=np.int64)
        sent = np.zeros(cfg.M, dtype=np.int64)
        for t in range(cfg.trials):
            w = int(stream(derive_seed(cfg.master_seed, t, TAG_MESSAGE)).integers(cfg.M))
            uy = stream(derive_seed(cfg.master_seed, t, TAG_CHANNEL)).random(cfg.n)
            y = np.array([_scalar_row_draw(uy[j], cfg.pyx.matrix[pair.cx[w, j]])
                          for j in range(cfg.n)])
            got = _typicality_oracle(pair.cu[None], y[None], joint, cfg.epsilon)[0]
            sent[w] += 1
            errs[w] += got != w + 1
        report = run_experiment(cfg)
        assert report.per_message_errors == tuple(zip(errs.tolist(), sent.tolist()))
        assert 0 < report.error_count < cfg.trials


def _binom_log_pmf(n, d):
    return math.lgamma(n + 1) - math.lgamma(d + 1) - math.lgamma(n - d + 1)


def _pe_exact_bsc(n, M, q):
    """Ensemble block error of fresh-codebook MAP decoding over a uniform
    binary BSC(q) link between decoder row and output (q < 1/2).

    The true row sits at Hamming distance d ~ Bin(n, q) from y, every other
    row at an independent Bin(n, 1/2) distance; averaged over messages the
    true row wins a k-way tie with chance 1/(k+1), which sums to
    (a^M - b^M) / (M f(d)) with f the Bin(n, 1/2) pmf, a = P(D >= d) and
    b = a - f(d).  Evaluated in logs with log1p/expm1 so that an error
    probability far below 1e-16 keeps its digits.
    """
    logf = [_binom_log_pmf(n, d) - n * math.log(2.0) for d in range(n + 1)]
    f = [math.exp(v) for v in logf]
    below = [0.0] * (n + 2)  # below[d] = P(D < d), summed from the bottom
    above = [0.0] * (n + 2)  # above[d] = P(D >= d), summed from the top
    for d in range(n + 1):
        below[d + 1] = below[d] + f[d]
    for d in range(n, -1, -1):
        above[d] = above[d + 1] + f[d]
    pe = 0.0
    for d in range(n + 1):
        if q == 0.0:
            weight = 1.0 if d == 0 else 0.0
        else:
            weight = math.exp(
                _binom_log_pmf(n, d) + d * math.log(q) + (n - d) * math.log1p(-q)
            )
        if below[d] < 0.5:
            a, log_a = 1.0 - below[d], math.log1p(-below[d])
        else:
            a, log_a = above[d], math.log(above[d])
        x = f[d] / a  # 1 - b / a
        ratio_gap = 1.0 if x >= 1.0 else -math.expm1(M * math.log1p(-x))  # 1 - (b/a)^M
        log_win = M * log_a - math.log(M) - logf[d] + math.log(ratio_gap)
        pe += weight * max(0.0, -math.expm1(log_win))
    return pe


def _pe_enumerated_bsc(n, M, q):
    """The same ensemble error by brute force over every codebook, message
    and output, decoding by minimum distance with the lowest index winning."""
    err = 0.0
    for book in itertools.product(range(1 << n), repeat=M):
        for w in range(M):
            for y in range(1 << n):
                d_true = bin(book[w] ^ y).count("1")
                p = q**d_true * (1 - q) ** (n - d_true) / (M * (1 << (n * M)))
                dist = [bin(c ^ y).count("1") for c in book]
                if dist.index(min(dist)) != w:
                    err += p
    return err


class TestExactEnsembleOracle:
    @pytest.mark.parametrize(("n", "M", "q"), [(1, 2, 0.095), (3, 3, 0.2), (4, 2, 0.3)])
    def test_oracle_matches_enumeration(self, n, M, q):
        assert _pe_exact_bsc(n, M, q) == pytest.approx(_pe_enumerated_bsc(n, M, q), rel=1e-12)

    def test_monte_carlo_within_four_sigma(self):
        # criterion 7's rows with M <= 64 and their seeds, 2000 trials each
        rows = [(n, 16, derive_seed(700, i, TAG_SWEEP)) for i, n in enumerate((16, 32, 64, 128))]
        rows += [(16, m, derive_seed(701, i, TAG_SWEEP)) for i, m in enumerate((2, 8, 64))]
        rows += [(64, 4, derive_seed(702, 0, TAG_SWEEP))]
        trials = 2000
        q = composite_crossover(0.05, 0.05)
        for n, m, seed in rows:
            cfg = SimConfig.binary_symmetric(
                n=n, M=m, p1=0.05, p2=0.05, trials=trials, master_seed=seed
            )
            pe_hat = run_experiment(cfg).pe_hat
            pe = _pe_exact_bsc(n, m, q)
            sigma = math.sqrt(pe * (1.0 - pe) / trials)
            assert abs(pe_hat - pe) <= 4.0 * sigma, (n, m, pe_hat, pe)
