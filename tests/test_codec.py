"""Codebook generation, transmission, decoding, and the experiment loop."""

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
)
from asymcap.rng import (
    TAG_CHANNEL,
    TAG_CODEBOOK,
    TAG_MESSAGE,
    TAG_PERTURB,
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
        with pytest.raises(DomainError):
            typicality_decode(np.zeros(4, dtype=np.int64), pair, 0.0, joint)

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
        with pytest.raises(DomainError):
            SimConfig.binary_symmetric(
                n=4, M=2, p1=0.1, p2=0.1, decoder="typicality", epsilon=-0.1
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

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = SimConfig.binary_symmetric(n=32, M=4, p1=0.1, p2=0.1, trials=150, master_seed=17)
        serial = run_experiment(cfg)
        monkeypatch.setenv("ASYMCAP_THREADS", "2")
        parallel = run_experiment(cfg)
        assert parallel == serial
        assert parallel.per_message_errors == serial.per_message_errors

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # Only the count is computed: no pool is started here.
        monkeypatch.setattr(codec.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("ASYMCAP_THREADS", "4096")
        assert codec._worker_count() == 2
        monkeypatch.setenv("ASYMCAP_THREADS", "1")
        assert codec._worker_count() == 1
        monkeypatch.setattr(codec.os, "cpu_count", lambda: None)
        monkeypatch.setenv("ASYMCAP_THREADS", "8")
        assert codec._worker_count() == 1

    def test_bogus_thread_setting_falls_back_to_serial(self, monkeypatch):
        cfg = SimConfig.binary_symmetric(n=16, M=2, p1=0.1, p2=0.1, trials=50, master_seed=1)
        base = run_experiment(cfg)
        monkeypatch.setenv("ASYMCAP_THREADS", "many")
        assert run_experiment(cfg) == base

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
