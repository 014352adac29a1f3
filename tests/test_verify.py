"""Structural identity checks and sampled-distribution diagnostics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import asymcap.verify
from asymcap.codec import generate_codebooks
from asymcap.info import (
    DomainError, Pmf, _markov_deviation, _mutual_information, _xuyv_table, binary_entropy, bsc,
    build_joint_uy, build_joint_xuyv, check_markov, composite_crossover,
)
from asymcap.rng import (
    TAG_CHANNEL, TAG_CODEBOOK, TAG_PERTURB, capped_cdf, derive_seed, sample_pmf, sample_rows,
    stream,
)
from asymcap.verify import (
    CONTROL_THRESHOLD,
    FALSE_ALARM,
    IDENTITY_CHECKS,
    IDENTITY_THRESHOLD,
    MAX_SAMPLES,
    PAIR_CHUNK,
    CheckResult,
    VerificationReport,
    _tv,
    _tv_threshold,
    codebook_iid_zscores,
    corrupted_joint_violation,
    default_grid,
    identity_residuals,
    run_verification,
    sampled_pair_tv,
)

import single_table


class TestIdentityResiduals:
    CORNERS = [(0.0, 0.0), (0.5, 0.5), (0.0, 0.5), (0.5, 0.0)]
    INTERIOR = [(0.1, 0.2), (0.3, 0.05), (0.25, 0.25), (0.02, 0.48)]

    @pytest.mark.parametrize("p1,p2", CORNERS + INTERIOR)
    def test_all_identities_hold_exactly(self, p1, p2):
        res = identity_residuals(p1, p2)
        assert set(res) == set(IDENTITY_CHECKS)
        for name, val in res.items():
            assert val < IDENTITY_THRESHOLD, f"{name} residual {val} at ({p1},{p2})"

    def test_residuals_are_plain_floats(self):
        for val in identity_residuals(0.1, 0.2).values():
            assert type(val) is float

    def test_check_names_are_stable(self):
        assert IDENTITY_CHECKS == (
            "markov_u_x_y",
            "markov_u_v_y",
            "markov_x_u_v",
            "markov_x_y_v",
            "rate_loss_decomposition",
            "mutual_info_balance",
            "entropy_v_given_x",
            "entropy_u_given_xv",
            "entropy_y_given_xv",
            "entropy_v_given_uy",
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            identity_residuals(-0.1, 0.2)


def _one_point_residuals(p1, p2):
    """identity_residuals at one point, composed from the single-table
    reference kernels: the oracle for the stacked grid."""
    j4 = single_table.clean_mass(_xuyv_table(np.array([0.5, 0.5]), p1, p2))  # axes (x, u, y, v)
    hq = binary_entropy(composite_crossover(p1, p2))
    h1, h2 = binary_entropy(p1), binary_entropy(p2)
    defect = h1 + h2 - hq

    def h(target, given):
        return single_table.conditional_entropy(j4, target, given)

    def m(axes):
        return single_table.marginal(j4, axes)

    i_uy = float(_mutual_information(m((1, 2))))
    i_xy = float(_mutual_information(m((0, 2))))
    i_xy_given_u = h((0,), (1,)) + h((2,), (1,)) - h((0, 2), (1,))
    h_v = single_table.entropy(m((3,)))
    h_v_uy = h((3,), (1, 2))
    return {
        "markov_u_x_y": float(_markov_deviation(m((1, 0, 2)))),
        "markov_u_v_y": float(_markov_deviation(m((1, 3, 2)))),
        "markov_x_u_v": float(_markov_deviation(m((0, 1, 3)))),
        "markov_x_y_v": float(_markov_deviation(m((0, 2, 3)))),
        "rate_loss_decomposition": abs(i_uy - (i_xy - i_xy_given_u)),
        "mutual_info_balance": abs(i_uy - (h_v + h_v_uy - h1 - h2)),
        "entropy_v_given_x": abs(h((3,), (0,)) - hq),
        "entropy_u_given_xv": abs(h((1,), (0, 3)) - defect),
        "entropy_y_given_xv": abs(h((2,), (0, 3)) - defect),
        "entropy_v_given_uy": abs(h_v_uy - defect),
    }


class TestStackedGrid:
    def test_matches_one_point_oracle_bit_for_bit(self):
        # the rows with p1 = 0 or p2 = 0 hold zero cells, which the entropy
        # sums add as 0 in place, in the stack as in the one-point oracle
        grid = default_grid(0.02)
        assert grid[0] == 0.0
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        got = identity_residuals(p1, p2)
        assert all(got[name].shape == p1.shape for name in IDENTITY_CHECKS)
        moved = [(a, b, name) for i, a in enumerate(grid) for k, b in enumerate(grid)
                 for name, want in _one_point_residuals(a, b).items()
                 if got[name][i, k].hex() != want.hex()]
        assert moved == []

    def test_scalars_and_broadcasting(self):
        row = identity_residuals(0.1, np.array([0.0, 0.2, 0.5]))
        for k, p2 in enumerate((0.0, 0.2, 0.5)):
            want = _one_point_residuals(0.1, p2)
            assert {n: r[k].hex() for n, r in row.items()} == {
                n: w.hex() for n, w in want.items()}
            assert {n: r.hex() for n, r in identity_residuals(0.1, p2).items()} == {
                n: w.hex() for n, w in want.items()}

    def test_empty_arrays_give_empty_residuals(self):
        res = identity_residuals(np.array([]), 0.1)
        assert all(res[name].shape == (0,) for name in IDENTITY_CHECKS)

    def test_domain_checked_for_arrays(self):
        with pytest.raises(DomainError, match="p2=1.5 outside"):
            identity_residuals(0.1, np.array([0.2, 1.5]))

    def test_chunks_fold_to_the_same_bits(self, monkeypatch):
        grid = default_grid(0.05)  # one chunk by default, as is the 1/16 grid
        assert grid.size ** 2 <= asymcap.verify.IDENTITY_CHUNK
        whole = [r.hex() for r in asymcap.verify._worst_identities(grid)]
        monkeypatch.setattr(asymcap.verify, "IDENTITY_CHUNK", 7)  # 121 points: 17 full chunks and 2
        assert [r.hex() for r in asymcap.verify._worst_identities(grid)] == whole


class TestUniformInputScoping:
    def test_skewed_source_breaks_composite_chain(self):
        # the u <-> v <-> y chain is a property of the balanced source; a
        # skewed source violates it by a wide margin, which is exactly why
        # identity_residuals pins the source to uniform
        j4 = build_joint_xuyv(Pmf([0.8, 0.2]), 0.1, 0.2)
        assert check_markov(j4.marginal((1, 3, 2))) > 1e-3

    def test_uniform_source_satisfies_composite_chain(self):
        j4 = build_joint_xuyv(Pmf.uniform(2), 0.1, 0.2)
        assert check_markov(j4.marginal((1, 3, 2))) < IDENTITY_THRESHOLD


class TestCorruptedControl:
    def test_bumped_joint_fails_the_exact_gate(self):
        v = corrupted_joint_violation(0.1, 0.2)
        assert v > CONTROL_THRESHOLD

    @pytest.mark.parametrize("p1,p2", [(0.05, 0.05), (0.2, 0.3), (0.4, 0.1)])
    def test_control_fires_across_operating_points(self, p1, p2):
        assert corrupted_joint_violation(p1, p2) > CONTROL_THRESHOLD

    def test_larger_bump_larger_violation(self):
        small = corrupted_joint_violation(0.1, 0.2, bump=1e-4)
        large = corrupted_joint_violation(0.1, 0.2, bump=1e-2)
        assert large > small > 0.0


def one_shot_pair_tv(p1, p2, samples, seed):
    """sampled_pair_tv as one draw of every sample through sample_pmf and
    sample_rows: the reference the chunked mask counting must match bit for
    bit."""
    px, pyx, pux = Pmf.uniform(2), bsc(p1), bsc(p2)
    x = sample_pmf(stream(derive_seed(seed, 0, TAG_CODEBOOK)), px.probs, (samples, 2))
    u = sample_rows(stream(derive_seed(seed, 0, TAG_PERTURB)), pux.matrix, x)
    y = sample_rows(stream(derive_seed(seed, 0, TAG_CHANNEL)), pyx.matrix, x)
    single = build_joint_uy(px, pyx, pux).table
    nu, ny = single.shape
    product = np.einsum("ab,cd->abcd", single, single).ravel()
    idx = ((u[:, 0] * ny + y[:, 0]) * nu + u[:, 1]) * ny + y[:, 1]
    emp = np.bincount(idx, minlength=nu * ny * nu * ny) / samples
    return float(0.5 * np.abs(emp - product).sum())


class TestSampledPairTv:
    # 3 * PAIR_CHUNK + 5 ends on a short chunk after three full ones, so the
    # reused uniform buffer is refilled and then cut short
    @pytest.mark.parametrize("samples", [1, PAIR_CHUNK - 1, PAIR_CHUNK, PAIR_CHUNK + 1,
                                         2 * PAIR_CHUNK + 3, 3 * PAIR_CHUNK + 5])
    def test_chunk_edges_match_one_shot_draw(self, samples):
        got = sampled_pair_tv(0.1, 0.2, samples, 11)
        assert got.hex() == one_shot_pair_tv(0.1, 0.2, samples, 11).hex()

    # float.hex of sampled_pair_tv, pinned when it drew every sample at once
    PINNED = {
        (0.1, 0.2, 2_000_000, 12345): "0x1.4a0a0f4d7adb8p-10",
        (0.1, 0.2, 1_000_000, 0): "0x1.adea897635f20p-10",
        (0.05, 0.3, 123457, 7): "0x1.a463b7c70b5e2p-8",
        (0.1, 0.2, 1, 3): "0x1.b9e83e425aee8p-1",
        (0.1, 0.2, 65537, 9): "0x1.bafe4501bafc8p-9",
    }

    @pytest.mark.parametrize("args", list(PINNED), ids=str)
    def test_pinned_values(self, args):
        assert sampled_pair_tv(*args).hex() == self.PINNED[args]

    def test_memory_bounded_by_the_chunk(self):
        # drawing all 10^6 samples at once peaked at 78.9 MiB
        tracemalloc.start()
        try:
            sampled_pair_tv(0.1, 0.2, 1_000_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_below_threshold_at_default_sample_size(self):
        assert sampled_pair_tv(0.1, 0.2, 1_000_000, 0) <= _tv_threshold(16, 1_000_000)

    def test_deterministic(self):
        a = sampled_pair_tv(0.1, 0.2, 50_000, 7)
        b = sampled_pair_tv(0.1, 0.2, 50_000, 7)
        assert a == b

    def test_shrinks_with_more_samples(self):
        coarse = sampled_pair_tv(0.1, 0.2, 10_000, 3)
        fine = sampled_pair_tv(0.1, 0.2, 1_000_000, 3)
        assert fine < coarse

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            sampled_pair_tv(0.1, 0.2, 0, 0)

    def test_sample_count_capped_before_any_draw(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(asymcap.verify, "stream", never)
        with pytest.raises(DomainError, match=f"at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"):
            sampled_pair_tv(0.1, 0.2, MAX_SAMPLES + 1, 0)

    # 5e-324 and 1 - 2^-53 sit one ulp inside [0, 1]; with 0, 0.5 and 1 they
    # give thresholds that never hit (+inf), always hit (0) or hit almost
    # never or almost always
    EDGES = [0.0, 0.5, 1.0, 5e-324, 1 - 2**-53, 0.1, 0.3]

    def test_edges_reach_the_capped_thresholds(self):
        assert capped_cdf(bsc(5e-324).matrix)[0].tolist() == [math.inf, math.inf]
        assert capped_cdf(bsc(1.0).matrix)[0].tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("seed", [4, 13])
    @pytest.mark.parametrize("samples", [1, PAIR_CHUNK + 1])
    @pytest.mark.parametrize("p2", EDGES)
    @pytest.mark.parametrize("p1", EDGES)
    def test_edge_crossovers_match_one_shot_draw(self, p1, p2, samples, seed):
        got = sampled_pair_tv(p1, p2, samples, seed)
        assert got.hex() == one_shot_pair_tv(p1, p2, samples, seed).hex()


def reference_codebook_tvs(p2, M, n, seed):
    """codebook_iid_zscores' two TVs from the generated cu, counted cell by
    cell on the boolean law of each symbol and pair."""
    cu = generate_codebooks(M, n, Pmf.uniform(2), bsc(p2), derive_seed(seed, 1)).cu
    pu = np.array([0.5, 0.5]) @ bsc(p2).matrix
    freq = 0.5 * sum(abs(np.mean(cu == u) - pu[u]) for u in (0, 1))
    corr = []
    for a, b in ((cu[:, :n - 1:2], cu[:, 1::2]), (cu[:M - 1:2], cu[1::2])):
        corr.append(0.5 * sum(abs(np.mean((a == i) & (b == j)) - pu[i] * pu[j])
                              for i in (0, 1) for j in (0, 1)))
    return freq, max(corr)


class TestCodebookIidZscores:
    def test_within_gates_at_default_shape(self):
        freq, corr = codebook_iid_zscores(0.2, 200, 500, 0)
        assert freq <= _tv_threshold(2, 200 * 500)
        assert corr <= _tv_threshold(4, 200 * 500 // 2)

    def test_returns_plain_floats(self):
        freq, corr = codebook_iid_zscores(0.2, 200, 500, 0)
        assert type(freq) is float
        assert type(corr) is float

    def test_deterministic(self):
        assert codebook_iid_zscores(0.1, 64, 64, 5) == codebook_iid_zscores(0.1, 64, 64, 5)

    # odd shapes leave out the last column or row of the disjoint pairs
    @pytest.mark.parametrize("p2, M, n, seed", [(0.2, 200, 500, 0), (0.1, 7, 9, 3),
                                                (0.35, 2, 2, 1), (0.0, 5, 4, 2)])
    def test_matches_cell_by_cell_reference(self, p2, M, n, seed):
        got = codebook_iid_zscores(p2, M, n, seed)
        assert got == pytest.approx(reference_codebook_tvs(p2, M, n, seed), abs=1e-15)

    @pytest.mark.parametrize("M, n", [(1, 8), (8, 1), (1, 1)])
    def test_fewer_than_two_rows_or_columns_rejected(self, M, n):
        with pytest.raises(DomainError, match="M and n must be at least 2"):
            codebook_iid_zscores(0.2, M, n, 0)

    def test_crossover_checked_before_the_shape(self):
        with pytest.raises(DomainError, match="p2=2.0 outside"):
            codebook_iid_zscores(2.0, 1, 8, 0)


class TestTvGate:
    def test_threshold_pinned(self):
        # 1/2 sqrt(2 (ln(2^k - 2) + ln 10^6) / n)
        for (k, n), eps in {(16, 10**6): 3.53e-3, (2, 10**5): 8.52e-3,
                            (4, 5 * 10**4): 1.28e-2}.items():
            exact = 0.5 * math.sqrt(2 * math.log((2**k - 2) / FALSE_ALARM) / n)
            assert _tv_threshold(k, n) == pytest.approx(exact, rel=1e-14)
            assert float(f"{_tv_threshold(k, n):.3g}") == eps
        assert FALSE_ALARM == 1e-6

    def test_no_false_alarm_under_the_multinomial_model(self):
        # the pair check's exact law at the sampling point, 16 cells; the
        # largest of 2000 TVs at 10^5 draws reads 0.73 of the gate
        single = build_joint_uy(Pmf.uniform(2), bsc(0.1), bsc(0.2)).table
        law = np.einsum("ab,cd->abcd", single, single).ravel()
        n = 10**5
        counts = np.random.default_rng(20260).multinomial(n, law, size=2000)
        tvs = [_tv(c, law) for c in counts]
        assert max(tvs) <= _tv_threshold(16, n)
        assert np.mean(tvs) > 0.1 * _tv_threshold(16, n)  # the model has noise


class TestCheckResult:
    def test_json_shape(self):
        r = CheckResult("demo", 1e-12, 1e-10, True)
        assert r.to_json_dict() == {
            "check": "demo",
            "max_residual": 1e-12,
            "threshold": 1e-10,
            "pass": True,
        }

    def test_coerces_numpy_scalars(self):
        r = CheckResult("demo", np.float64(0.5), np.float64(1.0), np.bool_(True))
        assert type(r.max_residual) is float
        assert type(r.passed) is bool


class TestVerificationReport:
    def test_pass_is_a_conjunction(self):
        good = CheckResult("a", 0.0, 1.0, True)
        bad = CheckResult("b", 2.0, 1.0, False)
        assert VerificationReport((good,)).passed
        assert not VerificationReport((good, bad)).passed

    def test_json_shape(self):
        # the run's config is the CLI's to echo; the report holds only checks
        rep = VerificationReport((CheckResult("a", 0.0, 1.0, True),))
        d = rep.to_json_dict()
        assert list(d.keys()) == ["checks", "pass"]
        assert d["pass"] is True
        assert d["checks"][0]["check"] == "a"


@pytest.fixture(scope="module")
def fast_report():
    # coarse grid and a small sample budget keep this a unit test; the TV
    # gate widens with the smaller budget, to 0.025 at 2e4 samples
    return run_verification(grid_step=0.25, samples=20_000, seed=0)


class TestRunVerification:
    def test_identity_and_control_checks_pass(self, fast_report):
        by_name = {c.name: c for c in fast_report.checks}
        for name in IDENTITY_CHECKS:
            assert by_name[name].passed
        assert by_name["corrupted_joint_control"].passed

    def test_every_family_reports_no_silent_skips(self, fast_report):
        names = [c.name for c in fast_report.checks]
        assert len(names) == len(set(names))
        for name in IDENTITY_CHECKS:
            assert name in names
        for extra in (
            "corrupted_joint_control",
            "pairwise_factorization_tv",
            "codebook_symbol_frequency",
            "codebook_cell_correlation",
        ):
            assert extra in names

    def test_config_echo_contents(self, fast_report):
        # each check carries its own threshold; grid step, samples and seed
        # are the CLI's to echo
        assert [f.name for f in dataclasses.fields(fast_report)] == ["checks"]
        thresholds = {c.name: c.threshold for c in fast_report.checks}
        assert thresholds == {
            **dict.fromkeys(IDENTITY_CHECKS, IDENTITY_THRESHOLD),
            "corrupted_joint_control": CONTROL_THRESHOLD,
            "pairwise_factorization_tv": _tv_threshold(16, 20_000),
            "codebook_symbol_frequency": _tv_threshold(2, 100_000),
            "codebook_cell_correlation": _tv_threshold(4, 50_000),
        }

    def test_samples_capped_before_any_check(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampling ran")

        monkeypatch.setattr(asymcap.verify, "sampled_pair_tv", never)
        with pytest.raises(DomainError, match="at most"):
            run_verification(grid_step=0.5, samples=asymcap.verify.MAX_SAMPLES + 1)

    def test_full_defaults_all_pass(self):
        rep = run_verification()
        assert rep.passed
        assert all(c.passed for c in rep.checks)

    def test_json_serializable(self, fast_report):
        import json

        json.dumps(fast_report.to_json_dict())


# Every check of run_verification at two configurations: (name, residual as
# float.hex, passed), pinned before the check families shared one guard.  The
# codebook residuals and the pair verdict were re-pinned when the sampled
# checks became TVs under gates that widen at small sample counts.
VERIFICATION_GOLDENS = {
    (0.25, 20_000, 5): [
        ("markov_u_x_y", "0x0.0p+0", True),
        ("markov_u_v_y", "0x0.0p+0", True),
        ("markov_x_u_v", "0x0.0p+0", True),
        ("markov_x_y_v", "0x0.0p+0", True),
        ("rate_loss_decomposition", "0x1.e000000000000p-52", True),
        ("mutual_info_balance", "0x1.2000000000000p-52", True),
        ("entropy_v_given_x", "0x1.0000000000000p-53", True),
        ("entropy_u_given_xv", "0x1.0000000000000p-53", True),
        ("entropy_y_given_xv", "0x1.0000000000000p-53", True),
        ("entropy_v_given_uy", "0x1.8000000000000p-52", True),
        ("corrupted_joint_control", "0x1.4e34c6ce64000p-15", True),
        ("pairwise_factorization_tv", "0x1.3c36113404eadp-7", True),
        ("codebook_symbol_frequency", "0x1.3fd0d0678c000p-10", True),
        ("codebook_cell_correlation", "0x1.0385c67dfe340p-8", True),
    ],
    (0.0625, 2_000, 1): [
        ("markov_u_x_y", "0x0.0p+0", True),
        ("markov_u_v_y", "0x0.0p+0", True),
        ("markov_x_u_v", "0x0.0p+0", True),
        ("markov_x_y_v", "0x0.0p+0", True),
        ("rate_loss_decomposition", "0x1.a000000000000p-51", True),
        ("mutual_info_balance", "0x1.5800000000000p-51", True),
        ("entropy_v_given_x", "0x1.8000000000000p-52", True),
        ("entropy_u_given_xv", "0x1.8000000000000p-51", True),
        ("entropy_y_given_xv", "0x1.8000000000000p-51", True),
        ("entropy_v_given_uy", "0x1.8000000000000p-51", True),
        ("corrupted_joint_control", "0x1.4e34c6ce64000p-15", True),
        ("pairwise_factorization_tv", "0x1.295e9e1b0899ep-5", True),
        ("codebook_symbol_frequency", "0x1.10a137f38c600p-12", True),
        ("codebook_cell_correlation", "0x1.797cc39ffd600p-9", True),
    ],
}


@pytest.mark.parametrize("args", list(VERIFICATION_GOLDENS), ids=str)
def test_verification_golden(args):
    rep = run_verification(*args)
    got = [(c.name, c.max_residual.hex(), c.passed) for c in rep.checks]
    assert got == VERIFICATION_GOLDENS[args]
    assert rep.passed is True


# Each check family, its checks in order with their thresholds at 1000
# samples, and the residual they carry when the family raises.
FAMILIES = {
    "identity_residuals": (dict.fromkeys(IDENTITY_CHECKS, IDENTITY_THRESHOLD), math.inf),
    "corrupted_joint_violation": ({"corrupted_joint_control": CONTROL_THRESHOLD}, 0.0),
    "sampled_pair_tv": ({"pairwise_factorization_tv": _tv_threshold(16, 1000)}, math.inf),
    "codebook_iid_zscores": ({"codebook_symbol_frequency": _tv_threshold(2, 100_000),
                              "codebook_cell_correlation": _tv_threshold(4, 50_000)},
                             math.inf),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_raising_family_fails_every_check_in_it(monkeypatch, family):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    args = (0.5, 1000, 3)
    baseline = run_verification(*args).checks
    monkeypatch.setattr(asymcap.verify, family, boom)
    rep = run_verification(*args)
    assert [c.name for c in rep.checks] == [c.name for c in baseline]
    thresholds, residual = FAMILIES[family]
    names = list(thresholds)
    failed = [c for c in rep.checks if c.name in names]
    assert [c.name for c in failed] == names
    for c in failed:
        assert (c.max_residual, c.threshold, c.passed) == (residual, thresholds[c.name], False)
    assert [c for c in rep.checks if c.name not in names] == [
        c for c in baseline if c.name not in names]
    assert rep.passed is False


def _nan_markov_at_quarter(real):
    def patched(p1, p2):
        # the grid arrives as arrays: NaN goes into the (0.25, 0.25) row
        res = real(p1, p2)
        at = (np.asarray(p1) == 0.25) & (np.asarray(p2) == 0.25)
        res["markov_u_x_y"] = np.where(at, math.nan, res["markov_u_x_y"])
        return res
    return patched


def _nan(real):
    return lambda *args: math.nan


def _nan_first_pair_tv(real):
    # NaN for the horizontal pairs only: the larger of the two TVs keeps it
    calls = []

    def patched(counts, law):
        if law.size == 4:
            calls.append(law)
            if len(calls) == 1:
                return math.nan
        return real(counts, law)
    return patched


# Per family: the verify attribute to replace, how to build the replacement
# from the original, and the one check whose residual turns NaN.
NAN_INJECTIONS = {
    "identity_residuals": ("identity_residuals", _nan_markov_at_quarter, "markov_u_x_y"),
    "corrupted_joint_violation": ("corrupted_joint_violation", _nan, "corrupted_joint_control"),
    "sampled_pair_tv": ("sampled_pair_tv", _nan, "pairwise_factorization_tv"),
    "codebook_iid_zscores": ("_tv", _nan_first_pair_tv, "codebook_cell_correlation"),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_nan_residual_fails_its_check(monkeypatch, family):
    attr, make, name = NAN_INJECTIONS[family]
    args = (0.25, 1000, 0)
    baseline = run_verification(*args).checks
    monkeypatch.setattr(asymcap.verify, attr, make(getattr(asymcap.verify, attr)))
    rep = run_verification(*args)
    thresholds, residual = FAMILIES[family]
    [check] = [c for c in rep.checks if c.name == name]
    assert (check.max_residual, check.threshold, check.passed) == (
        residual, thresholds[name], False)
    assert [c for c in rep.checks if c.name != name] == [
        c for c in baseline if c.name != name]
    assert rep.passed is False


class TestDefaultGrid:
    def test_covers_unit_interval_half(self):
        g = default_grid(0.1)
        np.testing.assert_allclose(g, np.linspace(0.0, 0.5, 6))

    def test_step_validated(self):
        with pytest.raises(DomainError):
            default_grid(0.0)
        with pytest.raises(DomainError):
            default_grid(0.7)
        for step in (0.3, 0.2, 0.49):  # would silently round to another step
            with pytest.raises(DomainError, match="does not divide 0.5"):
                default_grid(step)

    def test_points_per_axis_capped(self):
        assert len(default_grid(0.002)) == asymcap.verify.MAX_GRID_AXIS == 251
        for step in (0.001, 1e-320, 5e-324):  # 0.5 / step overflows for the last two
            with pytest.raises(DomainError, match="points per axis"):
                default_grid(step)

    @pytest.mark.parametrize("step, points", [(0.01, 51), (0.1, 6), (1 / 16, 9), (0.5, 2)])
    def test_steps_dividing_half_accepted_despite_rounding(self, step, points):
        g = default_grid(step)
        assert len(g) == points and g[-1] == 0.5
