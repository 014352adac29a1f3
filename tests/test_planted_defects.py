"""Planted defects: each case patches one plausible defect into the library
with monkeypatch, runs the cheapest gate meant to catch it, and requires the
gate to fail.  A gate that no plausible defect can fail protects nothing.

The smallest defects the sampled gates catch at the defaults, as TV
distances: 3.53e-3 for the pair law (10^6 samples), 8.52e-3 for the symbol
law, so a bias of 8.5e-3 in p(u), and 0.0128 for a neighbour-pair law, so a
correlation |r| of 0.0257 between neighbours.  Each is caught about half
the time at its gate and almost always 3 sigma beyond it: a p(u) bias of
1.3e-2.  A bias of 0.006 in p(u), as p(x) = (0.49, 0.51) gives, passes."""

import math

import numpy as np
import pytest

import asymcap.capacity
import asymcap.codec
import asymcap.info
import asymcap.rng
import asymcap.verify
from asymcap.capacity import SolverOptions
from asymcap.codec import CodebookPair
from asymcap.info import Pmf, TransitionMatrix
from asymcap.rng import TAG_PERTURB
from asymcap.verify import IDENTITY_CHECKS, IDENTITY_CHUNK, run_verification
from gates import (COLLISION_GATE_CASES, PORTABILITY_KERNELS, check_collision_counts,
                   check_default_restarts_reach_the_maximum, check_nan_residual_fails_verify,
                   check_pinned_outputs_match, check_top_draw_skips_zero_mass, criterion_8,
                   kernel_skip_reason, mutant)
import test_capacity
import test_codec
from test_codec import SHARED_COUNT_CASES, check_golden_report, check_shared_counts


def _check(name, samples=10**5):
    rep = run_verification(grid_step=0.5, samples=samples)
    return {c.name: c for c in rep.checks}[name], rep


def test_factorization_fails_when_channel_noise_reads_the_perturbation_stream(monkeypatch):
    # given x, the sampled u and y then test one uniform and are dependent
    monkeypatch.setattr(asymcap.verify, "TAG_CHANNEL", TAG_PERTURB)
    check, _ = _check("pairwise_factorization_tv")
    assert not check.passed
    # the gate is 0.0112 at 10^5 samples and correct code reads about half
    # of it, so the failure must stand well clear of it
    assert check.max_residual > 10 * check.threshold


def _edit_codebooks(monkeypatch, edit):
    real = asymcap.verify.generate_codebooks

    def patched(M, n, px, pux, seed):
        pair = real(M, n, px, pux, seed)
        return CodebookPair(pair.cx, edit(pair.cu), seed)

    monkeypatch.setattr(asymcap.verify, "generate_codebooks", patched)


@pytest.mark.parametrize("edit", [lambda cu: np.repeat(cu[::2], 2, axis=0),
                                  lambda cu: np.repeat(cu[:, ::2], 2, axis=1)],
                         ids=["rows", "columns"])
def test_correlation_fails_when_neighbours_repeat(monkeypatch, edit):
    # rows (or columns) 2i and 2i + 1 are one draw: each disjoint pair in
    # that direction reads (a, a), at TV 0.5 from p(u) x p(u) = 1/4 per cell
    _edit_codebooks(monkeypatch, edit)
    check, rep = _check("codebook_cell_correlation")
    assert not check.passed
    assert check.max_residual == pytest.approx(0.5, abs=1e-12)
    assert check.threshold == pytest.approx(0.0128, abs=1e-4)
    # each symbol still has law p(u), so only the correlation gate sees it
    [freq] = [c for c in rep.checks if c.name == "codebook_symbol_frequency"]
    assert freq.passed


@pytest.mark.parametrize("biased", [
    {"px": Pmf([0.46, 0.54])},  # p(u) biased by 0.6 * 0.04 = 0.024
    {"pux": TransitionMatrix([[0.8, 0.2], [0.25, 0.75]])},  # p(u = 0) = 0.525
], ids=["input", "perturbation"])
def test_frequency_fails_when_the_codebook_law_is_biased(monkeypatch, biased):
    # the codebook is drawn from a law the check does not expect
    real = asymcap.verify.generate_codebooks

    def patched(M, n, px, pux, seed):
        return real(M, n, biased.get("px", px), biased.get("pux", pux), seed)

    monkeypatch.setattr(asymcap.verify, "generate_codebooks", patched)
    check, _ = _check("codebook_symbol_frequency")
    assert not check.passed
    assert check.max_residual > 2 * check.threshold


@pytest.mark.parametrize("factor", [math.log(2.0), 1.0 + 1e-9], ids=["nats", "scaled"])
def test_identities_fail_when_the_entropy_kernel_is_off(monkeypatch, factor):
    # every kernel entropy is off by one factor; binary_entropy keeps its own
    # closed form, so the identities that compare against it, such as
    # entropy_v_given_x and mutual_info_balance, see the defect
    real = asymcap.info._entropy_bits

    def patched(arr):
        return real(arr) * factor

    for module in (asymcap.info, asymcap.verify):
        monkeypatch.setattr(module, "_entropy_bits", patched)
    rep = run_verification(grid_step=0.5, samples=10**4)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"rate_loss_decomposition", "mutual_info_balance", "entropy_v_given_x",
                      "entropy_u_given_xv", "entropy_y_given_xv", "entropy_v_given_uy"}


def _fails(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def test_shared_counts_fail_when_a_derived_column_reads_the_output(monkeypatch):
    # the cells (u, ny - 1) derived from the output's count of ny - 1 where
    # the row's count of u belongs
    real = asymcap.codec._shared_counts

    def patched(cu, nu, ny):
        counts = real(cu, nu, ny)

        def wrong(y):
            table = counts(y).reshape(nu, ny, y.shape[0], -1)
            output_last = (y == ny - 1).sum(axis=1)[:, None]
            table[:-1, -1] = output_last - table[:-1, :-1].sum(axis=1)
            return table.reshape(nu * ny, y.shape[0], -1)

        return wrong

    monkeypatch.setattr(asymcap.codec, "_shared_counts", patched)
    failed = [case for case in SHARED_COUNT_CASES if _fails(check_shared_counts, case)]
    assert 41 in failed  # (nu, ny) = (3, 1): every row would count n of u
    assert len(failed) > 20


_FIXED_GOLDENS = ["fixed_map_n37_M3", "fixed_map_n12_M1024", "fixed_map_n32_M4096",
                  "fixed_typ_n64_M8", "general_fixed_map"]


def test_fixed_goldens_fail_when_float32_tables_score_in_float32(monkeypatch):
    # counts * lv without a dtype, under numpy 1's value-based casting: the
    # products of a float32 table, and so its scores, stay in float32
    def float32_scores(columns, logvals):
        total = 0.0
        for counts, lv in zip(columns, logvals):
            dtype = np.result_type(counts.dtype, np.float32)
            term = (np.where(counts > 0, -np.inf, 0.0) if lv == -np.inf
                    else np.multiply(counts, lv, dtype=dtype))
            total = np.add(total, term, out=term)
        return total

    monkeypatch.setattr(asymcap.codec, "_count_scores", float32_scores)
    failed = [name for name in _FIXED_GOLDENS if _fails(check_golden_report, name)]
    # the three fixed BSC MAP goldens, mc_wide's fixed op among them; the
    # typicality and ternary goldens happen to keep their decisions
    assert failed == ["fixed_map_n37_M3", "fixed_map_n12_M1024", "fixed_map_n32_M4096"]


def _highest_index_rule(pyu):
    with np.errstate(divide="ignore"):
        logp = np.log(pyu.matrix).ravel()

    def decide(counts):
        scores = asymcap.codec._count_scores(counts, logp)[..., ::-1]
        return scores.shape[-1] - np.argmax(scores, axis=-1)

    return decide


@pytest.mark.parametrize("case", COLLISION_GATE_CASES[:2], ids=["m4", "m8"])
def test_collision_gate_fails_when_ties_go_to_the_highest_index(monkeypatch, case):
    monkeypatch.setattr(asymcap.codec, "_map_rule", _highest_index_rule)
    # collision's printed lambda_max does not see it
    assert asymcap.codec.collision_experiment(*case) == 1.0
    with pytest.raises(AssertionError):
        check_collision_counts(*case)


def test_criterion_8_fails_when_ties_go_to_the_highest_index(monkeypatch):
    monkeypatch.setattr(asymcap.codec, "_map_rule", _highest_index_rule)
    ok, observed = criterion_8()
    assert not ok
    # message 1 is never decoded: every one of its sends is an error
    assert all(errors == sends for _, errors, sends in observed.values())


def test_lost_restart_fails_the_restart_gate(monkeypatch):
    with pytest.raises(AssertionError):
        check_default_restarts_reach_the_maximum(SolverOptions(restarts=7))
    # the ascent runs every start but the last: starts[:-1]
    real = asymcap.capacity._ascend
    monkeypatch.setattr(asymcap.capacity, "_ascend", lambda p, *args: real(p[:-1], *args))
    with pytest.raises(AssertionError):
        check_default_restarts_reach_the_maximum()


def test_sequential_oracle_fails_when_an_accepted_row_keeps_its_old_log_ratios(monkeypatch):
    # _ascend carries (p, q, logs, j0) from an accepted trial; this one
    # leaves logs behind, so the next gradient is the previous point's
    real = asymcap.capacity._carry

    def stale(kept, rows, new, idx):
        real(kept[:2] + kept[3:], rows, new[:2] + new[3:], idx)

    monkeypatch.setattr(asymcap.capacity, "_carry", stale)
    for name in ["nx2_a", "nx4_a"]:  # one path off the boundary, one on it
        build, kw = test_capacity.GOLDEN_CASES[name]
        with pytest.raises(AssertionError):
            test_capacity.TestSequentialOracle._check(*build(), SolverOptions(**kw), seed=0)


def test_gap_definition_fails_when_the_ascent_returns_the_previous_pass_gap(monkeypatch):
    # test_capacity's TestResidual::test_is_the_frank_wolfe_gap.  The stop
    # rule still reads each pass's own gap, so every path and value holds;
    # the stale gap is larger than the final one, so the erasure bound,
    # shortfall <= residual, still passes.
    stale = mutant(asymcap.capacity, "_ascend", "return p, j0, steps, gap",
                   "return p, j0, steps, last if it else gap\n        last = gap")
    monkeypatch.setattr(asymcap.capacity, "_ascend", stale)
    with pytest.raises(AssertionError):
        test_capacity.TestResidual.check_gap_definition(range(8))


def test_top_draw_gate_fails_when_the_cdf_is_uncapped(monkeypatch):
    # test_rng's TestTopDrawNeverHitsZeroMass::test_sample_pmf
    monkeypatch.setattr(asymcap.rng, "capped_cdf",
                        lambda probs: np.cumsum(np.asarray(probs, dtype=float), axis=-1))
    with pytest.raises(AssertionError):
        check_top_draw_skips_zero_mass()


def test_nan_gate_fails_when_the_worst_residual_drops_nan(monkeypatch, tmp_path):
    # test_cli's TestVerify::test_nan_residual_fails_the_run: the builtin
    # max(w, nan) keeps w, so a NaN residual reads as 0 and passes
    def max_fold(grid):
        p1, p2 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        worst = [0.0] * len(IDENTITY_CHECKS)
        for i in range(0, p1.size, IDENTITY_CHUNK):
            res = asymcap.verify.identity_residuals(p1[i:i + IDENTITY_CHUNK],
                                                    p2[i:i + IDENTITY_CHUNK])
            worst = [max(w, float(np.max(res[name]))) for w, name in zip(worst, IDENTITY_CHECKS)]
        return worst

    monkeypatch.setattr(asymcap.verify, "_worst_identities", max_fold)
    with pytest.raises(AssertionError):
        check_nan_residual_fails_verify(tmp_path / "rep.json")


def test_diagonal_gate_fails_when_short_segments_drop_their_points(monkeypatch):
    # test_capacity's TestGridPruning::test_maximum_inside_a_short_segment:
    # bisection that drops a three-point segment with its middle point still
    # unprobed can drop the line that holds the maximum.  The 140 pruning
    # cases, the interior-maximum cases and the workload digests all miss
    # this off-by-one.
    monkeypatch.setattr(asymcap.capacity, "_live_lines",
                        mutant(asymcap.capacity, "_live_lines", "i1 - i0 > 1", "i1 - i0 > 2"))
    with pytest.raises(AssertionError):
        test_capacity.TestGridPruning.check_diagonal_pairs(range(64))


@pytest.mark.parametrize("slope", ["0.0 * _mix(", "_mix("], ids=["zeroed", "negated"])
def test_bound_gate_fails_when_the_tangent_term_is_off(monkeypatch, slope):
    # test_capacity's TestGridPruning::test_bound_covers_its_segment.  The
    # pruning cases, test_capacity, the acceptance criteria, the bench
    # contract and the CLI tests all pass with g's slope zeroed or negated.
    monkeypatch.setattr(asymcap.capacity, "_dc_parts",
                        mutant(asymcap.capacity, "_dc_parts", "slope = -_mix(", f"slope = {slope}"))
    with pytest.raises(AssertionError):
        test_capacity.TestGridPruning.check_bound_covers_segments(range(100))


def test_collision_gate_fails_when_the_colliders_keep_their_rows(monkeypatch):
    # collision_experiment without its overwrite cu[:m_collide] = cu[0]:
    # each collider decodes from its own row, so none errs on every send
    dropped = mutant(asymcap.codec, "collision_experiment", "cu[:m_collide] = cu[0]", "pass")
    for module in (asymcap.codec, test_codec):
        monkeypatch.setattr(module, "collision_experiment", dropped)
    with pytest.raises(AssertionError):
        test_codec.TestCollisionExperiment().test_full_collision_pins_worst_rate_to_one()


def test_dead_input_gates_fail_when_any_nonzero_cell_skips_the_sign_rule(monkeypatch):
    # _dead_inputs returning the all-False mask on q.any() instead of
    # q.all(): the confuser's third input is no longer held at 0
    real = asymcap.capacity._dead_inputs

    def early(P, q, a, nu, ny):
        return np.zeros(P.shape, dtype=bool) if q.any() else real(P, q, a, nu, ny)

    monkeypatch.setattr(asymcap.capacity, "_dead_inputs", early)
    optimize = test_capacity.TestOptimize()
    with pytest.raises(AssertionError):
        optimize.test_dead_input_has_minus_infinite_derivative(optimize._CONFUSER, True)
    with pytest.raises(AssertionError):
        test_capacity.TestOptimizeGolden().test_bit_identical("nx3_zeros")


def test_portability_gate_fails_when_the_product_rule_calls_blas():
    # test_portability's gate with info._mix as P @ a, in process and in
    # the children: the sum order is then the BLAS kernel's.  On an AVX-512
    # host gemm rounds these products alike under OpenBLAS's SkylakeX and
    # Haswell kernels, so the Nehalem child is the one that differs.
    kernels = [k for k in PORTABILITY_KERNELS if kernel_skip_reason(k) is None]
    if not kernels:
        pytest.skip(kernel_skip_reason(next(iter(PORTABILITY_KERNELS))))
    with pytest.raises(AssertionError):
        for kernel in kernels:
            check_pinned_outputs_match(kernel, mix="blas_mix")
