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

import asymcap.info
import asymcap.verify
from asymcap.codec import CodebookPair
from asymcap.info import Pmf, TransitionMatrix
from asymcap.rng import TAG_PERTURB
from asymcap.verify import run_verification


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
