"""Planted defects: each case patches one plausible defect into the library
with monkeypatch, runs the cheapest gate meant to catch it, and requires the
gate to fail.  A gate that no plausible defect can fail protects nothing."""

import asymcap.verify
from asymcap.rng import TAG_PERTURB
from asymcap.verify import run_verification


def test_factorization_fails_when_channel_noise_reads_the_perturbation_stream(monkeypatch):
    # given x, the sampled u and y then test one uniform and are dependent
    monkeypatch.setattr(asymcap.verify, "TAG_CHANNEL", TAG_PERTURB)
    rep = run_verification(grid_step=0.5, samples=10**5)
    [check] = [c for c in rep.checks if c.name == "pairwise_factorization_tv"]
    assert not check.passed
    # sampling noise alone reads about the threshold at 10^5 samples, so
    # the failure must stand well clear of it
    assert check.max_residual > 10 * check.threshold
