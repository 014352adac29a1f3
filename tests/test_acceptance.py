"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

Budgets are asserted where a criterion states one.  Statistical criteria
use fixed seeds, so every run reproduces the same numbers.
"""

import json
import math
import sys
import time

import numpy as np

from asymcap.capacity import (
    capacity_closed_form_bsc,
    capacity_grid,
    capacity_optimize,
    input_mutual_information,
    mutual_information_gradient,
)
from asymcap.cli import main
from asymcap.codec import SimConfig, run_experiment
from asymcap.info import TransitionMatrix, bsc
from asymcap.rng import TAG_SWEEP, derive_seed
from asymcap.verify import (
    CONTROL_THRESHOLD,
    IDENTITY_THRESHOLD,
    _tv_threshold,
    codebook_iid_zscores,
    corrupted_joint_violation,
    default_grid,
    identity_residuals,
    sampled_pair_tv,
)

from gates import criterion_8


def _stochastic(rng, rows, cols):
    m = rng.random((rows, cols)) + 0.02
    return TransitionMatrix(m / m.sum(axis=1, keepdims=True))


def _wald_sigma(p, trials):
    return math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def test_criterion_1_closed_form_vs_numeric(acceptance):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 0.5, 11)
    worst_cap = 0.0
    worst_px = 0.0
    for p1 in grid:
        for p2 in grid:
            res = capacity_optimize(bsc(p1), bsc(p2))
            closed = capacity_closed_form_bsc(p1, p2).capacity
            worst_cap = max(worst_cap, abs(res.capacity - closed))
            worst_px = max(worst_px, np.abs(res.argmax_px - 0.5).max())
    elapsed = time.perf_counter() - t0
    ok = worst_cap < 1e-5 and worst_px < 1e-3 and elapsed < 30.0
    acceptance(
        1,
        ok,
        "numeric capacity matches the closed form on the 11x11 lattice "
        f"(max capacity dev {worst_cap:.2e}, max maximizer dev {worst_px:.2e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_2_grid_oracle_agreement(acceptance):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        nx = 2 if seed < 25 else 3
        pyx = _stochastic(rng, nx, int(rng.integers(2, 4)))
        pux = _stochastic(rng, nx, int(rng.integers(2, 4)))
        opt = capacity_optimize(pyx, pux)
        ref = capacity_grid(pyx, pux, 1e-3)
        worst = max(worst, abs(opt.capacity - ref.capacity))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and elapsed < 120.0
    acceptance(
        2,
        ok,
        "gradient solver within 2e-3 of the lattice oracle on 50 seeded "
        f"instances (worst dev {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_gradient_check(acceptance):
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        nx = int(rng.integers(2, 5))
        pyx = _stochastic(rng, nx, int(rng.integers(2, 5)))
        pux = _stochastic(rng, nx, int(rng.integers(2, 5)))
        w = rng.random(nx) + 0.1
        p = w / w.sum()
        g = mutual_information_gradient(p, pyx, pux)
        fd = np.zeros(nx)
        for i in range(nx):
            e = np.zeros(nx)
            e[i] = h
            fd[i] = (
                input_mutual_information(p + e, pyx, pux)
                - input_mutual_information(p - e, pyx, pux)
            ) / (2 * h)
        worst = max(worst, float(np.abs(g - fd).max() / np.abs(fd).max()))
    ok = worst < 1e-4
    acceptance(
        3,
        ok,
        "analytic gradient matches central differences on 20 seeded "
        f"instances (worst relative error {worst:.2e})",
    )


def _worst_identity_residual() -> float:
    """Largest residual of every identity over the meshed default grid, in
    one call; np.max keeps a NaN, which then fails the threshold."""
    p1, p2 = np.meshgrid(default_grid(), default_grid(), indexing="ij")
    return float(np.max(list(identity_residuals(p1, p2).values())))


def test_criterion_4_entropy_identity_suite(acceptance):
    t0 = time.perf_counter()
    worst = _worst_identity_residual()
    control = corrupted_joint_violation(0.1, 0.2)
    elapsed = time.perf_counter() - t0
    ok = worst < IDENTITY_THRESHOLD and control > CONTROL_THRESHOLD and elapsed < 10.0
    acceptance(
        4,
        ok,
        "all structural identities hold across the default grid and the "
        f"corrupted control fails (worst residual {worst:.2e}, control "
        f"violation {control:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_4_fold_keeps_a_nan_residual(monkeypatch):
    real, grid = identity_residuals, default_grid()

    def nan_at_one_point(p1, p2):
        res = real(p1, p2)
        res["entropy_v_given_x"] = np.where((p1 == grid[2]) & (p2 == grid[3]), np.nan,
                                            res["entropy_v_given_x"])
        return res

    monkeypatch.setattr(sys.modules[__name__], "identity_residuals", nan_at_one_point)
    worst = _worst_identity_residual()
    assert math.isnan(worst) and not worst < IDENTITY_THRESHOLD


def test_criterion_5_empirical_factorization(acceptance):
    t0 = time.perf_counter()
    tv = sampled_pair_tv(0.1, 0.2, 1_000_000, 0)
    freq, corr = codebook_iid_zscores(0.2, 200, 500, 0)
    elapsed = time.perf_counter() - t0
    gates = _tv_threshold(16, 1_000_000), _tv_threshold(2, 100_000), _tv_threshold(4, 50_000)
    ok = all(r <= g for r, g in zip((tv, freq, corr), gates)) and elapsed < 60.0
    acceptance(
        5,
        ok,
        f"pairwise factorization TV {tv:.2e} at 1e6 samples; codebook "
        f"frequency TV {freq:.2e} and correlation TV {corr:.2e}; gates "
        f"{gates[0]:.2e}, {gates[1]:.2e}, {gates[2]:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_6_degenerate_channels(acceptance):
    blind = run_experiment(
        SimConfig.binary_symmetric(n=16, M=16, p1=0.1, p2=0.5, trials=2000, master_seed=9)
    )
    target = 15.0 / 16.0
    dev = abs(blind.pe_hat - target)
    band = 3.0 * _wald_sigma(target, 2000)

    clean = run_experiment(
        SimConfig.binary_symmetric(n=64, M=16, p1=0.0, p2=0.0, trials=2000, master_seed=0)
    )
    ok = dev < band and clean.error_count == 0 and clean.pe_hat == 0.0
    acceptance(
        6,
        ok,
        f"independent perturbation forces guessing (pe {blind.pe_hat:.4f} vs "
        f"15/16 within {band:.4f}); noiseless run decodes all 2000 trials "
        f"exactly (errors {clean.error_count})",
    )


def test_criterion_7_achievability_converse_trends(acceptance):
    t0 = time.perf_counter()
    trials = 10_000

    def pe_at(n, m, seed):
        cfg = SimConfig.binary_symmetric(
            n=n, M=m, p1=0.05, p2=0.05, trials=trials, master_seed=seed
        )
        return run_experiment(cfg).pe_hat

    pe_a = [pe_at(n, 16, derive_seed(700, i, TAG_SWEEP))
            for i, n in enumerate((16, 32, 64, 128))]
    down_ok = all(
        pe_a[i + 1] <= pe_a[i] + 2.0 * math.hypot(
            _wald_sigma(pe_a[i], trials), _wald_sigma(pe_a[i + 1], trials)
        )
        for i in range(3)
    )

    pe_b = [pe_at(16, m, derive_seed(701, i, TAG_SWEEP))
            for i, m in enumerate((2, 8, 64, 1024))]
    up_ok = all(
        pe_b[i + 1] >= pe_b[i] - 2.0 * math.hypot(
            _wald_sigma(pe_b[i], trials), _wald_sigma(pe_b[i + 1], trials)
        )
        for i in range(3)
    )

    pe_c = pe_at(64, 4, derive_seed(702, 0, TAG_SWEEP))
    elapsed = time.perf_counter() - t0
    ok = down_ok and up_ok and pe_c < 0.05 and elapsed < 300.0
    acceptance(
        7,
        ok,
        f"pe nonincreasing in n {pe_a}, nondecreasing in M {pe_b}, and "
        f"{pe_c:.4f} < 0.05 far below capacity ({elapsed:.1f}s)",
    )


def test_criterion_8_collision_bound(acceptance):
    ok, observed = criterion_8()
    acceptance(
        8,
        ok,
        "worst collision error rate beats 1 - 1/m - 3 sigma, and of the colliders only "
        "message 1 is ever decoded, for m in {2, 4, 8} (observed m: (lambda_max, message 1 "
        f"errors, sends) {observed})",
    )


def test_criterion_9_cli_determinism(acceptance, capsys, tmp_path):
    def run(*argv):
        rc = main(list(argv))
        out = capsys.readouterr().out
        assert rc == 0, f"{argv} exited {rc}"
        return out

    ok = True

    # file-writing commands: byte identity of the artifacts
    for name, argv in {
        "cap.csv": ("sweep", "--mode", "capacity", "--grid-step", "0.1"),
        "sim.csv": ("sweep", "--mode", "simulation", "--n-list", "8,16",
                    "--m-list", "2,4", "--p1", "0.1", "--p2", "0.1",
                    "--trials", "50", "--seed", "4"),
        "rep.json": ("verify",),
    }.items():
        a, b = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
        run(*argv, "--out", str(a))
        run(*argv, "--out", str(b))
        ok = ok and a.read_bytes() == b.read_bytes()

    # stdout-only commands: identical text, modulo the timing field
    ch = tmp_path / "ch.txt"
    ch.write_text("0.9 0.1\n0.1 0.9\n")
    pe = tmp_path / "pe.txt"
    pe.write_text("1 0\n0 1\n")
    for argv in (
        ("capacity", "--p1", "0.1", "--p2", "0.2"),
        ("capacity-general", "--channel", str(ch), "--perturb", str(pe)),
        ("collision", "--messages", "8", "--collide", "2", "--n", "16",
         "--p1", "0.1", "--p2", "0.1", "--trials", "200"),
    ):
        ok = ok and run(*argv) == run(*argv)

    sim_argv = ("simulate", "--n", "16", "--messages", "4", "--p1", "0.1",
                "--p2", "0.1", "--trials", "100", "--seed", "2")
    reports = []
    for _ in range(2):
        lines = run(*sim_argv).splitlines()
        rep = json.loads(lines[1])
        rep.pop("elapsed_seconds")
        reports.append((lines[0], rep))
    ok = ok and reports[0] == reports[1]

    acceptance(
        9,
        ok,
        "re-running every subcommand with identical flags reproduces "
        "output files byte for byte and stdout verbatim",
    )
