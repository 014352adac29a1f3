"""Gates that a test module and the planted defects both run.

Each check raises AssertionError when its gate fails, so a planted defect
shows that the gate bites by making the check raise.  Tests import these
from here rather than from one another.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from asymcap import codec, verify
from asymcap.capacity import capacity_optimize
from asymcap.cli import main
from asymcap.info import TransitionMatrix
from asymcap.rng import sample_pmf

# (M, m, n, p1, p2, trials, seed) cases for check_collision_counts
COLLISION_GATE_CASES = [(8, 4, 16, 0.1, 0.1, 400, 1), (8, 8, 16, 0.1, 0.1, 400, 2),
                        (24, 4, 16, 0.05, 0.05, 200, 3), (16, 2, 32, 0.1, 0.05, 100, 4)]


def collision_counts(M, m, n, p1, p2, trials, seed):
    """collision_experiment's lambda_max, with the per-message error and
    send counts of its one _trial_errors call."""
    real, runs = codec._trial_errors, []

    def capture(*args, **kw):
        runs.append(real(*args, **kw))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codec, "_trial_errors", capture)
        lam = codec.collision_experiment(M, m, n, p1, p2, trials, seed)
    [(errs, sent)] = runs
    return lam, errs, sent


def only_the_first_collider_decoded(errs, sent, m) -> bool:
    """Rows 1..m score alike, so the lowest index wins every tie among them:
    messages 2..m are never decoded, and message 1 is whenever it wins."""
    return bool(np.array_equal(errs[1:m], sent[1:m]) and errs[0] < sent[0])


def check_collision_counts(M, m, n, p1, p2, trials, seed):
    _, errs, sent = collision_counts(M, m, n, p1, p2, trials, seed)
    assert sent[:m].all() and not sent[m:].any()
    assert only_the_first_collider_decoded(errs, sent, m), (errs[:m], sent[:m])


def criterion_8(trials=3000):
    """Acceptance criterion 8 at M = 8, n = 16, p1 = p2 = 0.1, seed 1: for m
    in {2, 4, 8}, lambda_max is at least 1 - 1/m less 3 sigma, and only the
    first collider is ever decoded.  Returns (ok, {m: (lambda_max, errors of
    message 1, sends of message 1)})."""
    ok, observed = True, {}
    for m in (2, 4, 8):
        lam, errs, sent = collision_counts(8, m, 16, 0.1, 0.1, trials, 1)
        bound = 1.0 - 1.0 / m
        sigma = math.sqrt(bound * (1.0 - bound) / (trials // m))
        ok = ok and lam >= bound - 3.0 * sigma and only_the_first_collider_decoded(errs, sent, m)
        observed[m] = (lam, int(errs[0]), int(sent[0]))
    return ok, observed


def lost_restart_instance():
    """(pyx, pux), nx = 4, on which only the last of the eight default starts
    reaches the maximum: seven restarts stop at 0.19626783171."""
    rng = np.random.default_rng(746)
    nx, ny, nu = rng.integers(2, 6), rng.integers(2, 5), rng.integers(2, 5)
    w = rng.random((nx, ny)) ** 3 + 1e-3
    v = rng.random((nx, nu)) ** 3 + 1e-3
    return (TransitionMatrix(w / w.sum(axis=1, keepdims=True)),
            TransitionMatrix(v / v.sum(axis=1, keepdims=True)))


def check_default_restarts_reach_the_maximum(options=None):
    # 0.22314589332 at p(x) = (0.3819, 0.6181, 0, 0), as 20 and 1000 restarts give
    res = capacity_optimize(*lost_restart_instance(), options)
    assert res.capacity >= 0.2231458933 - 1e-9, res.capacity


class TopDraws:
    """Generator stub whose every uniform draw is 1 - 2**-53, the largest
    double below 1."""

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0**-53)


# Its cumulative sum ends at 1 - 2**-53, so the top draw passes every
# entry and an unclipped count lands on the zero-mass last symbol.
TRAILING_ZERO_PMF = np.array([0.23198402839841684, 0.554702073152752, 0.2133138984488311, 0.0])


def check_top_draw_skips_zero_mass():
    vals = sample_pmf(TopDraws(), TRAILING_ZERO_PMF, (2, 3))
    np.testing.assert_array_equal(vals, np.full((2, 3), 2))


def check_nan_residual_fails_verify(out_path):
    """verify with a NaN Markov residual at one grid point exits 1, and the
    check prints residual=inf."""
    real = verify.identity_residuals

    def nan_at_quarter(p1, p2):
        # the grid arrives as arrays: NaN goes into the (0.25, 0.25) row
        res = real(p1, p2)
        at = (np.asarray(p1) == 0.25) & (np.asarray(p2) == 0.25)
        res["markov_u_x_y"] = np.where(at, float("nan"), res["markov_u_x_y"])
        return res

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(verify, "identity_residuals", nan_at_quarter)
        rc = main(["verify", "--grid-step", "0.25", "--out", str(out_path)])
    lines = out.getvalue().splitlines()
    assert rc == 1
    assert "FAIL markov_u_x_y residual=inf threshold=1e-10" in lines
    assert lines[-1] == "overall FAIL"
