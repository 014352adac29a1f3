"""Gates that a test module and the planted defects both run, and the
solver's golden cases they share.

Each check raises AssertionError when its gate fails, so a planted defect
shows that the gate bites by making the check raise.  Tests import these
from here rather than from one another.
"""

import contextlib
import importlib.util
import inspect
import io
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from asymcap import capacity, codec, info, verify
from asymcap.capacity import SolverOptions, capacity_optimize
from asymcap.cli import main
from asymcap.info import TransitionMatrix, bsc
from asymcap.rng import sample_pmf

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

# (M, m, n, p1, p2, trials, seed) cases for check_collision_counts
COLLISION_GATE_CASES = [(8, 4, 16, 0.1, 0.1, 400, 1), (8, 8, 16, 0.1, 0.1, 400, 2),
                        (24, 4, 16, 0.05, 0.05, 200, 3), (16, 2, 32, 0.1, 0.05, 100, 4)]


def mutant(module, name, old, new):
    """module.name with the one occurrence of `old` in its source replaced
    by `new`: a planted defect for monkeypatch.setattr.  Its globals are the
    module's own, so it calls whatever a gate patches into the module, as
    the edited source would; the module itself is left unchanged."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old, source.count(old))
    scope = {}
    exec(compile(source.replace(old, new), f"<mutant {module.__name__}.{name}>", "exec"),
         vars(module), scope)
    return scope[name]


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


def golden_pair(seed, nx, ny, nu, zeros=False):
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
    "nx2_a": (lambda: golden_pair(21, 2, 2, 3), {}),
    "nx2_zeros": (lambda: golden_pair(22, 2, 3, 3, zeros=True), {}),
    "nx3_a": (lambda: golden_pair(31, 3, 2, 3), {}),
    "nx3_zeros": (lambda: golden_pair(32, 3, 3, 4, zeros=True), {}),
    "nx4_a": (lambda: golden_pair(41, 4, 3, 2), {}),
    "nx4_zeros": (lambda: golden_pair(42, 4, 4, 4, zeros=True), {}),
    "nx8_a": (lambda: golden_pair(81, 8, 4, 3), {}),
    "nx8_zeros": (lambda: golden_pair(82, 8, 5, 5, zeros=True), {}),
    "nx3_two_steps": (lambda: golden_pair(77, 3, 3, 3),
                      {"max_iterations": 2, "restarts": 1}),
    "nx4_loose": (lambda: golden_pair(43, 4, 3, 3), {"restarts": 3, "convergence_tol": 1e-6}),
}


def golden_summary(r):
    return (r.capacity.hex(), [float(v).hex() for v in r.argmax_px],
            r.iterations, r.residual.hex())


def load_bench(name):
    """bench/<name>.py as the module bench_<name>, loaded once."""
    if f"bench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[f"bench_{name}"]


# The OpenBLAS kernels the portability gate runs, with the CPU flags each needs
PORTABILITY_KERNELS = {"Nehalem": ("sse4_2",), "Haswell": ("avx2", "fma")}


def kernel_skip_reason(kernel) -> str | None:
    """Why this host cannot run numpy's BLAS under OPENBLAS_CORETYPE=kernel,
    or None when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy has no mode and only prints it
        return "numpy does not report its BLAS"
    if "openblas" not in str(blas.get("name", "")).lower():
        return (f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS: "
                "OPENBLAS_CORETYPE picks no kernel")
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to tell which kernels this CPU runs"
    flags = set(next((line for line in cpuinfo.splitlines() if line.startswith("flags")),
                     "").split())
    missing = [f for f in PORTABILITY_KERNELS[kernel] if f not in flags]
    return f"the CPU lacks {', '.join(missing)}, which {kernel} needs" if missing else None


def blas_mix(P, a):
    """info._mix through BLAS, whose sum order is the kernel's: a planted defect."""
    return P @ a


def pinned_outputs(mix=None) -> str:
    """One text of bit-pinned results: each GOLDEN_CASES solve through
    capacity_optimize, then the stdout of the capacity workload's seed-0
    pass-0 capacity-general ops through cli.main, its run directory written
    as <tmp>.  mix names a function of this module that replaces info._mix
    wherever it is called."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(out):
        if mix:
            for mod in (info, capacity, verify):
                mp.setattr(mod, "_mix", globals()[mix])
        for name, (build, kw) in GOLDEN_CASES.items():
            print(name, golden_summary(capacity_optimize(*build(), SolverOptions(**kw))))
        for op in load_bench("workloads").make_inputs("capacity", 0, root)[0]:
            if op.kind == "capacity-general":
                main(list(op.argv))
        return out.getvalue().replace(root, "<tmp>")


def check_pinned_outputs_match(kernel, mix=None):
    """pinned_outputs(mix) printed by a child process under
    OPENBLAS_CORETYPE=kernel must be the in-process run's bytes."""
    path = os.pathsep.join([str(Path(info.__file__).parents[1]), str(TESTS),
                            os.environ.get("PYTHONPATH", "")])
    code = f"import sys, gates; sys.stdout.write(gates.pinned_outputs({mix!r}))"
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           check=True, timeout=120)
    assert child.stdout == pinned_outputs(mix).encode(), kernel
