"""Structural self-checks for the perturbed-codebook model.

Two families of checks.  Exact identity checks evaluate entropy and Markov
relations of the four-variable binary joint (X, U, Y, V) on a (p1, p2)
grid and must hold to near machine precision.  Sampled checks compare the
empirical law of i.i.d. draws on k cells with the exact law in total
variation, gated by _tv_threshold so that correct code fails each with
probability at most FALSE_ALARM.  A check that raises is reported as
failed, never skipped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .codec import generate_codebooks
from .info import (DomainError, JointPmf, Pmf, _clean_mass, _conditional_entropy,
                   _conditional_mutual_information, _entropy_bits, _marginal_sum,
                   _markov_deviation, _mix, _mutual_information, _probability,
                   _xuyv_table, binary_entropy, bsc, build_joint_uy, build_joint_xuyv,
                   check_markov, composite_crossover)
from .rng import TAG_CHANNEL, TAG_CODEBOOK, TAG_PERTURB, capped_cdf, derive_seed, stream

__all__ = [
    "IDENTITY_THRESHOLD",
    "FALSE_ALARM",
    "CONTROL_THRESHOLD",
    "CheckResult",
    "VerificationReport",
    "default_grid",
    "identity_residuals",
    "corrupted_joint_violation",
    "sampled_pair_tv",
    "codebook_iid_zscores",
    "verification_grid",
    "run_verification",
]

IDENTITY_THRESHOLD = 1e-10   # exact identities, residual is numerical noise
FALSE_ALARM = 1e-6           # bound on each sampled gate's false-alarm probability
# The corrupted joint passes the negative control iff it violates the exact
# Markov gate, i.e. its deviation lands above the identity threshold.
CONTROL_THRESHOLD = IDENTITY_THRESHOLD
SAMPLING_POINT = (0.1, 0.2)  # (p1, p2) used by the sampling checks
DEFAULT_GRID_STEP = 0.1
MAX_GRID_AXIS = 251          # points per grid axis, so steps of at least 0.002
DEFAULT_SAMPLES = 1_000_000
IDENTITY_CHUNK = 1024        # grid points identity_residuals evaluates as one stack
PAIR_CHUNK = 1 << 16         # samples sampled_pair_tv draws and counts at a time
# sampled_pair_tv's memory is bounded by PAIR_CHUNK, so the cap bounds time:
# at 2^25 samples the check takes about 1.5 s on a 2-vCPU Xeon.
MAX_SAMPLES = 1 << 25
FREQ_CODEBOOK_SHAPE = (200, 500)

# Fixed reporting order for the exact identity checks.
IDENTITY_CHECKS = (
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


@dataclass(frozen=True)
class CheckResult:
    """One named check: observed residual against its threshold."""

    name: str
    max_residual: float
    threshold: float
    passed: bool

    def __post_init__(self):
        # Plain Python scalars keep the report JSON-serializable.
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_json_dict(self) -> dict:
        """Strict JSON: a non-finite residual (a failed check) is null."""
        return {
            "check": self.name,
            "max_residual": self.max_residual if math.isfinite(self.max_residual) else None,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """All check outcomes, each with the threshold it was judged against.

    The run's inputs (grid step, samples, seed) are its caller's to echo:
    the grid follows from the step, the sampling point is a module
    constant, and each threshold follows from the checks' draws.
    """

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"checks": [c.to_json_dict() for c in self.checks], "pass": self.passed}


def default_grid(step: float = DEFAULT_GRID_STEP) -> np.ndarray:
    """Lattice {0, step, 2 step, ..., 0.5}; step must divide 0.5 (to 1e-9)
    and give at most MAX_GRID_AXIS points."""
    step = float(step)
    if not 0.0 < step <= 0.5:
        raise DomainError(f"grid step {step!r} outside (0, 0.5]")
    if 0.5 / step >= MAX_GRID_AXIS - 0.5:  # also where 0.5 / step overflows
        raise DomainError(f"grid step {step!r} gives more than {MAX_GRID_AXIS} points per axis")
    k = round(0.5 / step)
    if not math.isclose(k * step, 0.5, rel_tol=1e-9):
        raise DomainError(f"grid step {step!r} does not divide 0.5")
    return np.linspace(0.0, 0.5, k + 1)


def identity_residuals(p1, p2) -> dict:
    """Residuals of the exact structural identities at (p1, p2): floats, or
    arrays that broadcast together.  Each residual is an array of the
    broadcast shape, or a plain float for two floats; all points form one
    stack of tables through info's kernels and get a one-point call's bits.
    The identities are for the uniform binary input; V = X xor Z1 xor Z2
    has crossover composite_crossover(p1, p2) given X."""
    p1, p2 = np.broadcast_arrays(_probability("p1", p1), _probability("p2", p2))
    shape, p1, p2 = p1.shape, p1.ravel(), p2.ravel()
    j4 = _clean_mass(_xuyv_table(Pmf.uniform(2).probs, p1, p2), "joint table")  # x, u, y, v
    h = partial(_conditional_entropy, j4)  # h(target, given): H(target | given)

    def marginal(axes):
        return _clean_mass(_marginal_sum(j4, axes), "joint table")

    hq = binary_entropy(composite_crossover(p1, p2))
    h1, h2 = binary_entropy(p1), binary_entropy(p2)
    defect = h1 + h2 - hq  # common value of the three conditional entropies

    i_uy = _mutual_information(marginal((1, 2)))
    i_xy = _mutual_information(marginal((0, 2)))
    i_xy_given_u = _conditional_mutual_information(j4, (0,), (2,), (1,))
    h_v = _entropy_bits(marginal((3,)))
    h_v_uy = h((3,), (1, 2))

    residuals = {
        "markov_u_x_y": _markov_deviation(marginal((1, 0, 2))),
        "markov_u_v_y": _markov_deviation(marginal((1, 3, 2))),
        "markov_x_u_v": _markov_deviation(marginal((0, 1, 3))),
        "markov_x_y_v": _markov_deviation(marginal((0, 2, 3))),
        "rate_loss_decomposition": np.abs(i_uy - (i_xy - i_xy_given_u)),
        "mutual_info_balance": np.abs(i_uy - (h_v + h_v_uy - h1 - h2)),
        "entropy_v_given_x": np.abs(h((3,), (0,)) - hq),
        "entropy_u_given_xv": np.abs(h((1,), (0, 3)) - defect),
        "entropy_y_given_xv": np.abs(h((2,), (0, 3)) - defect),
        "entropy_v_given_uy": np.abs(h_v_uy - defect),
    }
    return {name: r.reshape(shape) if shape else float(r[0]) for name, r in residuals.items()}


def corrupted_joint_violation(p1: float, p2: float, bump: float = 1e-3) -> float:
    """Markov deviation after injecting mass into one cell of p(u, v, y).

    Negative control: the uncorrupted joint satisfies the middle-variable
    chain exactly, so a detectable violation confirms the check has teeth.
    """
    j = build_joint_xuyv(Pmf.uniform(2), p1, p2).marginal((1, 3, 2))
    t = np.array(j.table)
    t[0, 0, 0] += bump
    return check_markov(JointPmf(t / t.sum()))


def _check_samples(samples: int) -> None:
    """The one sample-count rule: samples must lie in [1, MAX_SAMPLES]."""
    if samples < 1:
        raise DomainError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise DomainError(f"samples must be at most {MAX_SAMPLES}, got {samples}")


def sampled_pair_tv(p1: float, p2: float, samples: int, seed: int) -> float:
    """TV distance between sampled two-letter (u, y) pairs and the product law.

    Draws `samples` independent two-symbol codewords through the full
    pipeline (input, perturbation, channel) and compares the empirical
    joint of ((u1, y1), (u2, y2)) against the tensor square of the exact
    single-letter joint.  samples must lie in [1, MAX_SAMPLES].  Samples
    are drawn and counted PAIR_CHUNK at a time, each stream's uniforms
    into one (PAIR_CHUNK, 2) buffer reused for every stream and chunk:
    each stream yields its doubles in order, so the integer counts, and
    the result, are those of one draw of all samples.

    The input is uniform and both channels are BSCs, so every alphabet is
    binary and each letter is one threshold test on its capped CDF (the
    counting rule of rows_from_uniforms): x is a boolean mask, u and y
    test the threshold of the row x selects, and a letter's (u, y) cell
    is the uint8 code 2u + y.  A capped threshold of +inf never hits and
    one of 0 always hits.
    """
    pyx, pux = bsc(_probability("p1", p1)), bsc(_probability("p2", p2))
    _check_samples(samples)
    px = Pmf.uniform(2)
    gx, gu, gy = (stream(derive_seed(seed, 0, tag))
                  for tag in (TAG_CODEBOOK, TAG_PERTURB, TAG_CHANNEL))
    tx = capped_cdf(px.probs)[0]
    tu, ty = capped_cdf(pux.matrix)[:, 0], capped_cdf(pyx.matrix)[:, 0]  # one per x row

    single = build_joint_uy(px, pyx, pux).table
    product = np.einsum("ab,cd->abcd", single, single).ravel()
    counts = np.zeros(product.size, dtype=np.int64)
    buf = np.empty((min(PAIR_CHUNK, samples), 2))
    for start in range(0, samples, PAIR_CHUNK):
        b = buf[:samples - start]
        x = gx.random(out=b) >= tx
        nx = ~x
        gu.random(out=b)
        cell = ((b >= tu[1]) & x | (b >= tu[0]) & nx).view(np.uint8) << 1
        gy.random(out=b)
        cell |= ((b >= ty[1]) & x | (b >= ty[0]) & nx).view(np.uint8)
        counts += np.bincount(cell[:, 0] << 2 | cell[:, 1], minlength=counts.size)
    return _tv(counts, product)


def _tv(counts: np.ndarray, law: np.ndarray) -> float:
    """TV distance between the empirical law of integer cell counts and law."""
    return float(0.5 * np.abs(counts / counts.sum() - law).sum())


def _tv_threshold(cells: int, draws: int) -> float:
    """The TV gate eps / 2 for `draws` i.i.d. draws on `cells` = k cells.  By
    P(|p_hat - p|_1 >= eps) <= (2^k - 2) e^(-n eps^2 / 2) (Weissman, Ordentlich,
    Seroussi, Verdu & Weinberger, HPL-2003-97), correct draws exceed it with
    probability at most FALSE_ALARM, whatever the law."""
    log_terms = math.log(2.0**cells - 2.0) + math.log(1.0 / FALSE_ALARM)
    return 0.5 * math.sqrt(2.0 * log_terms / draws)


def codebook_iid_zscores(p2: float, M: int, n: int, seed: int) -> tuple[float, float]:
    """(symbol-frequency TV, cell-correlation TV) of one generated codebook:
    TVs despite the name, each of i.i.d. draws when the cells are i.i.d.

    The frequency TV is that of the M n cu symbols from p(u).  The
    correlation TV is the larger of two, of disjoint neighbour pairs from
    p(u) x p(u): horizontal (cu[:, 0::2] with cu[:, 1::2]) and vertical
    (cu[0::2] with cu[1::2]), leaving out an odd last column or row.  M and
    n must be at least 2.
    """
    px = Pmf.uniform(2)
    pux = bsc(_probability("p2", p2))
    if M < 2 or n < 2:
        raise DomainError("M and n must be at least 2")
    cu = generate_codebooks(M, n, px, pux, derive_seed(seed, 1)).cu
    pu = _mix(px.probs[None], pux.matrix)[0]
    law = np.outer(pu, pu).ravel()
    corr = [_tv(np.bincount((2 * a + b).ravel(), minlength=law.size), law)
            for a, b in ((cu[:, :n - 1:2], cu[:, 1::2]), (cu[:M - 1:2], cu[1::2]))]
    # np.max keeps a NaN, where the builtin max may drop it
    return _tv(np.bincount(cu.ravel(), minlength=pu.size), pu), float(np.max(corr))


def _worst_identities(grid) -> list[float]:
    """Largest residual of each identity over the (p1, p2) grid, in
    IDENTITY_CHECKS order, from IDENTITY_CHUNK points at a time."""
    p1, p2 = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    worst = np.zeros(len(IDENTITY_CHECKS))
    for i in range(0, p1.size, IDENTITY_CHUNK):
        res = identity_residuals(p1[i:i + IDENTITY_CHUNK], p2[i:i + IDENTITY_CHUNK])
        worst = np.maximum(worst, [np.max(res[name]) for name in IDENTITY_CHECKS])  # keep NaN
    return worst.tolist()


def _family(thresholds, passes, failed_residual, residuals) -> list[CheckResult]:
    """The checks of one family, named by the keys of thresholds: residuals()
    gives their residuals in that order, each passing when passes(residual,
    its threshold).  A family that raises fails every check in it with
    failed_residual, and a NaN residual fails its own check the same way."""
    try:
        values = residuals()
    except Exception:
        values = [math.nan] * len(thresholds)
    return [CheckResult(name, failed_residual, t, False) if math.isnan(v)
            else CheckResult(name, v, t, passes(v, t))
            for (name, t), v in zip(thresholds.items(), values)]


def verification_grid(grid_step: float, samples: int) -> np.ndarray:
    """Check run_verification's arguments before any work: the step must
    divide 0.5 and samples lie in [1, MAX_SAMPLES].  Returns the grid."""
    grid = default_grid(grid_step)
    _check_samples(samples)
    return grid


def run_verification(
    grid_step: float = DEFAULT_GRID_STEP,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationReport:
    """Run every check; a raising check is recorded as failed, not skipped.
    Correct code fails a report with probability at most 4 FALSE_ALARM."""
    grid = verification_grid(grid_step, samples)
    s1, s2 = SAMPLING_POINT
    m, n = FREQ_CODEBOOK_SHAPE
    checks = [
        *_family(dict.fromkeys(IDENTITY_CHECKS, IDENTITY_THRESHOLD), operator.lt, math.inf,
                 lambda: _worst_identities(grid)),
        # the negative control passes when the corrupted joint is caught
        *_family({"corrupted_joint_control": CONTROL_THRESHOLD}, operator.gt, 0.0,
                 lambda: [corrupted_joint_violation(s1, s2)]),
        # k: 16 (u1, y1, u2, y2) cells, 2 symbols, 4 pair cells; m n / 2 pairs (even shape)
        *_family({"pairwise_factorization_tv": _tv_threshold(16, samples)}, operator.le,
                 math.inf, lambda: [sampled_pair_tv(s1, s2, samples, seed)]),
        *_family({"codebook_symbol_frequency": _tv_threshold(2, m * n),
                  "codebook_cell_correlation": _tv_threshold(4, m * n // 2)}, operator.le,
                 math.inf, lambda: codebook_iid_zscores(s2, m, n, seed)),
    ]
    return VerificationReport(tuple(checks))
