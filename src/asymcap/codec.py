"""Random codebook generation, channel simulation, and block decoding.

The encoder transmits rows of cx; the decoder only ever sees cu, the
entrywise perturbation of cx, plus the channel output.  All experiment
randomness flows through per-trial Philox streams derived from the master
seed (see rng.derive_seed), so reports are bit-identical for a given
configuration no matter how trials are scheduled.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .info import (
    DimensionMismatch,
    DomainError,
    JointPmf,
    Pmf,
    TransitionMatrix,
    _entropy_bits,
    bsc,
    build_joint_uy,
)
from .rng import (
    TAG_CHANNEL,
    TAG_CODEBOOK,
    TAG_MESSAGE,
    TAG_PERTURB,
    derive_seed,
    sample_pmf,
    sample_rows,
    stream,
)

__all__ = [
    "CODEBOOK_CELL_CAP",
    "CodebookLimitError",
    "CodebookPair",
    "SimConfig",
    "TrialReport",
    "generate_codebooks",
    "transmit",
    "induced_channel",
    "typicality_decode",
    "map_decode",
    "run_experiment",
    "collision_experiment",
]

CODEBOOK_CELL_CAP = 1 << 26  # refuse codebooks beyond ~67M cells

DECODER_MAP = "map"
DECODER_TYPICALITY = "typicality"
MODE_FRESH = "fresh_per_trial"
MODE_FIXED = "fixed"


class CodebookLimitError(ValueError):
    """Requested codebook exceeds the memory cap."""


@dataclass(frozen=True)
class CodebookPair:
    """Encoder and decoder codeword matrices (M x n) plus generating seed."""

    cx: np.ndarray
    cu: np.ndarray
    seed: int

    def __post_init__(self):
        cx = np.array(self.cx, dtype=np.int64, copy=True)
        cu = np.array(self.cu, dtype=np.int64, copy=True)
        if cx.ndim != 2 or cu.ndim != 2:
            raise DimensionMismatch("codebooks must be 2-D (messages x blocklength)")
        if cx.shape != cu.shape:
            raise DimensionMismatch(
                f"codebook shapes disagree: {cx.shape} vs {cu.shape}"
            )
        cx.setflags(write=False)
        cu.setflags(write=False)
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cu", cu)

    @property
    def M(self) -> int:
        return int(self.cx.shape[0])

    @property
    def n(self) -> int:
        return int(self.cx.shape[1])


def generate_codebooks(
    M: int, n: int, px: Pmf, pux: TransitionMatrix, seed: int
) -> CodebookPair:
    """Draw cx i.i.d. from px and cu entrywise from pux given cx.

    Fully determined by seed: the encoder matrix uses the stream keyed by
    derive_seed(seed, 0, TAG_CODEBOOK) and the perturbation the one keyed
    by derive_seed(seed, 0, TAG_PERTURB).
    """
    if M < 1 or n < 1:
        raise DomainError("M and n must be at least 1")
    if M * n > CODEBOOK_CELL_CAP:
        raise CodebookLimitError(
            f"codebook of {M} x {n} = {M * n} cells exceeds cap {CODEBOOK_CELL_CAP}"
        )
    if px.size != pux.input_size:
        raise DimensionMismatch(
            f"px alphabet {px.size} does not match perturbation input {pux.input_size}"
        )
    rng_x = stream(derive_seed(seed, 0, TAG_CODEBOOK))
    rng_u = stream(derive_seed(seed, 0, TAG_PERTURB))
    cx = sample_pmf(rng_x, px.probs, (M, n))
    cu = sample_rows(rng_u, pux.matrix, cx)
    return CodebookPair(cx, cu, seed)


def transmit(codeword, pyx: TransitionMatrix, seed: int) -> np.ndarray:
    """One memoryless channel pass over a codeword, deterministic in seed."""
    cw = np.asarray(codeword, dtype=np.int64)
    if cw.ndim != 1:
        raise DimensionMismatch("codeword must be 1-D")
    if cw.min(initial=0) < 0 or cw.max(initial=0) >= pyx.input_size:
        raise DomainError("codeword symbol outside the channel input alphabet")
    rng = stream(derive_seed(seed, 0, TAG_CHANNEL))
    return sample_rows(rng, pyx.matrix, cw)


def induced_channel(
    px: Pmf, pyx: TransitionMatrix, pux: TransitionMatrix
) -> TransitionMatrix:
    """Single-letter law of Y given the decoder codebook symbol U.

    Rows for zero-probability u are set uniform; they are never exercised
    by codebooks drawn from the same px and pux.
    """
    joint = build_joint_uy(px, pyx, pux).table
    pu = joint.sum(axis=1)
    ny = joint.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = joint / pu[:, None]
    rows = np.where(pu[:, None] > 0, rows, 1.0 / ny)
    return TransitionMatrix(rows)


def _cell_counts(idx: np.ndarray, k: int) -> np.ndarray:
    """Per-row histogram of cell indices: idx is (M, n) with values in [0, k)."""
    m = idx.shape[0]
    offs = (np.arange(m, dtype=np.int64) * k)[:, None]
    return np.bincount((idx + offs).ravel(), minlength=m * k).reshape(m, k)


def _count_scores(counts: np.ndarray, logvals: np.ndarray) -> np.ndarray:
    """Sum counts[:, c] * logvals[c] over cells in ascending order.

    Zero counts contribute exactly zero even against -inf log entries, and
    the fixed accumulation order makes scores reproducible down to the bit
    by any implementation that sums the same way.
    """
    total = np.zeros(counts.shape[0])
    for c in range(logvals.size):
        lv = logvals[c]
        if np.isneginf(lv):
            total = total + np.where(counts[:, c] > 0, -np.inf, 0.0)
        else:
            total = total + counts[:, c] * lv
    return total


def _checked_output(y, pair: CodebookPair, ny: int) -> np.ndarray:
    yv = np.asarray(y, dtype=np.int64)
    if yv.ndim != 1 or yv.size != pair.n:
        raise DimensionMismatch(
            f"channel output must be a length-{pair.n} vector, got shape {yv.shape}"
        )
    if yv.min() < 0 or yv.max() >= ny:
        raise DomainError("channel output symbol outside the output alphabet")
    return yv


def typicality_decode(
    y, pair: CodebookPair, epsilon: float, joint: JointPmf
) -> int:
    """Joint-typicality rule against the exact single-letter joint of (U, Y).

    Returns the unique 1-based index whose decoder codeword passes all
    three empirical-entropy tests within epsilon, or 0 when no row or more
    than one row passes.  Codewords containing zero-probability symbols are
    never typical.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if joint.ndim != 2:
        raise DimensionMismatch("typicality_decode expects a 2-D joint over (U, Y)")
    t = joint.table
    nu, ny = t.shape
    pu = t.sum(axis=1)
    py = t.sum(axis=0)
    with np.errstate(divide="ignore"):
        lu = np.log2(pu)
        ly = np.log2(py)
        luy = np.log2(t).ravel()
    hu = _entropy_bits(pu)
    hy = _entropy_bits(py)
    huy = _entropy_bits(t)

    yv = _checked_output(y, pair, ny)
    n = yv.size
    rate_u = -_count_scores(_cell_counts(pair.cu, nu), lu) / n
    rate_y = float(-_count_scores(np.bincount(yv, minlength=ny)[None, :], ly)[0] / n)
    rate_uy = -_count_scores(_cell_counts(pair.cu * ny + yv[None, :], nu * ny), luy) / n

    ok = (
        (np.abs(rate_u - hu) < epsilon)
        & (abs(rate_y - hy) < epsilon)
        & (np.abs(rate_uy - huy) < epsilon)
    )
    hits = np.flatnonzero(ok)
    return int(hits[0]) + 1 if hits.size == 1 else 0


def map_decode(y, pair: CodebookPair, pyu: TransitionMatrix) -> int:
    """Maximum-likelihood decoding under the induced channel p(y|u).

    Scores are count-weighted sums of log transition probabilities; the
    lowest message index wins ties, and an all-minus-infinity score vector
    returns message 1.
    """
    ny = pyu.output_size
    yv = _checked_output(y, pair, ny)
    with np.errstate(divide="ignore"):
        logp = np.log(pyu.matrix).ravel()
    counts = _cell_counts(pair.cu * ny + yv[None, :], pyu.input_size * ny)
    scores = _count_scores(counts, logp)
    return int(np.argmax(scores)) + 1


@dataclass(frozen=True)
class SimConfig:
    """One experiment description; master_seed pins every random draw."""

    n: int
    M: int
    px: Pmf
    pyx: TransitionMatrix
    pux: TransitionMatrix
    decoder: str = DECODER_MAP
    epsilon: float | None = None
    trials: int = 1000
    codebook_mode: str = MODE_FRESH
    master_seed: int = 0
    p1: float | None = None
    p2: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.M < 1:
            raise DomainError("n and M must be at least 1")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.decoder not in (DECODER_MAP, DECODER_TYPICALITY):
            raise DomainError(f"unknown decoder {self.decoder!r}")
        if self.decoder == DECODER_TYPICALITY:
            if self.epsilon is None or self.epsilon <= 0.0:
                raise DomainError("typicality decoding needs a positive epsilon")
        elif self.epsilon is not None:
            raise DomainError("epsilon only applies to the typicality decoder")
        if self.codebook_mode not in (MODE_FRESH, MODE_FIXED):
            raise DomainError(f"unknown codebook_mode {self.codebook_mode!r}")
        if not (self.px.size == self.pyx.input_size == self.pux.input_size):
            raise DimensionMismatch("px, pyx, pux input alphabets disagree")
        if self.M * self.n > CODEBOOK_CELL_CAP:
            raise CodebookLimitError(
                f"codebook of {self.M} x {self.n} cells exceeds cap {CODEBOOK_CELL_CAP}"
            )

    @staticmethod
    def binary_symmetric(
        n: int,
        M: int,
        p1: float,
        p2: float,
        decoder: str = DECODER_MAP,
        epsilon: float | None = None,
        trials: int = 1000,
        codebook_mode: str = MODE_FRESH,
        master_seed: int = 0,
    ) -> "SimConfig":
        """Uniform binary input, BSC(p1) channel, BSC(p2) perturbation."""
        return SimConfig(
            n=n,
            M=M,
            px=Pmf.uniform(2),
            pyx=bsc(p1),
            pux=bsc(p2),
            decoder=decoder,
            epsilon=epsilon,
            trials=trials,
            codebook_mode=codebook_mode,
            master_seed=master_seed,
            p1=float(p1),
            p2=float(p2),
        )

    def echo(self) -> dict:
        """JSON-ready snapshot of the effective configuration."""
        return {
            "n": self.n,
            "M": self.M,
            "decoder": self.decoder,
            "epsilon": self.epsilon,
            "trials": self.trials,
            "codebook_mode": self.codebook_mode,
            "master_seed": self.master_seed,
            "p1": self.p1,
            "p2": self.p2,
            "px": self.px.probs.tolist(),
            "pyx": self.pyx.matrix.tolist(),
            "pux": self.pux.matrix.tolist(),
        }


@dataclass(frozen=True)
class TrialReport:
    """Aggregated outcome of a run_experiment call.

    per_message_errors holds (errors, times sent) per message index;
    elapsed is wall-clock seconds and excluded from equality comparisons.
    """

    trials_run: int
    error_count: int
    pe_hat: float
    per_message_errors: tuple[tuple[int, int], ...]
    lambda_max_hat: float
    ci95_halfwidth: float
    config_echo: dict
    elapsed: float = field(compare=False, default=0.0)

    def to_json_dict(self) -> dict:
        """Wire format with a fixed field order."""
        cfg = self.config_echo
        return {
            "trials": self.trials_run,
            "errors": self.error_count,
            "pe_hat": self.pe_hat,
            "ci95": self.ci95_halfwidth,
            "lambda_max_hat": self.lambda_max_hat,
            "rate": math.log2(cfg["M"]) / cfg["n"],
            "n": cfg["n"],
            "M": cfg["M"],
            "decoder": cfg["decoder"],
            "epsilon": cfg["epsilon"],
            "p1": cfg["p1"],
            "p2": cfg["p2"],
            "seed": cfg["master_seed"],
            "elapsed_seconds": self.elapsed,
        }


def _trial_pair(cfg: SimConfig, t: int, fixed_pair: CodebookPair | None) -> CodebookPair:
    if fixed_pair is not None:
        return fixed_pair
    return generate_codebooks(
        cfg.M, cfg.n, cfg.px, cfg.pux, derive_seed(cfg.master_seed, t, TAG_CODEBOOK)
    )


def _run_chunk(cfg: SimConfig, lo: int, hi: int, fixed_pair: CodebookPair | None):
    """Trials [lo, hi): returns per-message error and sent counts."""
    errs = np.zeros(cfg.M, dtype=np.int64)
    sent = np.zeros(cfg.M, dtype=np.int64)
    use_map = cfg.decoder == DECODER_MAP
    pyu = induced_channel(cfg.px, cfg.pyx, cfg.pux) if use_map else None
    joint = None if use_map else build_joint_uy(cfg.px, cfg.pyx, cfg.pux)
    for t in range(lo, hi):
        pair = _trial_pair(cfg, t, fixed_pair)
        rng_w = stream(derive_seed(cfg.master_seed, t, TAG_MESSAGE))
        w = int(rng_w.integers(cfg.M))
        rng_y = stream(derive_seed(cfg.master_seed, t, TAG_CHANNEL))
        y = sample_rows(rng_y, cfg.pyx.matrix, pair.cx[w])
        if use_map:
            w_hat = map_decode(y, pair, pyu)
        else:
            w_hat = typicality_decode(y, pair, cfg.epsilon, joint)
        sent[w] += 1
        if w_hat != w + 1:  # null (0) and wrong indices both count as errors
            errs[w] += 1
    return errs, sent


def _worker_count() -> int:
    """ASYMCAP_THREADS, capped at the CPU count; 1 when unset or not an integer."""
    raw = os.environ.get("ASYMCAP_THREADS", "")
    if not raw:
        return 1
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        return 1


def run_experiment(cfg: SimConfig) -> TrialReport:
    """Monte Carlo block-error estimation under the configured decoder.

    Per trial: draw the codebook pair (fresh per trial unless the mode is
    fixed), a uniform message, and the channel output of the encoder row;
    decode using the perturbed codebook only.  A null or wrong decode is an
    error.  ASYMCAP_THREADS > 1 splits trials across processes; results are
    identical to the serial run because every trial owns derived streams.
    """
    t0 = time.perf_counter()
    fixed_pair = None
    if cfg.codebook_mode == MODE_FIXED:
        fixed_pair = generate_codebooks(cfg.M, cfg.n, cfg.px, cfg.pux, cfg.master_seed)

    workers = min(_worker_count(), cfg.trials)
    if workers > 1:
        bounds = np.linspace(0, cfg.trials, workers + 1, dtype=int)
        errs = np.zeros(cfg.M, dtype=np.int64)
        sent = np.zeros(cfg.M, dtype=np.int64)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, cfg, int(lo), int(hi), fixed_pair)
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futures:
                e, s = fut.result()
                errs += e
                sent += s
    else:
        errs, sent = _run_chunk(cfg, 0, cfg.trials, fixed_pair)

    error_count = int(errs.sum())
    pe = error_count / cfg.trials
    ci = 1.96 * math.sqrt(pe * (1.0 - pe) / cfg.trials)
    lam = 0.0
    mask = sent > 0
    if np.any(mask):
        lam = float((errs[mask] / sent[mask]).max())
    per_msg = tuple((int(e), int(s)) for e, s in zip(errs, sent))
    return TrialReport(
        trials_run=cfg.trials,
        error_count=error_count,
        pe_hat=pe,
        per_message_errors=per_msg,
        lambda_max_hat=lam,
        ci95_halfwidth=ci,
        config_echo=cfg.echo(),
        elapsed=time.perf_counter() - t0,
    )


def collision_experiment(
    M: int, m_collide: int, n: int, p1: float, p2: float, trials: int, seed: int
) -> float:
    """Worst per-message error rate when decoder rows collide.

    The first m_collide rows of cu are overwritten with one shared vector
    (row 1's perturbed codeword); messages 1..m_collide are sent round
    robin and decoded by the MAP rule with its lowest-index tie-break.
    Returns the largest empirical per-message error among the colliders.
    """
    if not 1 <= m_collide <= M:
        raise DomainError(f"m_collide must lie in [1, M], got {m_collide}")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    px = Pmf.uniform(2)
    pyx = bsc(p1)
    pux = bsc(p2)
    base = generate_codebooks(M, n, px, pux, seed)
    cu = np.array(base.cu)
    cu[:m_collide] = base.cu[0]
    pair = CodebookPair(base.cx, cu, base.seed)
    pyu = induced_channel(px, pyx, pux)

    errs = np.zeros(m_collide, dtype=np.int64)
    sent = np.zeros(m_collide, dtype=np.int64)
    for t in range(trials):
        w = t % m_collide
        rng_y = stream(derive_seed(seed, t, TAG_CHANNEL))
        y = sample_rows(rng_y, pyx.matrix, pair.cx[w])
        w_hat = map_decode(y, pair, pyu)
        sent[w] += 1
        if w_hat != w + 1:
            errs[w] += 1
    mask = sent > 0
    return float((errs[mask] / sent[mask]).max())
