"""Random codebook generation, channel simulation, and block decoding.

The encoder transmits rows of cx; the decoder only ever sees cu, the
entrywise perturbation of cx, plus the channel output.  All experiment
randomness flows through per-trial Philox streams derived from the master
seed (see rng.derive_seed), so reports are bit-identical for a given
configuration no matter how trials are scheduled.  Both decoding rules read
only each decoder row's table of (u, y) cell counts against the output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

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
    MASK64,
    TAG_CHANNEL,
    TAG_CODEBOOK,
    TAG_MESSAGE,
    TAG_PERTURB,
    StreamSeries,
    capped_cdf,
    derive_seed,
    derive_seeds,
    rows_from_uniforms,
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
TRIAL_BLOCK_CELLS = 1 << 14  # codebook cells (trials x M x n) one trial block holds

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
        if 0 in cx.shape:
            raise DimensionMismatch(
                f"codebooks need at least one message and one symbol, got shape {cx.shape}"
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
    seeds = np.array([seed & MASK64], dtype=np.uint64)
    cdf_x, cdfs_u = capped_cdf(px.probs), capped_cdf(pux.matrix)
    cx, cu = _codebooks(StreamSeries(), seeds, M, n, cdf_x, cdfs_u)
    return CodebookPair(cx[0], cu[0], seed)


def transmit(codeword, pyx: TransitionMatrix, seed: int) -> np.ndarray:
    """One memoryless channel pass over a codeword, deterministic in seed."""
    cw = np.asarray(codeword, dtype=np.int64)
    if cw.ndim != 1:
        raise DimensionMismatch("codeword must be 1-D")
    if cw.min(initial=0) < 0 or cw.max(initial=0) >= pyx.input_size:
        raise DomainError("codeword symbol outside the channel input alphabet")
    return sample_rows(stream(derive_seed(seed, 0, TAG_CHANNEL)), pyx.matrix, cw)


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
    """Histogram of cell indices along the last axis: idx (..., n) with
    values in [0, k) gives counts (..., k), all rows in one bincount."""
    lead = idx.shape[:-1]
    rows = math.prod(lead)
    offs = (np.arange(rows, dtype=np.int64) * k).reshape(lead + (1,))
    return np.bincount((idx + offs).ravel(), minlength=rows * k).reshape(lead + (k,))


def _count_scores(columns, logvals: np.ndarray) -> np.ndarray:
    """Sum columns[c] * logvals[c] over cells c in ascending order; columns
    yields one count array per cell, as np.moveaxis(counts, -1, 0) does.

    Zero counts contribute exactly zero even against -inf log entries, and
    the fixed accumulation order makes scores reproducible down to the bit
    by any implementation that sums the same way.
    """
    total = 0.0
    for counts, lv in zip(columns, logvals):
        term = np.where(counts > 0, -np.inf, 0.0) if np.isneginf(lv) else counts * lv
        total = np.add(total, term, out=term)  # into the fresh term: one array less
    return total


def _indicator_dtype(n: int):
    """Float dtype in which a sum of at most n zeros and ones is exact in
    any order: float32 holds every integer up to 2^24."""
    return np.float32 if n <= 1 << 24 else np.float64


def _fresh_counts(cu: np.ndarray, y: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """(T, M, nu * ny) counts of the (u, y) cells of outputs y (T, n)
    against their own decoder codebooks cu (T, M, n): one offset bincount
    over all rows of the block."""
    return _cell_counts(cu * ny + y[:, None, :], nu * ny)


def _shared_counts(cu: np.ndarray, nu: int, ny: int):
    """The counting function y (T, n) -> _fresh_counts for one decoder
    codebook cu (M, n) that every trial shares.  The indicators (cu == u)
    are built once, as one (nu * M, n) matrix; a block's counts are then one
    product with its one-hot outputs (n, T * ny).  Every entry is an integer
    of at most n, exact in _indicator_dtype(n) whatever the summation order,
    so the counts equal _fresh_counts' to the bit.
    """
    M, n = cu.shape
    dtype = _indicator_dtype(n)
    indicators = (cu == np.arange(nu)[:, None, None]).astype(dtype).reshape(nu * M, n)

    def counts(y):
        T = y.shape[0]
        onehot = (y.T[:, :, None] == np.arange(ny)).astype(dtype).reshape(n, T * ny)
        table = (indicators @ onehot).reshape(nu, M, T, ny).transpose(2, 1, 0, 3)
        # int64 as from the bincount: a float32 count times a float64 log
        # value would round to float32 under numpy 1.x's scalar casting
        return np.ascontiguousarray(table, dtype=np.int64).reshape(T, M, nu * ny)

    return counts


def _map_rule(pyu: TransitionMatrix):
    """Maximum likelihood under the induced channel p(y|u): count tables
    (T, M, nu * ny) to 1-based decisions (T,), the lowest index of equal scores."""
    with np.errstate(divide="ignore"):
        logp = np.log(pyu.matrix).ravel()
    return lambda counts: np.argmax(_count_scores(np.moveaxis(counts, -1, 0), logp), axis=-1) + 1


def _typicality_rule(joint: JointPmf, epsilon: float, n: int):
    """Joint typicality against the exact single-letter joint of (U, Y), as
    _map_rule's decisions for codewords of length n; 0 where no row or more
    than one row passes.  A row's u counts are the margin of its (u, y)
    counts over y, the output's y counts the margin of any row's over u:
    integer margins are exact, so every rate keeps its bits.
    """
    t = joint.table
    nu, ny = t.shape
    pu, py = t.sum(axis=1), t.sum(axis=0)
    with np.errstate(divide="ignore"):
        lu, ly, luy = np.log2(pu), np.log2(py), np.log2(t).ravel()
    hu, hy, huy = _entropy_bits(pu), _entropy_bits(py), _entropy_bits(t)

    def typical(columns, logvals, entropy):
        rate = _count_scores(columns, logvals)
        rate /= -n  # the empirical rate -score / n, to the same bits, in place
        return np.abs(np.subtract(rate, entropy, out=rate), out=rate) < epsilon

    def decide(counts):
        cells = counts.reshape(counts.shape[:-1] + (nu, ny))
        counts_y = (sum(cells[:, 0, a, b] for a in range(nu)) for b in range(ny))
        ok = typical(counts_y, ly, hy)[:, None] & typical(np.moveaxis(counts, -1, 0), luy, huy)
        # the u test only on the rows that pass the other two, which most rows
        # fail: a block's whole u margin would cost as much as its joint test
        rows = np.flatnonzero(ok)
        hits = cells.reshape(-1, nu, ny)[rows]
        counts_u = (sum(hits[:, a, b] for b in range(ny)) for a in range(nu))
        ok.ravel()[rows] = typical(counts_u, lu, hu)
        return np.where(ok.sum(axis=-1) == 1, np.argmax(ok, axis=-1) + 1, 0)

    return decide


def _checked_counts(y, pair: CodebookPair, nu: int, ny: int) -> np.ndarray:
    """The (1, M, nu * ny) count table of one output y against pair's
    decoder codebook, once both hold only symbols of their alphabets."""
    yv = np.asarray(y, dtype=np.int64)
    if yv.ndim != 1 or yv.size != pair.n:
        raise DimensionMismatch(
            f"channel output must be a length-{pair.n} vector, got shape {yv.shape}"
        )
    if yv.min() < 0 or yv.max() >= ny:
        raise DomainError("channel output symbol outside the output alphabet")
    if pair.cu.min() < 0 or pair.cu.max() >= nu:
        raise DomainError("decoder codebook symbol outside the decoder alphabet")
    return _fresh_counts(pair.cu[None], yv[None], nu, ny)


def typicality_decode(
    y, pair: CodebookPair, epsilon: float, joint: JointPmf
) -> int:
    """Joint-typicality rule against the exact single-letter joint of (U, Y).

    Returns the unique 1-based index whose decoder codeword passes all
    three empirical-entropy tests within epsilon, or 0 when no row or more
    than one row passes.  Codewords containing zero-probability symbols are
    never typical.  Every rate is read from the rows' (u, y) count tables.
    """
    if not 0.0 < epsilon < math.inf:
        raise DomainError("epsilon must be positive and finite")
    if joint.ndim != 2:
        raise DimensionMismatch("typicality_decode expects a 2-D joint over (U, Y)")
    counts = _checked_counts(y, pair, *joint.table.shape)
    return int(_typicality_rule(joint, epsilon, pair.n)(counts)[0])


def map_decode(y, pair: CodebookPair, pyu: TransitionMatrix) -> int:
    """Maximum-likelihood decoding under the induced channel p(y|u).

    A row's score is its (u, y) cell counts weighted by the log transition
    probabilities, added cell by cell.  Of exactly equal scores the lowest
    message index wins, and an all-minus-infinity score vector returns
    message 1.  Rows of equal likelihood whose symbols fall into different
    cells can score a rounding step apart, and then the higher score wins
    whatever its index.
    """
    counts = _checked_counts(y, pair, pyu.input_size, pyu.output_size)
    return int(_map_rule(pyu)(counts)[0])


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
            if self.epsilon is None or not 0.0 < self.epsilon < math.inf:
                raise DomainError("typicality decoding needs a positive, finite epsilon")
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
    def binary_symmetric(n: int, M: int, p1: float, p2: float, **options) -> "SimConfig":
        """Uniform binary input, BSC(p1) channel, BSC(p2) perturbation; options
        set the remaining fields (decoder, epsilon, trials, ...) by name."""
        return SimConfig(n=n, M=M, px=Pmf.uniform(2), pyx=bsc(p1), pux=bsc(p2),
                         p1=float(p1), p2=float(p2), **options)

    def echo(self) -> dict:
        """JSON-ready snapshot of the effective configuration: the scalar
        fields, then the px, pyx and pux tables as nested lists."""
        tables = {"px": self.px.probs, "pyx": self.pyx.matrix, "pux": self.pux.matrix}
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in tables}
        return echo | {name: t.tolist() for name, t in tables.items()}


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


def _codebooks(series: StreamSeries, seeds: np.ndarray, M: int, n: int, cdf_x, cdfs_u):
    """Codebook pairs (T, M, n), one per pair seed (uint64), drawn exactly
    as generate_codebooks draws the pair of that seed."""
    keys_x, keys_u = derive_seeds(seeds, 0, (TAG_CODEBOOK, TAG_PERTURB))
    buf = np.empty((seeds.size, M, n))
    series.fill_random(keys_x, buf)
    cx = rows_from_uniforms(cdf_x, None, buf)
    series.fill_random(keys_u, buf)
    return cx, rows_from_uniforms(cdfs_u, cx, buf)


def _trial_errors(cfg: SimConfig, decide, shared=None, collide=0):
    """The trial kernel: per-message error and sent counts over trials
    [0, cfg.trials), run in blocks.  decide maps a block's (T, M, nu * ny)
    count tables to 1-based decisions.  shared is the (cx, cu) pair (M, n) every trial uses, or
    None to draw each trial's pair from its seed.  A block holds
    TRIAL_BLOCK_CELLS codebook cells of per-trial pairs, or of a shared pair
    TRIAL_BLOCK_CELLS // max(M, n) trials, as its counts grow with trials x M
    and its uniforms, outputs and one-hot outputs with trials x n.  Messages
    are uniform draws, or with collide > 0 sent round robin over the first
    collide indices.  Every trial's streams are keyed by its index, so the
    counts do not depend on the block size.
    """
    M, n = cfg.M, cfg.n
    nu, ny = cfg.pux.output_size, cfg.pyx.output_size
    series = StreamSeries()
    cdfs_y = capped_cdf(cfg.pyx.matrix)
    if shared is None:
        cdf_x, cdfs_u = capped_cdf(cfg.px.probs), capped_cdf(cfg.pux.matrix)
    else:
        cx, counts = shared[0][None], _shared_counts(shared[1], nu, ny)
    block = max(1, TRIAL_BLOCK_CELLS // (M * n if shared is None else max(M, n)))
    tags = (TAG_CODEBOOK, TAG_MESSAGE, TAG_CHANNEL)
    errs, sent = np.zeros((2, M), dtype=np.int64)
    for lo in range(0, cfg.trials, block):
        ts = np.arange(lo, min(lo + block, cfg.trials))
        pair_seeds, msg_keys, chan_keys = derive_seeds(cfg.master_seed, ts, tags)
        if shared is None:
            cx, cu = _codebooks(series, pair_seeds, M, n, cdf_x, cdfs_u)
        if collide:
            w = ts % collide
        else:
            w = np.array([series.open(k).integers(M) for k in msg_keys.tolist()], dtype=np.int64)
        u = np.empty((ts.size, n))
        series.fill_random(chan_keys, u)
        sent_rows = cx[np.arange(ts.size) % cx.shape[0], w]  # a shared pair has one row
        y = rows_from_uniforms(cdfs_y, sent_rows, u)
        # null (0) and wrong indices both count; no count table outlives its block
        wrong = decide(_fresh_counts(cu, y, nu, ny) if shared is None else counts(y)) != w + 1
        sent += np.bincount(w, minlength=M)
        errs += np.bincount(w[wrong], minlength=M)
    return errs, sent


def _lambda_max(errs: np.ndarray, sent: np.ndarray) -> float:
    """Largest error rate over the messages sent at least once; 0 if none was."""
    mask = sent > 0
    return float((errs[mask] / sent[mask]).max()) if mask.any() else 0.0


def run_experiment(cfg: SimConfig) -> TrialReport:
    """Monte Carlo block-error estimation under the configured decoder.

    Per trial: draw the codebook pair (fresh per trial unless the mode is
    fixed), a uniform message, and the channel output of the encoder row;
    decode using the perturbed codebook only.  A null or wrong decode is an
    error.  Trials run in blocks through one kernel; every trial owns its
    derived streams, so the report does not depend on how they are grouped.
    """
    t0 = time.perf_counter()
    if cfg.decoder == DECODER_MAP:
        decide = _map_rule(induced_channel(cfg.px, cfg.pyx, cfg.pux))
    else:
        decide = _typicality_rule(build_joint_uy(cfg.px, cfg.pyx, cfg.pux), cfg.epsilon, cfg.n)
    shared = None
    if cfg.codebook_mode == MODE_FIXED:
        pair = generate_codebooks(cfg.M, cfg.n, cfg.px, cfg.pux, cfg.master_seed)
        shared = (pair.cx, pair.cu)
    errs, sent = _trial_errors(cfg, decide, shared)

    error_count = int(errs.sum())
    pe = error_count / cfg.trials
    ci = 1.96 * math.sqrt(pe * (1.0 - pe) / cfg.trials)
    return TrialReport(
        trials_run=cfg.trials,
        error_count=error_count,
        pe_hat=pe,
        per_message_errors=tuple(zip(errs.tolist(), sent.tolist())),
        lambda_max_hat=_lambda_max(errs, sent),
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
    cfg = SimConfig.binary_symmetric(n, M, p1, p2, trials=trials, codebook_mode=MODE_FIXED,
                                     master_seed=seed)
    base = generate_codebooks(M, n, cfg.px, cfg.pux, seed)
    cu = np.array(base.cu)
    cu[:m_collide] = base.cu[0]
    decide = _map_rule(induced_channel(cfg.px, cfg.pyx, cfg.pux))
    errs, sent = _trial_errors(cfg, decide, (base.cx, cu), collide=m_collide)
    return _lambda_max(errs, sent)
