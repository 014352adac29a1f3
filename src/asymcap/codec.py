"""Random codebook generation, channel simulation, and block decoding.

The encoder transmits rows of cx; the decoder only ever sees cu, the
entrywise perturbation of cx, plus the channel output.  All experiment
randomness flows through per-trial Philox streams derived from the master
seed (see rng.derive_seed), so reports are bit-identical for a given
configuration no matter how trials are scheduled.  Both decoding rules read
only each decoder row's (u, y) cell counts against the output, from
cell-major tables: one contiguous (trials, messages) slab per cell.
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
    _check_inputs,
    _entropy_bits,
    _freeze,
    _probability,
    bsc,
    build_joint_uy,
)
from .rng import (
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


def _check_codebook_size(M: int, n: int) -> None:
    """Raise unless M and n are at least 1 and M x n cells fit CODEBOOK_CELL_CAP."""
    if M < 1 or n < 1:
        raise DomainError("M and n must be at least 1")
    if M * n > CODEBOOK_CELL_CAP:
        raise CodebookLimitError(
            f"codebook of {M} x {n} = {M * n} cells exceeds cap {CODEBOOK_CELL_CAP}"
        )


def _check_epsilon(epsilon) -> None:
    """Raise unless the typicality slack epsilon is positive and finite."""
    if epsilon is None or not 0.0 < epsilon < math.inf:
        raise DomainError(f"typicality epsilon must be positive and finite, got {epsilon!r}")


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
        _freeze(self, "cx", cx)
        _freeze(self, "cu", cu)

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
    return CodebookPair(*_drawn_pair(M, n, px, pux, seed), seed)


def _drawn_pair(M: int, n: int, px: Pmf, pux: TransitionMatrix, seed: int):
    """The (cx, cu) int64 arrays (M, n) of generate_codebooks' pair for seed,
    drawn into fresh arrays that the caller owns."""
    _check_codebook_size(M, n)
    _check_inputs(px, pux=pux)
    keys = derive_seeds(seed, [0], (TAG_CODEBOOK, TAG_PERTURB))
    cdf_x, cdfs_u = capped_cdf(px.probs), capped_cdf(pux.matrix)
    cx, cu = _codebooks(StreamSeries(), *keys, np.empty((1, M, n)), cdf_x, cdfs_u)
    return cx[0], cu[0]


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


def _count_scores(columns, logvals: np.ndarray) -> np.ndarray:
    """Sum columns[c] * logvals[c] over cells c in ascending order; columns
    yields one count array per cell, as a cell-major table does.

    Zero counts contribute exactly zero even against -inf log entries, and
    the fixed accumulation order makes scores reproducible down to the bit
    by any implementation that sums the same way.  Every product is taken
    in float64, whatever the dtypes of the counts and the log values, and
    integer counts, int64 or float32, convert to it exactly: both give the
    same scores.
    """
    total = 0.0
    for counts, lv in zip(columns, logvals):
        term = (np.where(counts > 0, -np.inf, 0.0) if lv == -np.inf
                else np.multiply(counts, lv, dtype=np.float64))
        total = np.add(total, term, out=term)  # into the fresh term: one array less
    return total


def _indicator_dtype(n: int):
    """Float dtype in which a sum of at most n zeros and ones is exact in
    any order: float32 holds every integer up to 2^24."""
    return np.float32 if n <= 1 << 24 else np.float64


def _fresh_counts(cu: np.ndarray, y: np.ndarray, nu: int, ny: int) -> np.ndarray:
    """Cell-major (nu * ny, T, M) counts of the (u, y) cells, u * ny + y, of
    outputs y (T, n) against their own decoder codebooks cu (T, M, n): one
    bincount over all rows of the block, indexed cell * T * M + row."""
    T, M, _ = cu.shape
    idx = np.multiply(cu, ny * T * M)
    idx += y[:, None, :] * (T * M)
    idx += np.arange(T * M).reshape(T, M, 1)
    return np.bincount(idx.ravel(), minlength=nu * ny * T * M).reshape(nu * ny, T, M)


def _shared_counts(cu: np.ndarray, nu: int, ny: int):
    """The counting function y (T, n) -> _fresh_counts for one decoder
    codebook cu (M, n) that every trial shares, in _indicator_dtype(n).

    Only the cells with u < nu - 1 and y < ny - 1 are counted, by one
    product of the indicators (cu == u), built once as a ((nu - 1) * M, n)
    matrix, with a block's one-hot outputs (n, T * (ny - 1)).  Every other
    cell is an integer difference: a cell (u, ny - 1) is the row's count of
    u, taken once, less its counted cells; a cell (nu - 1, y) is the
    output's count of y, taken per block, less the cells (u < nu - 1, y).
    Every value is an integer of at most n, exact in _indicator_dtype(n)
    whatever the order of the sums, so the counts equal _fresh_counts' to
    the bit, and _count_scores scores them alike.
    """
    M, n = cu.shape
    dtype = _indicator_dtype(n)
    indicators = (cu == np.arange(nu - 1)[:, None, None]).astype(dtype)
    row_counts = indicators.sum(axis=2)[:, None, :]  # (nu - 1, 1, M)
    indicators = indicators.reshape((nu - 1) * M, n)

    def counts(y):
        T = y.shape[0]
        onehot = (y.T[:, :, None] == np.arange(ny - 1)).astype(dtype).reshape(n, T * (ny - 1))
        table = np.empty((nu, ny, T, M), dtype)
        # BLAS is exact here: each sum is an integer of at most n, exact in dtype in any order
        product = (indicators @ onehot).reshape(nu - 1, M, T, ny - 1)
        table[:-1, :-1] = product.transpose(0, 3, 2, 1)
        last, bottom = table[:-1, -1], table[-1]  # the derived cells, each summed in place
        np.subtract(row_counts, table[:-1, :-1].sum(axis=1, out=last), out=last)
        y_counts = (y == np.arange(ny)[:, None, None]).sum(axis=2, dtype=dtype)
        np.subtract(y_counts[:, :, None], table[:-1].sum(axis=0, out=bottom), out=bottom)
        return table.reshape(nu * ny, T, M)

    return counts


def _map_rule(pyu: TransitionMatrix):
    """Maximum likelihood under the induced channel p(y|u): cell-major count
    tables (nu * ny, T, M) to 1-based decisions (T,), the lowest index of
    equal scores."""
    with np.errstate(divide="ignore"):
        logp = np.log(pyu.matrix).ravel()
    return lambda counts: np.argmax(_count_scores(counts, logp), axis=-1) + 1


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
    hu, hy, huy = (_entropy_bits(p[None])[0] for p in (pu, py, t))

    def typical(columns, logvals, entropy):
        rate = _count_scores(columns, logvals)
        rate /= -n  # the empirical rate -score / n, to the same bits, in place
        return np.abs(np.subtract(rate, entropy, out=rate), out=rate) < epsilon

    def decide(counts):
        counts_y = (sum(counts[a * ny + b, :, 0] for a in range(nu)) for b in range(ny))
        ok = typical(counts_y, ly, hy)[:, None] & typical(counts, luy, huy)
        # the u test only on the rows that pass the other two, which most rows
        # fail: a block's whole u margin would cost as much as its joint test
        rows = np.flatnonzero(ok)
        hits = counts.reshape(nu, ny, -1)[:, :, rows]
        counts_u = (sum(hits[a, b] for b in range(ny)) for a in range(nu))
        ok.ravel()[rows] = typical(counts_u, lu, hu)
        return np.where(ok.sum(axis=-1) == 1, np.argmax(ok, axis=-1) + 1, 0)

    return decide


def _checked_counts(y, pair: CodebookPair, nu: int, ny: int) -> np.ndarray:
    """The (nu * ny, 1, M) count table of one output y against pair's
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
    _check_epsilon(epsilon)
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

    def __post_init__(self):
        _check_codebook_size(self.M, self.n)
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.decoder not in (DECODER_MAP, DECODER_TYPICALITY):
            raise DomainError(f"unknown decoder {self.decoder!r}")
        if self.decoder == DECODER_TYPICALITY:
            _check_epsilon(self.epsilon)
        elif self.epsilon is not None:
            raise DomainError("epsilon only applies to the typicality decoder")
        if self.codebook_mode not in (MODE_FRESH, MODE_FIXED):
            raise DomainError(f"unknown codebook_mode {self.codebook_mode!r}")
        _check_inputs(self.px, self.pyx, self.pux)

    @staticmethod
    def binary_symmetric(n: int, M: int, p1: float, p2: float, **options) -> "SimConfig":
        """Uniform binary input, BSC(p1) channel, BSC(p2) perturbation; options
        set the remaining fields (decoder, epsilon, trials, ...) by name."""
        return SimConfig(n=n, M=M, px=Pmf.uniform(2), pyx=bsc(_probability("p1", p1)),
                         pux=bsc(_probability("p2", p2)), **options)

    def echo(self) -> dict:
        """JSON-ready snapshot of the effective configuration: the scalar
        fields, the crossovers p1 and p2 of pyx and pux (see _crossover),
        then the px, pyx and pux tables as nested lists."""
        tables = {"px": self.px.probs, "pyx": self.pyx.matrix, "pux": self.pux.matrix}
        echo = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in tables}
        echo |= {"p1": _crossover(self.pyx.matrix), "p2": _crossover(self.pux.matrix)}
        return echo | {name: t.tolist() for name, t in tables.items()}


def _crossover(m: np.ndarray) -> float | None:
    """The crossover p of a binary symmetric table, else None.  bsc(p)'s
    off-diagonal entry is p itself, as fl(fl(1 - p) + p) = 1 leaves its
    row sum exact."""
    if m.shape == (2, 2) and m[0, 0] == m[1, 1] and m[0, 1] == m[1, 0]:
        return float(m[0, 1])
    return None


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


def _codebooks(series: StreamSeries, keys_x, keys_u, buf: np.ndarray, cdf_x, cdfs_u):
    """Codebook pairs (T, M, n), one per pair of encoder and perturbation
    stream keys (uint64, T each), drawn exactly as generate_codebooks draws
    the pair of a seed.  buf (T, M, n) takes both draws' uniforms in turn."""
    series.fill_random(keys_x, buf)
    cx = rows_from_uniforms(cdf_x, None, buf)
    series.fill_random(keys_u, buf)
    return cx, rows_from_uniforms(cdfs_u, cx, buf)


def _trial_errors(cfg: SimConfig, decide, shared=None, collide=0):
    """The trial kernel: per-message error and sent counts over trials
    [0, cfg.trials), run in spans of blocks.  decide maps a block's
    cell-major (nu * ny, T, M) count tables to 1-based decisions: int64
    tables of per-trial pairs, or _shared_counts' exact float tables of a
    shared pair, which _count_scores scores to the same bits.  shared is
    the (cx, cu) pair (M, n) every trial uses, or None to draw each
    trial's pair from its seed.  A block holds TRIAL_BLOCK_CELLS
    codebook cells of per-trial pairs, or of a shared pair
    TRIAL_BLOCK_CELLS // max(M, n) trials, as its counts grow with
    trials x M and its uniforms, outputs and one-hot outputs with
    trials x n; every block draws its codebook and channel uniforms into
    the same two buffers.  A span is TRIAL_BLOCK_CELLS trials rounded down
    to whole blocks: its trials' stream keys and messages are derived at
    once, so key memory stays bounded whatever the trial count.  Messages
    are uniform draws, or with collide > 0 sent round robin over the first
    collide indices.  Every trial's streams are keyed by its index, so the
    counts depend on neither the block nor the span size.
    """
    M, n = cfg.M, cfg.n
    nu, ny = cfg.pux.output_size, cfg.pyx.output_size
    series = StreamSeries()
    cdfs_y = capped_cdf(cfg.pyx.matrix)
    block = max(1, TRIAL_BLOCK_CELLS // (M * n if shared is None else max(M, n)))
    if shared is None:
        cdf_x, cdfs_u = capped_cdf(cfg.px.probs), capped_cdf(cfg.pux.matrix)
        buf = np.empty((block, M, n))
    else:
        cx, counts = shared[0][None], _shared_counts(shared[1], nu, ny)
    span = TRIAL_BLOCK_CELLS // block * block
    u = np.empty((block, n))
    tags = (TAG_CODEBOOK, TAG_MESSAGE, TAG_CHANNEL)
    errs, sent = np.zeros((2, M), dtype=np.int64)
    for start in range(0, cfg.trials, span):
        ts = np.arange(start, min(start + span, cfg.trials))
        pair_seeds, msg_keys, chan_keys = derive_seeds(cfg.master_seed, ts, tags)
        if shared is None:
            keys_x, keys_u = derive_seeds(pair_seeds, 0, (TAG_CODEBOOK, TAG_PERTURB))
        if collide:
            msgs = ts % collide
        else:
            msgs = np.array([series.open(k).integers(M) for k in msg_keys.tolist()],
                            dtype=np.int64)
        for lo in range(0, ts.size, block):
            b = slice(lo, lo + block)
            w = msgs[b]
            T = w.size
            if shared is None:
                cx, cu = _codebooks(series, keys_x[b], keys_u[b], buf[:T], cdf_x, cdfs_u)
            series.fill_random(chan_keys[b], u[:T])
            sent_rows = cx[np.arange(T) % cx.shape[0], w]  # a shared pair has one row
            y = rows_from_uniforms(cdfs_y, sent_rows, u[:T])
            # null (0) and wrong indices both count; no count table outlives its block
            wrong = decide(_fresh_counts(cu, y, nu, ny) if shared is None else counts(y)) != w + 1
            errs += np.bincount(w[wrong], minlength=M)
        sent += np.bincount(msgs, minlength=M)
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
        shared = _drawn_pair(cfg.M, cfg.n, cfg.px, cfg.pux, cfg.master_seed)
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
    For m_collide >= 2 and at least two trials that is exactly 1: rows
    1..m_collide score identically, the tie-break elects row 1, and
    messages 2..m_collide are never decoded.
    """
    if not 1 <= m_collide <= M:
        raise DomainError(f"m_collide must lie in [1, M], got {m_collide}")
    cfg = SimConfig.binary_symmetric(n, M, p1, p2, trials=trials, codebook_mode=MODE_FIXED,
                                     master_seed=seed)
    cx, cu = _drawn_pair(M, n, cfg.px, cfg.pux, seed)
    cu[:m_collide] = cu[0]
    decide = _map_rule(induced_channel(cfg.px, cfg.pyx, cfg.pux))
    errs, sent = _trial_errors(cfg, decide, (cx, cu), collide=m_collide)
    return _lambda_max(errs, sent)
