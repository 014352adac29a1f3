"""Finite-alphabet probability types and entropy functionals.

All entropies are in bits (base-2 logarithms) with the convention
0 * log(0) = 0, summed over every cell of a table in C order, zero cells
included.  Probability tables are dense numpy arrays, validated and
renormalized on construction, and frozen afterwards; every operation here
is a pure function of its inputs.

The private table kernels take a stack of tables along axis 0, always,
and give one result per table: _clean_mass, _marginal_sum, _entropy_bits,
_conditional_entropy and _conditional_mutual_information.  A single table
is passed as the one-table stack t[None] and its result read off as [0];
the public functions are validating wrappers that do exactly that, so one
table and a grid of them get the same bits from the same code.
_log_ratios, _mutual_information and _markov_deviation work on the
trailing axes, so a table or a stack passes through them alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "DomainError",
    "DimensionMismatch",
    "MatrixFileError",
    "Pmf",
    "TransitionMatrix",
    "JointPmf",
    "binary_entropy",
    "composite_crossover",
    "bsc_capacity_gap",
    "entropy",
    "mutual_information",
    "conditional_entropy",
    "check_markov",
    "build_joint_uy",
    "build_joint_xuyv",
    "bsc",
    "load_matrix",
]

# Tables are renormalized when total mass is within NORM_TOL of 1 and
# rejected otherwise.
NORM_TOL = 1e-6
MAX_AXES = 4
MAX_SYMBOLS = 64


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


class DimensionMismatch(ValueError):
    """Array shapes or alphabet sizes are incompatible."""


class MatrixFileError(ValueError):
    """A plain-text matrix file failed to parse."""


def _clean_mass(arr: np.ndarray, what: str) -> np.ndarray:
    """Check that each table of the stack arr is finite, nonnegative and sums
    to 1 within NORM_TOL; renormalize it in place."""
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what}: non-finite entry")
    if np.any(arr < 0.0):
        raise DomainError(f"{what}: negative entry")
    total = arr.sum(axis=tuple(range(1, arr.ndim)), keepdims=True)
    off = abs(total - 1.0) > NORM_TOL
    if off.any():
        raise DomainError(f"{what}: entries sum to {np.extract(off, total)[0]:.9g}, "
                          f"expected 1 within {NORM_TOL:g}")
    arr /= total
    return arr


def _freeze(obj, field: str, arr: np.ndarray) -> None:
    """Store arr, made read-only, as field of the frozen dataclass obj."""
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


def _table(obj, field: str, axes: tuple[int, int], what: str, per_row: bool = False) -> None:
    """Validate and freeze a float copy of obj's probability table field.

    The table needs axes[0] to axes[1] axes of 1 to MAX_SYMBOLS symbols
    each; its mass is checked and renormalized as a whole (_clean_mass),
    or with per_row row by row, in one pass over the rows.  A bad row is
    named by its 1-based index: the first bad one, with its first failed
    check in _clean_mass's order.
    """
    arr = np.array(getattr(obj, field), dtype=float, copy=True)
    lo, hi = axes
    if not lo <= arr.ndim <= hi or arr.size == 0 or max(arr.shape) > MAX_SYMBOLS:
        span = f"{lo}" if lo == hi else f"{lo} to {hi}"
        raise DimensionMismatch(f"{what}: expected {span} {'axis' if hi == 1 else 'axes'} of "
                                f"1 to {MAX_SYMBOLS} symbols, got shape {arr.shape}")
    stack = arr[:, None] if per_row else arr[None]
    try:
        _clean_mass(stack, what)
    except DomainError:
        if per_row:  # name the first bad row
            for i, row in enumerate(stack):
                _clean_mass(row, f"row {i + 1}")
        raise
    _freeze(obj, field, arr)


def _probability(name: str, p):
    """p as a float (a float array for an array), or DomainError naming it
    unless every entry lies in [0, 1] (NaN does not).  Callers that take
    one number apply float() to the result, which rejects arrays."""
    p = np.asarray(p, dtype=float)[()]  # a numpy scalar for a float
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise DomainError(f"{name}={float(np.extract(~inside, p)[0])!r} outside [0, 1]")
    return p if isinstance(p, np.ndarray) else float(p)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on the alphabet {0, ..., K-1}.

    Parameters
    ----------
    probs : array-like
        Nonnegative entries summing to 1 within the normalization
        tolerance; renormalized exactly on construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        _table(self, "probs", (1, 1), "pmf")

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(k: int) -> "Pmf":
        if k < 1:
            raise DimensionMismatch("alphabet size must be at least 1")
        return Pmf(np.full(k, 1.0 / k))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix; rows index inputs, columns index outputs."""

    matrix: np.ndarray

    def __post_init__(self):
        _table(self, "matrix", (2, 2), "transition matrix", per_row=True)

    @property
    def input_size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def output_size(self) -> int:
        return int(self.matrix.shape[1])

    @staticmethod
    def identity(k: int) -> "TransitionMatrix":
        return TransitionMatrix(np.eye(k))

    @staticmethod
    def from_file(path) -> "TransitionMatrix":
        rows = load_matrix(path)
        try:
            return TransitionMatrix(rows)
        except ValueError as exc:
            raise MatrixFileError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class JointPmf:
    """Dense joint distribution over 2 to 4 finite alphabets."""

    table: np.ndarray

    def __post_init__(self):
        _table(self, "table", (2, MAX_AXES), "joint table")

    @property
    def ndim(self) -> int:
        return int(self.table.ndim)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.table.shape)

    def marginal(self, axes: tuple[int, ...]):
        """Marginal over `axes`, returned with axes in the requested order.

        Returns a Pmf for a single axis and a JointPmf otherwise.
        """
        axes = tuple(int(a) for a in axes)
        _check_axes(self.ndim, axes, "marginal axes")
        if len(axes) == 0:
            raise DimensionMismatch("marginal needs at least one axis")
        return (Pmf if len(axes) == 1 else JointPmf)(_marginal_sum(self.table[None], axes)[0])


def _marginal_sum(t: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Sum of each table of the stack t onto its `axes`, in order."""
    drop = tuple(1 + a for a in range(t.ndim - 1) if a not in axes)
    kept = sorted(axes)
    return np.transpose(t.sum(axis=drop) if drop else np.array(t),
                        [0, *(1 + kept.index(a) for a in axes)])


def _check_axes(ndim: int, axes: tuple[int, ...], what: str) -> None:
    for a in axes:
        if not 0 <= a < ndim:
            raise IndexError(f"{what}: axis {a} out of range for {ndim} axes")
    if len(set(axes)) != len(axes):
        raise DimensionMismatch(f"{what}: repeated axis")


def _entropy_bits(arr: np.ndarray) -> np.ndarray:
    """Entropy in bits of each table of the stack arr: -sum p log2 p over
    all its cells in C order, 0 log2 0 = 0.  No cell is dropped, so a table
    adds the same terms in the same order alone and in any stack."""
    rows = arr.reshape(len(arr), arr[:1].size)  # an empty stack has rows of 0 cells
    # log2(1) = 0 stands in for log2(0); 0.0 - x keeps H = +0.0
    return 0.0 - (rows * np.log2(np.where(rows > 0, rows, 1.0))).sum(axis=-1)


def binary_entropy(p):
    """Entropy in bits of a Bernoulli(p) symbol, elementwise for an array (a
    float for a float).  Raises DomainError for any p outside [0, 1] or NaN.
    It keeps its own closed form, not _entropy_bits, because verify checks
    the kernel's entropies against it: a shared defect would cancel."""
    p = _probability("probability", p)
    q = 1.0 - p  # below, log2(1) = 0 stands in for log2(0); 0.0 - x keeps H(0) = +0.0
    h = 0.0 - (p * np.log2(p + (p == 0.0)) + q * np.log2(q + (q == 0.0)))
    return h if isinstance(h, np.ndarray) else float(h)


def entropy(pmf: Pmf) -> float:
    """Shannon entropy of a pmf in bits."""
    return float(_entropy_bits(pmf.probs[None])[0])


def _log_ratios(t: np.ndarray) -> np.ndarray:
    """log2[t(a,b) / (t(a) t(b))] over the last two axes of t, one or a
    stack of joint tables; 0 where t(a,b) = 0.  I(A;B) is the sum of t times
    these ratios, and the capacity gradient is built from them too."""
    ta, tb = t.sum(axis=-1, keepdims=True), t.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(t) - np.log2(ta) - np.log2(tb)
    return np.where(t > 0, logs, 0.0)


def mutual_information(j: JointPmf) -> float:
    """Mutual information in bits of a 2-D joint distribution."""
    if j.ndim != 2:
        raise DimensionMismatch("mutual_information expects a 2-D joint")
    return float(_mutual_information(j.table))


def _mutual_information(t: np.ndarray, logs: np.ndarray | None = None):
    """I(A;B) in bits over the last two axes of t, one or a stack of joints;
    logs is _log_ratios(t) when the caller already has it."""
    return (t * (_log_ratios(t) if logs is None else logs)).sum(axis=(-2, -1))


def conditional_entropy(
    j: JointPmf, target_axes: tuple[int, ...], given_axes: tuple[int, ...]
) -> float:
    """H(target | given) in bits, computed as H(target, given) - H(given).

    Axes must be valid for `j` and disjoint; `given_axes` may be empty, in
    which case the plain joint entropy of the target axes is returned.
    Conditioning events of probability zero contribute nothing.
    """
    target = tuple(int(a) for a in target_axes)
    given = tuple(int(a) for a in given_axes)
    if not target:
        raise DimensionMismatch("target_axes must be non-empty")
    _check_axes(j.ndim, target, "target_axes")
    _check_axes(j.ndim, given, "given_axes")
    if set(target) & set(given):
        raise DimensionMismatch("target_axes and given_axes overlap")
    return float(_conditional_entropy(j.table[None], target, given)[0])


def _conditional_entropy(t: np.ndarray, target: tuple, given: tuple) -> np.ndarray:
    """H(target | given) of each table of the stack t."""
    def h(axes):  # sorted: no transpose reorders the sum
        return _entropy_bits(_marginal_sum(t, tuple(sorted(axes))))
    return h(target + given) - h(given) if given else h(target)


def _conditional_mutual_information(t: np.ndarray, a: tuple, b: tuple, given: tuple):
    """I(a; b | given) of each table of the stack t, in bits, as
    H(a | given) + H(b | given) - H(a, b | given)."""
    h = partial(_conditional_entropy, t)
    return h(a, given) + h(b, given) - h(a + b, given)


def check_markov(j: JointPmf) -> float:
    """Largest deviation of p(a,c|b) from p(a|b) p(c|b) over a 3-D joint.

    Conditioning symbols b with p(b) = 0 are skipped.  A return value of 0
    means the chain A - B - C holds exactly.
    """
    if j.ndim != 3:
        raise DimensionMismatch("check_markov expects a 3-D joint over (A, B, C)")
    return float(_markov_deviation(j.table))


def _markov_deviation(t: np.ndarray):
    """check_markov over the last three axes of t, one or a stack of joints."""
    pb, pab, pcb = t.sum(axis=(-3, -1)), t.sum(axis=-1), t.sum(axis=-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = t / pb[..., None, :, None]
        prod = (pab / pb[..., None, :])[..., None] * (pcb / pb[..., None])[..., None, :, :]
        dev = np.abs(cond - prod)
    return np.where((pb > 0)[..., None, :, None], dev, 0.0).max(axis=(-3, -2, -1))


def _check_inputs(px: Pmf | None = None, pyx: TransitionMatrix | None = None,
                  pux: TransitionMatrix | None = None) -> None:
    """Raise DimensionMismatch unless the input alphabets of the tables
    given agree; the message names each of them with its size."""
    sizes = {"px": None if px is None else px.size,
             "channel": None if pyx is None else pyx.input_size,
             "perturbation": None if pux is None else pux.input_size}
    sizes = {k: v for k, v in sizes.items() if v is not None}
    if len(set(sizes.values())) > 1:
        raise DimensionMismatch(
            "input alphabets disagree: " + ", ".join(f"{k} has {v}" for k, v in sizes.items())
        )


def _mix(P: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row i is sum_x P[i, x] a[x], with no BLAS call (einsum, no optimize): the
    shapes fix its sum order, whatever the kernel, and each row has its one-row bits."""
    return np.einsum("rx,xc->rc", P, a)


def _row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise sum_j X[i, j] Y[i, j] by _mix's rule; every pinned product is one of the two."""
    return np.einsum("ij,ij->i", X, Y)


def _kernel(pyx: TransitionMatrix, pux: TransitionMatrix, px: Pmf | None = None):
    """The model's map from p(x) to p(u, y): (A, nu, ny) with row x of
    A (nx, nu*ny) the flattened table p(u|x) p(y|x), so q = _mix(p, A).  Checks
    that the input alphabets of the tables given, px too if given, agree."""
    _check_inputs(px, pyx, pux)
    nx, nu, ny = pyx.input_size, pux.output_size, pyx.output_size
    return (pux.matrix[:, :, None] * pyx.matrix[:, None, :]).reshape(nx, nu * ny), nu, ny


def build_joint_uy(px: Pmf, pyx: TransitionMatrix, pux: TransitionMatrix) -> JointPmf:
    """Joint law of (U, Y) when X ~ px feeds channel pyx and perturbation pux.

    table[u, y] = sum_x px[x] * pux[x, u] * pyx[x, y], one row times _kernel.
    """
    a, nu, ny = _kernel(pyx, pux, px)
    return JointPmf(_mix(px.probs[None], a).reshape(nu, ny))


def build_joint_xuyv(px: Pmf, p1: float, p2: float) -> JointPmf:
    """Joint law of (X, U, Y, V) for a binary input under independent flips.

    Z1 ~ Bernoulli(p1) is the channel noise and Z2 ~ Bernoulli(p2) the
    codebook perturbation; U = X xor Z2, Y = X xor Z1, V = X xor Z1 xor Z2.
    Axes are ordered (x, u, y, v).
    """
    if px.size != 2:
        raise DimensionMismatch("px must be binary")
    p1, p2 = float(_probability("p1", p1)), float(_probability("p2", p2))
    return JointPmf(_xuyv_table(px.probs, p1, p2))


def _xuyv_table(px: np.ndarray, p1, p2) -> np.ndarray:
    """build_joint_xuyv's table before renormalization, stacked over p1's shape."""
    x, z1, z2 = np.indices((2, 2, 2)).reshape(3, -1)
    flip1, flip2 = np.stack([1.0 - p1, p1], -1), np.stack([1.0 - p2, p2], -1)
    table = np.zeros(np.shape(p1) + (2, 2, 2, 2))
    table[..., x, x ^ z2, x ^ z1, x ^ z1 ^ z2] = px[x] * flip1[..., z1] * flip2[..., z2]
    return table


def composite_crossover(p1, p2):
    """Crossover of two independent binary flips in series: p1 + p2 - 2 p1 p2."""
    return p1 + p2 - 2.0 * p1 * p2


def bsc_capacity_gap(p1, p2):
    """Capacity lost to a BSC(p2) perturbation of a BSC(p1) channel, in
    bits: H(q) - H(p1) with q the composite crossover."""
    return binary_entropy(composite_crossover(p1, p2)) - binary_entropy(p1)


def bsc(p: float) -> TransitionMatrix:
    """Binary symmetric channel with crossover probability p."""
    p = float(_probability("crossover", p))
    return TransitionMatrix(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def load_matrix(path) -> np.ndarray:
    """Parse a plain-text matrix file.

    One row per line, whitespace-separated decimal entries; blank lines and
    lines starting with '#' are ignored.  Raises MatrixFileError naming the
    offending line on any parse failure.
    """
    rows: list[list[float]] = []
    first_width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                vals = [float(tok) for tok in stripped.split()]
            except ValueError as exc:
                raise MatrixFileError(
                    f"{path}: line {lineno}: unparseable entry ({stripped!r})"
                ) from exc
            if first_width is None:
                first_width = len(vals)
            elif len(vals) != first_width:
                raise MatrixFileError(
                    f"{path}: line {lineno}: expected {first_width} entries, got {len(vals)}"
                )
            rows.append(vals)
    if not rows:
        raise MatrixFileError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
