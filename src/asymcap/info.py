"""Finite-alphabet probability types and entropy functionals.

All entropies are in bits (base-2 logarithms) with the convention
0 * log(0) = 0.  Probability tables are dense numpy arrays, validated and
renormalized on construction, and frozen afterwards; every operation here
is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _clean_mass(arr: np.ndarray, what: str) -> None:
    """Check that a table is finite, nonnegative and sums to 1 within
    NORM_TOL, then renormalize it in place."""
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what}: non-finite entry")
    if np.any(arr < 0.0):
        raise DomainError(f"{what}: negative entry")
    total = float(arr.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise DomainError(
            f"{what}: entries sum to {total:.9g}, expected 1 within {NORM_TOL:g}"
        )
    arr /= total


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
        arr = np.array(self.probs, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("pmf: expected a non-empty 1-D vector")
        if arr.size > MAX_SYMBOLS:
            raise DimensionMismatch(
                f"pmf: alphabet size {arr.size} exceeds the dense-table cap {MAX_SYMBOLS}"
            )
        _clean_mass(arr, "pmf")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return int(self.probs.size)

    @staticmethod
    def uniform(k: int) -> "Pmf":
        if k < 1:
            raise DimensionMismatch("alphabet size must be at least 1")
        return Pmf(np.full(k, 1.0 / k))

    @staticmethod
    def from_file(path) -> "Pmf":
        rows = load_matrix(path)
        if rows.shape[0] != 1:
            raise MatrixFileError(
                f"{path}: expected a single row for a pmf, got {rows.shape[0]} rows"
            )
        try:
            return Pmf(rows[0])
        except ValueError as exc:
            raise MatrixFileError(f"{path}: row 1: {exc}") from exc


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix; rows index inputs, columns index outputs."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatch("transition matrix must be 2-D and non-empty")
        if max(arr.shape) > MAX_SYMBOLS:
            raise DimensionMismatch(
                f"alphabet size {max(arr.shape)} exceeds the dense-table cap {MAX_SYMBOLS}"
            )
        for i in range(arr.shape[0]):
            _clean_mass(arr[i], f"row {i + 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

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
        arr = np.array(self.table, dtype=float, copy=True)
        if not 2 <= arr.ndim <= MAX_AXES:
            raise DimensionMismatch(
                f"joint table must have 2 to {MAX_AXES} axes, got {arr.ndim}"
            )
        if arr.size == 0 or max(arr.shape) > MAX_SYMBOLS:
            raise DimensionMismatch(
                f"each axis needs 1 to {MAX_SYMBOLS} symbols, got shape {arr.shape}"
            )
        _clean_mass(arr, "joint table")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

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
        drop = tuple(a for a in range(self.ndim) if a not in axes)
        t = self.table.sum(axis=drop) if drop else np.array(self.table)
        kept = sorted(axes)
        t = np.transpose(t, [kept.index(a) for a in axes])
        return Pmf(t) if len(axes) == 1 else JointPmf(t)


def _check_axes(ndim: int, axes: tuple[int, ...], what: str) -> None:
    for a in axes:
        if not 0 <= a < ndim:
            raise IndexError(f"{what}: axis {a} out of range for {ndim} axes")
    if len(set(axes)) != len(axes):
        raise DimensionMismatch(f"{what}: repeated axis")


def _entropy_bits(arr: np.ndarray) -> float:
    pos = arr[arr > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) symbol.

    Raises DomainError for p outside [0, 1].
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))


def entropy(pmf: Pmf) -> float:
    """Shannon entropy of a pmf in bits."""
    return _entropy_bits(pmf.probs)


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
    return float((j.table * _log_ratios(j.table)).sum())


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

    both = tuple(sorted(target + given))
    drop_both = tuple(a for a in range(j.ndim) if a not in both)
    h_both = _entropy_bits(j.table.sum(axis=drop_both) if drop_both else j.table)
    if not given:
        return h_both
    drop_given = tuple(a for a in range(j.ndim) if a not in given)
    h_given = _entropy_bits(j.table.sum(axis=drop_given))
    return h_both - h_given


def check_markov(j: JointPmf) -> float:
    """Largest deviation of p(a,c|b) from p(a|b) p(c|b) over a 3-D joint.

    Conditioning symbols b with p(b) = 0 are skipped.  A return value of 0
    means the chain A - B - C holds exactly.
    """
    if j.ndim != 3:
        raise DimensionMismatch("check_markov expects a 3-D joint over (A, B, C)")
    t = j.table
    pb = t.sum(axis=(0, 2))
    pab = t.sum(axis=2)
    pcb = t.sum(axis=0)
    good = pb > 0
    if not np.any(good):
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = t / pb[None, :, None]
        prod = (pab / pb[None, :])[:, :, None] * (pcb / pb[:, None])[None, :, :]
        dev = np.abs(cond - prod)
    return float(dev[:, good, :].max())


def _kernel(pyx: TransitionMatrix, pux: TransitionMatrix, px: Pmf | None = None):
    """The model's map from p(x) to p(u, y): (A, nu, ny) with row x of
    A (nx, nu*ny) the flattened table p(u|x) p(y|x), so q = p @ A.  Checks
    that the input alphabets of the tables given, px too if given, agree."""
    sizes = {"channel": pyx.input_size, "perturbation": pux.input_size}
    if px is not None:
        sizes = {"px": px.size} | sizes
    if len(set(sizes.values())) > 1:
        raise DimensionMismatch(
            "input alphabets disagree: " + ", ".join(f"{k} has {v}" for k, v in sizes.items())
        )
    nx, nu, ny = pyx.input_size, pux.output_size, pyx.output_size
    return (pux.matrix[:, :, None] * pyx.matrix[:, None, :]).reshape(nx, nu * ny), nu, ny


def build_joint_uy(px: Pmf, pyx: TransitionMatrix, pux: TransitionMatrix) -> JointPmf:
    """Joint law of (U, Y) when X ~ px feeds channel pyx and perturbation pux.

    table[u, y] = sum_x px[x] * pux[x, u] * pyx[x, y], one row times _kernel.
    """
    a, nu, ny = _kernel(pyx, pux, px)
    return JointPmf((px.probs[None] @ a).reshape(nu, ny))


def build_joint_xuyv(px: Pmf, p1: float, p2: float) -> JointPmf:
    """Joint law of (X, U, Y, V) for a binary input under independent flips.

    Z1 ~ Bernoulli(p1) is the channel noise and Z2 ~ Bernoulli(p2) the
    codebook perturbation; U = X xor Z2, Y = X xor Z1, V = X xor Z1 xor Z2.
    Axes are ordered (x, u, y, v).
    """
    if px.size != 2:
        raise DimensionMismatch("px must be binary")
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= float(p) <= 1.0:
            raise DomainError(f"{name}={p!r} outside [0, 1]")
    p1 = float(p1)
    p2 = float(p2)
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for z1 in (0, 1):
            for z2 in (0, 1):
                w = (
                    px.probs[x]
                    * (p1 if z1 else 1.0 - p1)
                    * (p2 if z2 else 1.0 - p2)
                )
                table[x, x ^ z2, x ^ z1, x ^ z1 ^ z2] += w
    return JointPmf(table)


def composite_crossover(p1: float, p2: float) -> float:
    """Crossover of two independent binary flips in series: p1 + p2 - 2 p1 p2."""
    return p1 + p2 - 2.0 * p1 * p2


def bsc_capacity_gap(p1: float, p2: float) -> float:
    """Capacity lost to a BSC(p2) perturbation of a BSC(p1) channel, in
    bits: H(q) - H(p1) with q the composite crossover."""
    return binary_entropy(composite_crossover(p1, p2)) - binary_entropy(p1)


def bsc(p: float) -> TransitionMatrix:
    """Binary symmetric channel with crossover probability p."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"crossover {p!r} outside [0, 1]")
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
