"""Single-table entropy functionals, written out independently of info's
stacked kernels: the reference the kernel tests compare against by bits.

Each function takes one table, not a stack, and spells out its expression
on that table alone: the full-row sum -sum p log2 p over every cell in C
order, zero cells adding 0, the marginal as a sum and a transpose, and the
renormalization by the total over all axes.
"""

import numpy as np


def clean_mass(arr):
    """arr divided in place by its total over all axes, as the table
    constructors renormalize; returns arr."""
    arr /= arr.sum(axis=tuple(range(arr.ndim)), keepdims=True)
    return arr


def entropy(arr):
    """Entropy in bits of one table, over all its cells in C order: a zero
    cell adds 0 * log2(1) = 0."""
    cells = arr.ravel()
    return float(0.0 - (cells * np.log2(cells + (cells == 0.0))).sum())


def marginal(t, axes):
    """JointPmf.marginal's table: t summed onto `axes`, in order, copied to
    float and renormalized as a constructed table is."""
    drop = tuple(a for a in range(t.ndim) if a not in axes)
    kept = sorted(axes)
    summed = t.sum(axis=drop) if drop else np.array(t)
    return clean_mass(np.array(np.transpose(summed, [kept.index(a) for a in axes]), dtype=float))


def conditional_entropy(t, target, given):
    """H(target | given) of one table, as H(target, given) - H(given)."""
    def h(axes):
        drop = tuple(a for a in range(t.ndim) if a not in axes)
        return entropy(t.sum(axis=drop) if drop else t)
    return h(target + given) - h(given) if given else h(target)
