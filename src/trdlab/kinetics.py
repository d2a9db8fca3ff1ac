"""The rate law's reactant product, the Lipschitz regularization, and the
scalar entropy kernel.

All evaluators accept either a single state vector of shape (m,) or a
batch of cell states of shape (m, ...); the species axis is always the
first one.  A regularization level is its n alone: the system that
fixes the exponents travels with the state.  For B n-levels advanced
together, n is an array of shape (B, 1, ...) or (B, *grid), and the
states have shape (m, B, *grid).
"""

from __future__ import annotations

import numpy as np

from .grid import work_array

__all__ = [
    "reactant_product",
    "phi",
    "entropy_kernel",
]


def reactant_product(alpha: np.ndarray, reactants: np.ndarray, work: dict | None = None) -> np.ndarray:
    """prod_j r_j^{alpha_j} over the leading (reactant) axis, with the
    0^0 = 1 convention (spectator species with alpha_j = 0 contribute a
    unit factor).  Unit exponents are skipped, as their power is exact.
    Each other factor is a power with a full exponent array: numpy takes
    x*x or sqrt(x) for a scalar exponent 2 or 1/2, or one broadcast over
    an array too large to buffer, which rounds unlike its power on a small
    array, so a cell's product would depend on the size of its batch.
    The product and the exponent arrays are arrays of `work`."""
    shape = (1,) + reactants.shape[1:]  # a slice: one cell's factor is an array too
    prod = work_array(work, "prod", shape)
    for j, a in enumerate(alpha):
        r = reactants[j : j + 1]
        factor = r if a == 1.0 else np.power(r, _exponent(work, a, shape), out=work_array(work, "factor", shape))
        np.multiply(prod if j else 1.0, factor, out=prod)  # the product starts at 1
    return prod[0]


def _exponent(work: dict | None, a: float, shape: tuple[int, ...]) -> np.ndarray:
    """The array of `work` with a in every entry, filled when it is made."""
    name = f"exponent {float(a)!r}"
    made = None if work is None else work.get(name)
    e = work_array(work, name, shape)
    if e is not made:
        e.fill(a)
    return e


def phi(Q: float, n, total, work: dict | None = None):
    """The regularizer 1 + total^{Q+2}/n at the species sum `total`;
    exactly 1 for n = +inf, where total^{Q+2}/n is 0.  An array of `work`."""
    out = np.power(total, Q + 2.0, out=work_array(work, "phi", np.shape(total)))  # Q + 2 >= 3: as total ** (Q + 2)
    out /= n
    out += 1.0
    return out


def entropy_kernel(a, work: dict | None = None) -> np.ndarray | float:
    """a (ln a - 1) + 1 with 0 ln 0 = 0 (value 1 at a = 0); nonnegative,
    vanishing only at a = 1.  An array result is an array of `work`."""
    a = np.asarray(a, dtype=float)
    pos = np.greater(a, 0.0, out=work_array(work, "kernel_mask", a.shape, bool))
    val = work_array(work, "kernel", a.shape)
    np.copyto(val, 1.0)
    np.copyto(val, a, where=pos)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(val, out=val)
        val -= 1.0
        val *= a
        val += 1.0
    np.copyto(val, 1.0, where=np.logical_not(pos, out=pos))
    return float(val) if val.ndim == 0 else val
