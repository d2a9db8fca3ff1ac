"""Run monitors: entropy, dissipation, norms, masses, invariant residuals,
and the entropy-balance check.

The reaction terms are those of regularization level n, which is a
number (or an array of one per level or per cell): the system whose
rate law they evaluate is the one the FieldSet carries.

Constants that the underlying theory leaves non-constructive (duality and
integrability constants) are not fitted here: the records carry the
space-time L^p norms and the running L^1 product integrals (the CSV's
stlP_i and l1prod_i columns) that such a fit would read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import getitem

import numpy as np

from .fields import FieldSet
from .grid import gradient_energy, per_level, work_array
from .kinetics import entropy_kernel, phi, reactant_product
from .model import DegeneracyClassification, classify

__all__ = [
    "DiagnosticsRecord",
    "DiagnosticsTracker",
    "entropy",
    "dissipation",
    "entropy_balance_check",
    "lp_norms",
    "ENTROPY_FLOOR",
]

# the entropy gate's and the balance check's absolute floor: E(0) = 0 at an equilibrium, and roundoff is not a rise
ENTROPY_FLOOR = 1e-12
_LOG_FLOOR = 1e-30  # keeps reported dissipation finite at vacuum states


def entropy(fields: FieldSet, work: dict | None = None):
    """E = integral of sum_i alpha_i (a_i (ln a_i - 1) + 1) >= 0; a float
    for one state, one value per n-level for a batch; temporaries in `work`."""
    m = fields.system.m
    kern = entropy_kernel(fields.values, work).reshape(m, -1)
    weighted = np.dot(np.reshape(fields.system.alpha, (1, m)), kern, out=work_array(work, "entropy", (1, kern.shape[1])))
    return per_level(fields.grid.cell_sum(weighted.reshape(fields.values.shape[1:])) * fields.grid.cell_measure)


def dissipation(fields: FieldSet, n, work: dict | None = None):
    """Returns (total, gradient_part, reaction_part) at level n: floats
    for one state, one value per n-level for a batch.

    Gradient part: sum_i alpha_i d_i * 4 |grad sqrt(a_i)|^2 (the
    vacuum-safe form of |grad a_i|^2 / a_i).  Reaction part:
    (y - x) ln(y/x) / phi^n per cell with x = prod a_j^alpha_j, y = a_m;
    log arguments are floored at 1e-30 so vacuum states report a finite
    (conservatively truncated) value.  Temporaries go in `work`.
    """
    system = fields.system
    w = np.multiply(system.alpha, system.d)
    rows = np.flatnonzero(w > 0.0)
    y = fields.values[-1]
    gathered = np.take(fields.values, rows, axis=0, out=work_array(work, "rows", rows.shape + y.shape), mode="clip")
    energies = gradient_energy(fields.grid, gathered, weighted=True, work=work) if rows.size else ()
    grad_part = per_level(sum(w[i] * e for i, e in zip(rows, energies)))
    x = reactant_product(system.reactant_alpha, fields.values[:-1], work)
    total = np.sum(fields.values, axis=0, out=work_array(work, "total", y.shape))
    phi_x = phi(system.Q, n, total, work)
    log = np.maximum(y, _LOG_FLOOR, out=work_array(work, "log", y.shape))
    log /= np.maximum(x, _LOG_FLOOR, out=work_array(work, "term", y.shape))
    term = np.subtract(y, x, out=work_array(work, "term", y.shape))
    term *= np.log(log, out=log)
    term /= phi_x
    reaction_part = per_level(fields.grid.cell_sum(term) * fields.grid.cell_measure)
    return grad_part + reaction_part, grad_part, reaction_part


def lp_norms(fields: FieldSet, exponents) -> dict[float, np.ndarray]:
    """Per-species spatial L^p norms; p may include math.inf."""
    out = {}
    meas = fields.grid.cell_measure
    flat = fields.values.reshape(fields.system.m, -1)
    for p in exponents:
        if math.isinf(p):
            out[p] = np.abs(flat).max(axis=1)
        else:
            if p < 1:
                raise ValueError("Lebesgue exponent must be >= 1")
            out[p] = (np.abs(flat) ** p * meas).sum(axis=1) ** (1.0 / p)
    return out


def m2_bound(system, e0: float, domain_measure: float) -> float:
    """M2 = max(alpha) e^2 |Omega| + (max alpha / min alpha) E(0); zero
    exponents are excluded from the min (weight-0 species carry no
    entropy)."""
    pos = [a for a in system.alpha if a > 0]
    return max(system.alpha) * math.e**2 * domain_measure + (max(system.alpha) / min(pos)) * e0


@dataclass
class DiagnosticsRecord:
    time: float
    entropy: float
    dissipation: float
    dissipation_gradient: float
    dissipation_reaction: float
    diss_integral: float  # right-endpoint accumulation of D dt over steps
    min_value: float
    l1: np.ndarray  # per species
    l2: np.ndarray
    lp: dict[float, np.ndarray]
    sup: np.ndarray
    st_lp: dict[float, np.ndarray]  # (integral_0^t ||a||_p^p)^{1/p}
    pair_mass: np.ndarray  # integral of a_i + a_m, i < m
    pair_mass_drift_rel: float
    degenerate_pair_dev: float
    a2_sum_dev: float
    l1_product: np.ndarray  # running integral of a_i^2 + a_i a_m over Omega_t
    mass_total: float
    m2: float
    m2_flag: bool
    e0: float

    def csv_row(self, columns=None) -> list[float]:
        """The cells, read by `columns`, a table of `csv_columns` (this record's own without it)."""
        return [float(read(self)) for _, read in columns or csv_columns(len(self.l1), self.lp)]


def _item(attr: str, *keys):
    """A reader of record.attr[keys[0]][keys[1]]..."""
    return lambda record: reduce(getitem, keys, getattr(record, attr))


def csv_columns(m: int, p_values) -> list[tuple[str, object]]:
    """The diagnostics CSV's columns in order, as (name, reader of a
    DiagnosticsRecord) pairs, over the sorted distinct p: a p labelled 1 or
    2 adds only its stl<p>_i column, as l1_i and l2_i are always there."""
    ps = sorted(set(p_values))
    cols = [(name, _item(name)) for name in ("time", "entropy", "dissipation", "diss_integral", "min_value")]
    for i in range(m):
        per_species = [("l1", _item("l1", i)), ("l2", _item("l2", i))]
        per_species += [(f"l{p:g}", _item("lp", p, i)) for p in ps if f"{p:g}" not in ("1", "2")]
        per_species += [("sup", _item("sup", i))]
        per_species += [(f"stl{p:g}", _item("st_lp", p, i)) for p in ps]
        cols += [(f"{name}_{i + 1}", read) for name, read in per_species]
    cols += [(f"pairmass_{i + 1}", _item("pair_mass", i)) for i in range(m - 1)]
    cols += [(f"l1prod_{i + 1}", _item("l1_product", i)) for i in range(m - 1)]
    tail = ("pair_mass_drift_rel", "degenerate_pair_dev", "a2_sum_dev", "mass_total", "m2_bound", "m2_flag", "e0")
    return cols + [(name, _item("m2" if name == "m2_bound" else name)) for name in tail]


class DiagnosticsTracker:
    """Holds, per n-level, the entropy, dissipation and space-time
    integrals of the latest state passed to `accumulate`, and produces one
    DiagnosticsRecord per observation; n has a leading axis over the B
    n-levels, which share the initial data.  Temporaries go in `work`."""

    def __init__(self, n: np.ndarray, initial: FieldSet, p_values=(4.0,)):
        self.n = n
        self.system = initial.system
        self.p_values = tuple(dict.fromkeys(p_values))  # a repeat would fold its space-time sums twice
        self.classification: DegeneracyClassification = classify(self.system)
        self.e0 = entropy(initial)
        self.m2 = m2_bound(self.system, self.e0, initial.grid.measure)
        m = self.system.m
        self.pair_mass0 = initial.grid.cell_sum(initial.values[:-1] + initial.values[-1]) * initial.grid.cell_measure
        lam1_react = sorted(self.classification.lambda1 - {m})
        self._deg_pairs = [
            (i, j, initial.values[i - 1] - initial.values[j - 1])
            for i, j in zip(lam1_react, lam1_react[1:])
        ]
        self._a2_sums = (
            [(i, initial.values[i - 1] + initial.values[m - 1]) for i in lam1_react]
            if m in self.classification.lambda1
            else []
        )
        levels = np.shape(n)[:1]
        self._st_accum = {p: np.zeros((m,) + levels) for p in self.p_values}
        self._l1prod_accum = np.zeros((m - 1,) + levels)
        self.diss_integral = np.zeros(levels)
        self.entropy = self.dissipation = None  # set by accumulate
        self.work = {}  # one dict per number of states a pass takes

    def accumulate(self, fields: FieldSet, dt: float) -> np.ndarray:
        """The diagnostics pass over the states after k steps of length dt (dt = 0
        for the initial state), stacked in step order as (m, k B, *grid): per
        n-level the entropy, the dissipation (total, gradient part, reaction part)
        and, folded in step by step, the right-endpoint integrals of D and of the
        space-time norms.  Keeps the last step's entropy and dissipation; returns
        every step's entropies.  Each k has a work dict, with n tiled k times."""
        grid = fields.grid
        meas = grid.cell_measure
        k = fields.values.shape[1] // len(self.n)
        work = self.work.get(k)
        if work is None:
            n = self.n if k == 1 else np.tile(self.n, (k,) + (1,) * grid.dimension)
            work = self.work[k] = {"n": n}
        entropies = entropy(fields, work).reshape(k, -1)
        diss = np.array(np.broadcast_arrays(*dissipation(fields, work["n"], work)))
        powers = work_array(work, "kernel", fields.values.shape)  # the entropy kernel's, free again here
        st_sums = []
        for p in self.p_values:
            np.abs(fields.values, out=powers)
            powers **= p
            powers *= meas
            st_sums.append(grid.cell_sum(powers))
        a = fields.values[:-1]
        products = np.multiply(a, a, out=powers[:-1])
        products += np.multiply(a, fields.values[-1], out=work_array(work, "products", a.shape))
        l1prod = grid.cell_sum(products) * meas
        # every sum above is per level, so each step's block of levels is what a pass over it alone gives
        self.diss_integral = _fold(self.diss_integral, diss[0], k, dt)
        for p, s in zip(self.p_values, st_sums):
            self._st_accum[p] = _fold(self._st_accum[p], s, k, dt)
        self._l1prod_accum = _fold(self._l1prod_accum, l1prod, k, dt)
        self.dissipation, self.entropy = diss[:, -len(self.n) :], entropies[-1]
        return entropies

    def observe(self, time: float, fields: FieldSet, level: int) -> DiagnosticsRecord:
        """The record of n-level `level` at `time`: entropy and dissipation
        from the last `accumulate`, the rest from the level's copy `fields`."""
        m = self.system.m
        meas = fields.grid.cell_measure
        norms = lp_norms(fields, (1.0, 2.0) + self.p_values + (math.inf,))
        d_tot, d_grad, d_reac = (float(v) for v in self.dissipation[:, level])
        v = fields.values
        pair_mass = fields.grid.cell_sum(v[:-1] + v[-1]) * meas
        with np.errstate(divide="ignore", invalid="ignore"):
            drift = np.abs(pair_mass - self.pair_mass0) / np.maximum(np.abs(self.pair_mass0), 1e-300)
        deg_dev = max((float(np.abs(v[i - 1] - v[j - 1] - off).max()) for i, j, off in self._deg_pairs), default=0.0)
        a2_dev = max((float(np.abs(v[i - 1] + v[m - 1] - ref).max()) for i, ref in self._a2_sums), default=0.0)
        mass_total = float(v.sum() * meas)
        return DiagnosticsRecord(
            time=time,
            entropy=float(self.entropy[level]),
            dissipation=d_tot,
            dissipation_gradient=d_grad,
            dissipation_reaction=d_reac,
            diss_integral=float(self.diss_integral[level]),
            min_value=fields.min_value(),
            l1=norms[1.0],
            l2=norms[2.0],
            lp={p: norms[p] for p in self.p_values},
            sup=norms[math.inf],
            st_lp={p: self._st_accum[p][:, level] ** (1.0 / p) for p in self.p_values},
            pair_mass=pair_mass,
            pair_mass_drift_rel=float(drift.max()) if m > 1 else 0.0,
            degenerate_pair_dev=deg_dev,
            a2_sum_dev=a2_dev,
            l1_product=self._l1prod_accum[:, level].copy(),
            mass_total=mass_total,
            m2=self.m2,
            m2_flag=mass_total > self.m2 * (1.0 + 1e-9),
            e0=self.e0,
        )


def _fold(total: np.ndarray, steps: np.ndarray, k: int, dt: float) -> np.ndarray:
    """total + block_1 dt + ... + block_k dt, added left to right, for the k
    step blocks of levels that lie in order along the last axis of `steps`."""
    blocks = steps.reshape(steps.shape[:-1] + (k, -1)) * dt
    return np.add.accumulate(np.concatenate([total[..., None, :], blocks], axis=-2), axis=-2)[..., -1, :]


def entropy_balance_check(records, tol: float) -> dict:
    """Verify E(t_k) + sum_{steps<=k} D dt <= E(0)(1 + tol) for all k,
    and that E is nonincreasing within the same tolerance, each up to the
    stepper gate's absolute floor ENTROPY_FLOOR.  The dissipation sum is
    the run's right-endpoint accumulation, the
    conservative discrete analogue for a decaying dissipation (the
    left-endpoint sum over-counts when the initial state has a vacuum
    species, where the pointwise dissipation diverges)."""
    if not records:
        return {"ok": True, "max_violation": 0.0, "tol": tol}
    e0 = records[0].e0
    worst = -math.inf
    worst_mono = -math.inf
    prev_e = e0
    for rec in records:
        worst = max(worst, rec.entropy + rec.diss_integral - e0 * (1.0 + tol) - ENTROPY_FLOOR)
        worst_mono = max(worst_mono, rec.entropy - prev_e - tol * abs(e0) - ENTROPY_FLOOR)
        prev_e = rec.entropy
    return {
        "ok": worst <= 0.0 and worst_mono <= 0.0,
        "max_violation": max(worst, worst_mono),
        "tol": tol,
        "e0": e0,
    }

