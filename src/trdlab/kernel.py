"""Neumann heat kernel on an interval via the cosine eigen-expansion, plus
numerical verification of the Gaussian upper bound and the parabolic
L^p -> L^s smoothing estimate.

The series for an interval of length L with diffusivity d is

    G(t, x, y) = 1/L + (2/L) sum_{k=1..K} exp(-d (k pi / L)^2 t)
                 cos(k pi x / L) cos(k pi y / L)

which is the exact Green function truncated at mode K, evaluated by the
mass and semigroup checks as matrix products of cosine tables.  The
smoothing probe solves the discrete sourced heat equation in the grid's
DCT-II modes, the discrete counterpart of the same cosine eigenpairs, with
the stepper's diffusion solve: a `stepper.ModalDiffusion` per mesh supplies
the multipliers, the work arrays and the stencil residual gate.  Its trials
share one trial-major trajectory buffer, of about 3.1 MB at the 1D probe's
fine mesh, and the gate checks each trial's contiguous block on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, work_array
from .stepper import ModalDiffusion, time_steps

__all__ = [
    "KernelSpec",
    "heat_kernel_eval",
    "kernel_tail_bound",
    "mass_conservation_check",
    "semigroup_check",
    "gaussian_bound_fit",
    "probe_grids",
    "smoothing_probe",
]


@dataclass(frozen=True)
class KernelSpec:
    d: float
    lengths: tuple[float] = (1.0,)  # the interval's one length
    truncation: int = 200

    def __post_init__(self):
        if not 0 < self.d < math.inf:
            raise ValueError(f"d: diffusion coefficient must be positive and finite, got {self.d}")
        if type(self.truncation) is not int or self.truncation < 1:
            raise ValueError(f"truncation must be an int >= 1, the modes kept, got {self.truncation!r}")
        lengths = tuple(float(v) for v in np.atleast_1d(self.lengths))
        if len(lengths) != 1 or not 0 < lengths[0] < math.inf:
            raise ValueError(f"lengths: need one positive finite interval length, got {lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def diffusive_time(self) -> float:
        L = self.lengths[0]
        return L * L / self.d

    @cached_property
    def midpoint_cosines(self) -> np.ndarray:
        """The cosine table at the _N_QUAD midpoints, the mass and semigroup checks' quadrature nodes."""
        return _cosines(self, self.lengths[0], _midpoints(self.lengths[0]))


def _cosines(spec: KernelSpec, L: float, x) -> np.ndarray:
    """cos(k pi x / L) for k = 1..spec.truncation, along a new last axis."""
    return np.cos(np.arange(1, spec.truncation + 1) * math.pi * np.asarray(x, dtype=float)[..., None] / L)


def _decay(spec: KernelSpec, L: float, t) -> np.ndarray:
    """exp(-d (k pi / L)^2 t) for k = 1..spec.truncation, along a new last axis."""
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("kernel requires t > 0")
    k = np.arange(1, spec.truncation + 1)
    return np.exp(-spec.d * (k * math.pi / L) ** 2 * np.asarray(t, dtype=float)[..., None])


def _series(L: float, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The series for every row of decay-weighted cosines against every point of table c, as one GEMM."""
    return 1.0 / L + (2.0 / L) * (rows @ c.T)


def _pair_table(spec: KernelSpec, L: float, t: float, c: np.ndarray) -> np.ndarray:
    """The series at time t over every pair of points with cosine table c,
    over the leading modes whose decay is a normal double (a NaN counts):
    the decay falls with k, and the modes after them add less than
    2 K tiny / L, which no double in the table can hold."""
    decay = _decay(spec, L, t)
    K = np.count_nonzero(~(decay < np.finfo(float).tiny))
    return _series(L, c[:, :K] * decay[:K], c[:, :K])


def heat_kernel_eval(spec: KernelSpec, t, x, y):
    """Kernel value(s); broadcasts over array-valued t, x and y, with the mode axis last, summed out."""
    L = spec.lengths[0]
    return 1.0 / L + (2.0 / L) * np.sum(_decay(spec, L, t) * _cosines(spec, L, x) * _cosines(spec, L, y), axis=-1)


def kernel_tail_bound(spec: KernelSpec, t: float) -> float:
    """Upper bound on the dropped modes: sum_{k>K} (2/L) e^{-d(k pi/L)^2 t}
    bounded by the geometric tail."""
    if not t > 0:  # a NaN time fails too
        raise ValueError("kernel requires t > 0")
    K, L = spec.truncation, spec.lengths[0]
    rate = spec.d * (math.pi / L) ** 2 * t
    head = math.exp(-rate * (K + 1) ** 2)
    ratio = math.exp(-rate * (2 * K + 3))  # e^{-rate((k+1)^2 - k^2)} decreasing in k
    return (2.0 / L) * head / max(1.0 - ratio, 1e-300)


_N_QUAD = 512  # midpoint-rule nodes of the mass check's y and the semigroup check's z


def _midpoints(L: float) -> np.ndarray:
    return (np.arange(_N_QUAD) + 0.5) * (L / _N_QUAD)


def mass_conservation_check(spec: KernelSpec, t_values, x_values) -> dict:
    """Midpoint quadrature of int G(t, x, y) dy over sampled (t, x); the
    midpoint rule annihilates every cosine mode below the Nyquist count,
    so with K << _N_QUAD the defect is pure roundoff plus truncation."""
    L = spec.lengths[0]
    # one row (decay_t * cos_x) per sampled (t, x), all against the quadrature table at once
    rows = _decay(spec, L, np.atleast_1d(t_values))[:, None] * _cosines(spec, L, np.atleast_1d(x_values))
    masses = _series(L, rows.reshape(-1, spec.truncation), spec.midpoint_cosines).sum(axis=1) * (L / _N_QUAD)
    return {"max_defect": float(np.max(np.abs(masses - 1.0), initial=0.0)), "n_quad": _N_QUAD}  # np.max keeps a NaN


def semigroup_check(spec: KernelSpec, t: float, s: float) -> dict:
    """Compare G(t+s, x, y) with int G(t, x, z) G(s, z, y) dz on a coarse
    (x, y) grid of 9 x 9 points: G(t, x, z) and G(s, y, z) = G(s, z, y) as
    two matrix products over the quadrature table, composed in a third."""
    L = spec.lengths[0]
    pts = np.linspace(0.0, L, 9)
    cz, cp = spec.midpoint_cosines, _cosines(spec, L, pts)
    lefts, rights = _series(L, cp * _decay(spec, L, t), cz), _series(L, cp * _decay(spec, L, s), cz)
    composed = (lefts @ rights.T) * (L / _N_QUAD)
    direct = heat_kernel_eval(spec, t + s, pts[:, None], pts[None])
    return {"max_defect": float(np.abs(composed - direct).max()), "t": t, "s": s}


def gaussian_bound_fit(spec: KernelSpec) -> dict:
    """Smallest C_H with G(t,x,y) <= C_H t^{-1/2} exp(-kappa (x-y)^2 / t),
    kappa = 1/(8d) (half the free-space 1/(4d)), over 24 log-spaced times
    t in [1e-4, 1e-1] L^2/d and 33 points in [0, L], and the verdict of the
    doubled-resolution refit (stability within 20%).  Also reports the
    kernel minimum over the samples (positivity).  `checks` holds the
    verdict of each of the three, by the name of its number."""
    kappa = 1.0 / (8.0 * spec.d)

    def fit(nt: int, nx: int):
        L = spec.lengths[0]
        ts = np.geomspace(1e-4, 1e-1, nt) * L * L / spec.d
        xs = np.linspace(0.0, L, nx)
        c = _cosines(spec, L, xs)
        log_c_h, k_min = -math.inf, math.inf
        for t in ts:
            vals = _pair_table(spec, L, t, c)
            k_min = min(k_min, float(vals.min()))
            # values below the truncation/roundoff noise floor carry no
            # information about the bound; clip them out before weighting
            floor = max(10.0 * kernel_tail_bound(spec, float(t)), 1e-13 * float(vals.max()))
            # work in log space: the Gaussian weight overflows float64
            # exactly where the kernel underflows to zero
            with np.errstate(divide="ignore"):
                log_vals = np.where(vals > floor, np.log(np.maximum(vals, 1e-300)), -math.inf)
            cand = log_vals + 0.5 * math.log(t) + kappa * (xs[:, None] - xs[None, :]) ** 2 / t
            log_c_h = max(log_c_h, float(cand.max()))
        return math.exp(log_c_h), k_min

    coarse, min_coarse = fit(24, 33)
    fine, min_fine = fit(48, 65)
    rel_change = abs(fine - coarse) / coarse if coarse > 0 else math.inf
    k_min = min(min_coarse, min_fine)
    checks = {"C_H": math.isfinite(fine), "rel_change": rel_change <= 0.2, "min_kernel_value": k_min >= -1e-10}
    return {
        "kappa": kappa,
        "C_H": fine,
        "C_H_coarse": coarse,
        "rel_change": rel_change,
        "min_kernel_value": k_min,
        "free_space_floor": 1.0 / math.sqrt(4.0 * math.pi * spec.d),
        "checks": checks,
        "passed": all(checks.values()),
    }


def smoothing_threshold(p: float, dimension: int) -> float:
    """Largest admissible space-time integrability s for a source in
    L^p(Omega_T): s < (N+2)p / (N+2-2p), infinite once p > (N+2)/2."""
    if p <= 0:
        raise ValueError("p must be positive")
    n_eff = dimension + 2
    if 2 * p >= n_eff:
        return math.inf
    return n_eff * p / (n_eff - 2 * p)


def _solve_sourced_heat(modal: ModalDiffusion, grid: Grid, source: np.ndarray, dt: float, n_steps: int):
    """Backward-Euler steps of d/dt psi - d Lap psi = source from zero
    data, exact per DCT-II mode with the multipliers M of `modal`, a
    ModalDiffusion of step dt for the one diffusivity d.  From zero data
    step k is psi_k = forcing (M + M^2 + ... + M^k) in each mode.
    `source` has shape (*batch, *grid), and every trajectory is formed at
    once: the result, of shape (*batch, n_steps + 1, *grid), holds each
    trial's trajectory contiguously, the initial state first.  The modal's
    stencil residual gate checks each trajectory on its own, against its
    own max|u|.  The trajectories and the gate's temporaries are arrays
    of the modal's `work`; the power sums borrow the gate's right-hand side."""
    batch = source.shape[: source.ndim - grid.dimension]
    forcing = dt * grid.to_modes(source)
    sums = work_array(modal.work, "rhs", (n_steps,) + grid.shape)
    sums[...] = modal.multipliers[0]
    np.add.accumulate(np.multiply.accumulate(sums, axis=0, out=sums), axis=0, out=sums)
    traj = work_array(modal.work, "traj", batch + (n_steps + 1,) + grid.shape)
    trials = traj.reshape((-1, n_steps + 1) + grid.shape)  # a view: the batch axes flattened
    trials[:, 0] = 0.0
    np.multiply(sums, forcing.reshape((-1, 1) + grid.shape), out=trials[:, 1:])
    trials = grid.from_modes(trials, overwrite_x=True)
    for one, theta in zip(trials, source.reshape((-1,) + grid.shape)):
        rhs = np.add(one[:-1], dt * theta, out=work_array(modal.work, "rhs", one[1:].shape))
        modal.gate(grid, one[None, 1:], rhs[None])
    return trials.reshape(traj.shape)


def _spacetime_norm(states: np.ndarray, exponent: float, dt: float, cell_measure: float, work: dict | None = None) -> float:
    """The L^exponent norm over space-time of `states`, one per step of length dt: the right-endpoint rule in time."""
    powers = np.abs(states, out=work_array(work, "powers", states.shape))
    if math.isinf(exponent):
        return float(powers.max())
    powers **= exponent / 2  # then squared: numpy squares for exponent 4, and |psi|^s overflows only where it would
    powers *= powers
    body = np.sum(powers) * dt * cell_measure
    return float(body ** (1.0 / exponent))


_SOURCE_MODES = 6  # a probe source sums cosine modes 0.._SOURCE_MODES along each axis
_SOLVE_VALUES = 2**19  # a probe solve takes as many trials as keep its trajectories within this many values


def probe_grids(spec: KernelSpec, dimension: int = 1, cells: int = 64) -> list[Grid]:
    """The smoothing probe's working mesh and its refinement, both made (and checked) before any solve."""
    return [Grid(spec.lengths * dimension, (c,) * dimension) for c in (cells, 2 * cells)]


def smoothing_probe(spec: KernelSpec, p: float, s: float, dimension: int = 1, trials: int = 6, cells: int = 64,
                    t_final: float = 0.5, dt: float = 1e-3, seed: int = 0) -> dict:
    """Monte-Carlo probe of ||psi||_{L^s} <= C ||theta||_{L^p} for the
    sourced Neumann heat equation with zero data: random bounded
    low-mode cosine sources, ratio reported at the working mesh and one
    refinement, verdict = ratios finite and stable within 20%."""
    if dimension not in (1, 2):
        raise ValueError("probe supports dimension 1 or 2")
    if not s > 0:
        raise ValueError(f"s must be positive (inf allowed), got {s}")
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    n_steps, step = time_steps(t_final, dt)

    def random_source(grid: Grid, coeffs) -> np.ndarray:
        field = np.full(grid.shape, coeffs[0])
        for axis, L in enumerate(grid.lengths):
            for k in range(1, _SOURCE_MODES + 1):
                profile = np.cos(k * math.pi * grid.axis_centers(axis) / L)
                axes = (-1,) + (1,) * (grid.dimension - 1 - axis)
                field = field + coeffs[axis * _SOURCE_MODES + k] * profile.reshape(axes)
        peak = np.abs(field).max()
        return field / peak if peak > 0 else field

    coeff_sets = [rng.uniform(-1.0, 1.0, size=1 + _SOURCE_MODES * dimension) for _ in range(trials)]

    def ratios(grid: Grid):
        modal = ModalDiffusion((spec.d,), grid, step)  # its work holds the solves' arrays
        thetas = np.array([random_source(grid, coeffs) for coeffs in coeff_sets])
        per_solve = max(1, _SOLVE_VALUES // ((n_steps + 1) * math.prod(grid.shape)))
        out = []
        for first in range(0, trials, per_solve):
            batch = thetas[first : first + per_solve]
            trajs = _solve_sourced_heat(modal, grid, batch, step, n_steps)
            for b, theta in enumerate(batch):
                num = _spacetime_norm(trajs[b, 1:], s, step, grid.cell_measure, modal.work)
                # the source is the same at every step: one state held for the whole horizon
                den = _spacetime_norm(theta[None], p, n_steps * step, grid.cell_measure)
                if den == 0.0:
                    continue  # zero source: nothing to certify
                out.append(num / den)
        return out

    coarse, fine = map(ratios, probe_grids(spec, dimension, cells))
    rel = [abs(b - a) / a for a, b in zip(coarse, fine) if a > 0]
    stable = bool(rel) and max(rel) <= 0.2
    return {
        "p": p,
        "s": s,
        "threshold": smoothing_threshold(p, dimension),
        "ratios_coarse": coarse,
        "ratios_fine": fine,
        "max_rel_change": max(rel) if rel else 0.0,
        "passed": stable and all(math.isfinite(r) for r in coarse + fine),
    }
