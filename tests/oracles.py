"""Reference implementations the tests check trdlab against, the sparse
Neumann Laplacian matrix among them, and state helpers that the package
itself does not need."""

from __future__ import annotations

import math
import operator
from functools import cache, reduce
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from trdlab import kinetics, stepper
from trdlab.bootstrap import Exponent
from trdlab.config import build_initial, parse_config
from trdlab.fields import FieldSet
from trdlab.errors import InvariantBreach
from trdlab.grid import Grid, work_array
from trdlab.kernel import KernelSpec
from trdlab.model import TriangularSystem
from trdlab.picard import PointwiseInputs, _drivers, _map
from trdlab.stepper import StepperConfig


@cache
def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse Neumann Laplacian acting on flattened fields: the
    Kronecker sum of the per-axis operators, last axis fastest."""
    mats = []
    for n, h in zip(grid.cells, grid.h):
        main = np.full(n, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(n - 1)
        mats.append(sp.diags([off, main, off], [-1, 0, 1]) / h**2)
    # kronsum(A, B) = kron(I, A) + kron(B, I) puts A on the fast axis
    return reduce(sp.kronsum, mats[::-1]).tocsr()


def slice_laplacian(grid: Grid, values: np.ndarray, out: np.ndarray | None = None, flux: np.ndarray | None = None):
    """`Grid.laplacian` as it was with per-axis slices, kept verbatim as its
    bit-for-bit oracle: each axis's face fluxes land in `flux` at the low
    cell of their face, and `out` receives the Laplacian."""
    out = np.empty_like(values) if out is None else out
    out.fill(0.0)
    for k, h in enumerate(grid.h):
        trailing = (slice(None),) * (grid.dimension - 1 - k)
        lo, hi = (..., slice(None, -1)) + trailing, (..., slice(1, None)) + trailing
        f = np.subtract(values[hi], values[lo], out=None if flux is None else flux[lo])
        f *= 1.0 / h**2
        out[lo] += f
        out[hi] -= f
    return out


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Midpoint quadrature: sum of cell values times the cell measure."""
    return float(values.sum() * grid.cell_measure)


def constant_state(system: TriangularSystem, grid: Grid, state) -> FieldSet:
    """The FieldSet with the species values `state` in every cell."""
    state = np.asarray(state, dtype=float)
    vals = np.broadcast_to(state.reshape((system.m,) + (1,) * grid.dimension), (system.m,) + grid.shape).copy()
    return FieldSet(system, grid, vals)


def at_rest_config(splitting: str = "lie"):
    """Criterion 8's spatial scenario, whose reaction is exactly inert: m = 4,
    alpha = (1, 1, 1, 1), d = (1, 1, 0.5, 1) and a_1 = a_4 = 0, so sigma_1 = 0
    pins the reaction extent x at 0 and a_2, a_3 only diffuse."""
    zero = {"kind": "constant", "value": 0.0}
    return parse_config(
        {
            "label": "at-rest",
            "system": {"m": 4, "alpha": [1, 1, 1, 1], "d": [1.0, 1.0, 0.5, 1.0]},
            "grid": {"lengths": [1.0], "cells": [32]},
            "initial": [
                zero,
                {"kind": "cosine", "base": 1.0, "amplitude": 0.3, "modes": [1]},
                {"kind": "cosine", "base": 0.5, "amplitude": 0.2, "modes": [1]},
                zero,
            ],
            "stepper": {"dt": 0.01, "splitting": splitting, "record_every": 10},
            "n_values": ["inf"],
            "t_final": 0.5,
        }
    )


def broadcast_pair_table(spec: KernelSpec, L: float, t: float, c: np.ndarray) -> np.ndarray:
    """The cosine series at time t over every pair of points with cosine
    table c (points x modes), as the (n, n, K) product summed over the
    mode axis: the Gaussian fit's series before it was a matrix product."""
    k = np.arange(1, spec.truncation + 1)
    decay = np.exp(-spec.d * (k * math.pi / L) ** 2 * t)
    return 1.0 / L + (2.0 / L) * np.sum(decay * c[:, None, :] * c[None, :, :], axis=-1)


def reaction_cell_solve(system: TriangularSystem, n: float, state_cell, dt: float):
    """Integrate the reaction-only system at level n over dt in one cell
    with the stepper's reaction solve.

    Exactly conserves sigma_j = a_j + a_m and keeps the output in the
    nonnegative orthant with a_m in [0, min_j sigma_j].
    """
    a = np.asarray(state_cell, dtype=float)
    m = system.m
    if a.shape != (m,) or np.any(a < 0):
        raise ValueError("cell state must be a nonnegative m-vector")
    sigma = a[:-1] + a[-1]
    x = stepper._solve_reaction_newton(a[-1:], sigma[:, None], system.reactant_alpha, m, system.Q, n, dt)[0][0]
    return np.append(sigma - x, x)


def phi_n(system: TriangularSystem, n: float, state: np.ndarray) -> np.ndarray | float:
    """phi^n = 1 + (1/n) (sum_i a_i)^{Q+2}; identically 1 for n = +inf."""
    if not np.all(np.asarray(n) > 0):
        raise ValueError("regularization index n must be positive")
    return kinetics.phi(system.Q, n, np.asarray(state, dtype=float).sum(axis=0))


def rate_g(system: TriangularSystem, n, state) -> np.ndarray | float:
    """Scalar regularized production g^n = (a_m - prod_{j<m} a_j^alpha_j)/phi^n,
    with this module's own product (0^0 = 1, as numpy's power)."""
    a = np.asarray(state, dtype=float)
    prod = reactant_product(system.reactant_alpha, a[:-1])
    return (a[-1] - prod) / phi(system.Q, n, a.sum(axis=0))


def method_of_lines(config, n: float) -> np.ndarray:
    """The fields at config.t_final of the system discretized in space alone, with none of the stepper's
    code: each species diffuses by d_i times `laplacian_matrix`, each reactant gains `rate_g` and the
    product loses it, and Radau (rtol 1e-12, atol 1e-14) integrates the ODEs in time."""
    system, grid = config.system, config.grid
    lap = laplacian_matrix(grid)

    def rhs(t, y):
        a = y.reshape(system.m, -1)
        out = np.stack([d * (lap @ species) for d, species in zip(system.d, a)])
        g = rate_g(system, n, a)
        out[:-1] += g
        out[-1] -= g
        return out.ravel()

    initial = build_initial(config).values
    coupled = sp.kron(np.ones((system.m, system.m)), sp.identity(lap.shape[0])) + sp.kron(sp.identity(system.m), lap)
    done = solve_ivp(rhs, (0.0, config.t_final), initial.ravel(), method="Radau", rtol=1e-12, atol=1e-14,
                     jac_sparsity=coupled != 0)
    return done.y[:, -1].reshape(initial.shape)


def log_inequality_slack(x: float, y: float, kappa: float) -> float:
    """Slack of x <= kappa*y + (1/ln kappa)(y - x) ln(y/x); nonnegative
    for all x, y > 0 and kappa > 1."""
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    if kappa <= 1:
        raise ValueError("kappa must exceed 1")
    return kappa * y + (y - x) * math.log(y / x) / math.log(kappa) - x


def holder_conjugate(p: Exponent) -> Exponent:
    """q with 1/p + 1/q = 1; conjugate of +inf is 1."""
    if p.is_infinite:
        return Exponent.of(1)
    if p.value == 1:
        return Exponent.infinity()
    if p.value <= 1:
        raise ValueError("conjugate needs p > 1 or the infinity sentinel")
    return Exponent(1 / (1 - 1 / p.value))


def young_convolution(q: Exponent, r: Exponent) -> Exponent:
    """p with 1 + 1/p = 1/q + 1/r (convolution L^q * L^r -> L^p)."""
    s = q.reciprocal + r.reciprocal
    if s < 1:
        raise ValueError(
            f"inadmissible pair: 1/q + 1/r = {s} < 1 leaves no Lebesgue exponent"
        )
    recip_p = s - 1
    return Exponent.infinity() if recip_p == 0 else Exponent(1 / recip_p)


# The reaction solve as it was before its shortcuts and work arrays, kept
# as the bit-for-bit oracle of `trdlab.stepper`'s: the three functions
# verbatim, over the rate law's two functions as they were then.


def reactant_product(alpha: np.ndarray, reactants: np.ndarray) -> np.ndarray:
    """prod_j r_j^{alpha_j} over the leading axis, factor by factor, with
    a full exponent array for each non-unit exponent."""
    prod = 1.0
    for j, a in enumerate(alpha):
        r = reactants[j : j + 1]  # a slice: one cell's factor is an array too
        prod = prod * (r if a == 1.0 else np.power(r, np.full(r.shape, a)))
    return prod[0]


def phi(Q: float, n, total):
    """The regularizer 1 + total^{Q+2}/n."""
    return 1.0 + total ** (Q + 2.0) / n


def _rate_at(x, sigma, alpha, m, Q, n, total=None):
    """The regularized rate along the reaction orbit a_j = sigma_j - x,
    a_m = x, whose species sum is S = sum sigma - (m-2) x (`total` is sum
    sigma, if known); then, for the Newton slope, prod, phi, S, prod - x
    and the reactants max(sigma - x, 0)."""
    reactants = np.maximum(sigma - x, 0.0)
    prod = reactant_product(alpha, reactants)
    S = (sigma.sum(axis=0) if total is None else total) - (m - 2) * x
    phi_x = phi(Q, n, S)
    net = prod - x
    return net / phi_x, prod, phi_x, S, net, reactants


def _residual(x, x0, sigma, alpha, m, Q, n, dt, theta=1.0, g0=0.0, total=None):
    """Theta-scheme residual: x - x0 - dt ((1-theta) g(x0) + theta g(x));
    theta = 1 is backward Euler, theta = 1/2 the trapezoidal rule."""
    g, *rest = _rate_at(x, sigma, alpha, m, Q, n, total)
    return (x - x0 - dt * ((1.0 - theta) * g0 + theta * g), *rest)


def _solve_reaction_newton(x0, sigma, alpha, m, Q, n, dt, theta=1.0, max_iter=200, tol=1e-14):
    """Hybrid Newton-bisection for the implicit reaction update,
    vectorized over cells.  The root is bracketed in [0, min_j sigma_j];
    where the residual has no sign change inside the bracket (spectator
    exponents, or trapezoidal overshoot at large dt) the update clamps
    at the offending end.  The bracket ends and the start are evaluated
    in one stacked residual call.  A cell that is done is frozen, so each
    cell's result is independent of the others in the call."""
    smin = hi = sigma.min(axis=0)
    total = sigma.sum(axis=0)
    lo = np.zeros(x0.shape)
    x = np.clip(x0, lo, smin)
    g0 = _rate_at(x0, sigma, alpha, m, Q, n, total)[0] if theta < 1.0 else 0.0
    args = (x0, sigma, alpha, m, Q, n, dt, theta, g0, total)
    r, prod, phi_x, S, net, reactants = _residual(np.array([smin, lo, x]), x0, sigma[:, None], *args[2:])
    clamped_hi, clamped_lo = r[0] < 0.0, r[1] > 0.0
    r, prod, phi_x, S, net, reactants = r[2], prod[2], phi_x[2], S[2], net[2], reactants[:, 2]
    stop = tol * (1.0 + np.abs(x0) + dt)
    alpha_col = alpha.reshape((-1,) + (1,) * x.ndim)
    dphi_coeff = -(m - 2) * (Q + 2.0)
    done = np.zeros(x.shape, dtype=bool)
    # vanished factors and overshooting Newton steps give infinities the
    # guards below reject; they are expected, so not warned about
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(max_iter):
            if k:
                r, prod, phi_x, S, net, reactants = _residual(x, *args)
            done |= np.abs(r) <= stop
            if done.all():
                break
            pos = r > 0.0
            hi = np.where(pos, x, hi)
            lo = np.where(pos, lo, x)
            mid = 0.5 * (lo + hi)
            # where the slope times one ulp of x exceeds the tolerance, the bracket
            # closes on adjacent floats first: mid then rounds to lo or hi, and x is one
            done |= (mid == lo) | (mid == hi)
            # analytic derivative of the residual; vanished factors get a huge
            # finite slope so the Newton guard falls back to bisection there
            inv = np.where(reactants > 0.0, 1.0 / reactants, 1e300)
            dprod = -prod * (alpha_col * inv).sum(axis=0)
            # dphi is exactly 0 (and phi exactly 1) where n = inf
            dphi = dphi_coeff * S ** (Q + 1.0) / n
            dg = ((dprod - 1.0) * phi_x - net * dphi) / phi_x**2
            rprime = 1.0 - dt * theta * dg
            newton = x - r / rprime
            # both bracket tests are false for a NaN or infinite newton
            use_newton = (newton > lo) & (newton < hi) & (rprime > 0)
            x = np.where(done, x, np.where(use_newton, newton, mid))
    x = np.where(clamped_hi, smin, x)
    x = np.where(clamped_lo, 0.0, x)
    return x, clamped_hi | clamped_lo


def picard_iterate_mpf(inputs: PointwiseInputs, p_max: int, dps: int = 40):
    """picard_iterate's map at `dps` digits in mp.mpf arithmetic (same mesh,
    same trapezoidal rule), one list of mp.mpf per iterate: the reference for
    picard_iterate_mp's fixed point.  e^-W is the reciprocal of e^W at `dps`
    digits: one exp per node."""
    with mp.workdps(dps):
        vexp = np.frompyfunc(mp.exp, 1, 1)
        ar = SimpleNamespace(
            lift=np.frompyfunc(mp.mpf, 1, 1),
            mul=operator.mul,
            power=operator.pow,
            exp_pair=lambda W: (E := vexp(W), lambda s: 1 / E * s),
        )
        drivers = _drivers(inputs, ar)
        a = np.full(len(inputs.times), mp.mpf(inputs.a_j0), dtype=object)
        iterates = [list(a)]
        for _ in range(p_max):
            a = _map(inputs, a, drivers, ar)
            iterates.append(list(a))
        return iterates


# The smoothing probe's march as it was with its own multipliers and residual
# gate, kept verbatim as the bit-for-bit oracle of `trdlab.kernel`'s, with the
# roundoff allowance it used.


def transform_roundoff(c_lam: np.ndarray) -> float:
    """Stencil residual, per unit of 1 + max|u|, that the DCT's roundoff
    may leave after a diffusion step with mode eigenvalues c_lam = c lambda:
    the roundoff is amplified by up to the operator norm 1 + max|c lambda|.
    Measured below 0.75 eps times that norm from 128x128 to 32768 cells;
    the residual gates allow 16 times as much on top of their tolerance."""
    return 16.0 * np.finfo(float).eps * (1.0 + float(np.abs(c_lam).max(initial=0.0)))


def _solve_sourced_heat(grid: Grid, d: float, source: np.ndarray, dt: float, n_steps: int, work: dict | None = None):
    """Backward-Euler march of d/dt psi - d Lap psi = source from zero
    data, exact per DCT-II mode; returns the trajectory including the
    initial state, each step's residual checked against the finite-volume
    stencil like `stepper.diffusion_substep`'s.  The trajectory and the
    check's temporaries are arrays of `work`."""
    c_lam = dt * d * grid.mode_eigenvalues()
    multiplier = 1.0 / (1.0 - c_lam)
    forcing = dt * grid.to_modes(source)
    traj = work_array(work, "traj", (n_steps + 1,) + grid.shape)
    traj[0] = 0.0
    for k in range(n_steps):
        np.multiply(np.add(traj[k], forcing, out=traj[k + 1]), multiplier, out=traj[k + 1])
    traj = grid.from_modes(traj, overwrite_x=True)
    rhs = np.add(traj[:-1], dt * source, out=work_array(work, "rhs", traj[1:].shape))
    lap = work_array(work, "lap", rhs.shape)
    scale = 1.0 + np.abs(rhs, out=lap).max()
    grid.laplacian(traj[1:], out=lap, flux=work_array(work, "flux", rhs.shape))
    resid = np.subtract(traj[1:], rhs, out=rhs)
    resid -= np.multiply(lap, dt * d, out=lap)
    resid = np.abs(resid, out=resid).max()
    if not resid <= (StepperConfig.linear_solver_tol + transform_roundoff(c_lam)) * scale:
        raise InvariantBreach("linear-solver", f"sourced heat residual {resid:.3e} above tolerance")
    return traj
