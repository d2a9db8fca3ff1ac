"""Time integration of the regularized system on a Neumann grid.

Operator splitting: an implicit (backward Euler) diffusion solve for the
diffusing species, and a cell-local reaction solve that exploits the
exact linear invariants sigma_j = a_j + a_m of the reaction vector field
to reduce each cell to one monotone scalar equation.  Both substeps are
positivity preserving and entropy nonincreasing, so the splitting is as
well.

The grid's orthonormal DCT-II diagonalises the Neumann Laplacian, so the
implicit diffusion solve is exact in mode space: mode k with eigenvalue
lambda_k is multiplied by (1 + (1-theta) c lambda_k) / (1 - theta c lambda_k),
c = dt d_i.  The multipliers are built once per run (`ModalDiffusion`,
which the kernel's smoothing probe marches with too); each substep is
checked a posteriori against the finite-volume stencil by its gate.

A regularization level is its n: the system comes with the state.
`run` takes the list of n and advances every level as one state of
shape (m, B, *grid), with n repeated per cell.  The substeps act cell by
cell or along the grid axes, so each level computes exactly what a run
of its own would; every gate holds per level, and a breach names its n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import ClassVar

import numpy as np

from .diagnostics import ENTROPY_FLOOR, DiagnosticsRecord, DiagnosticsTracker
from .errors import InvariantBreach
from .fields import FieldSet
from .grid import work_array
from .kinetics import phi, reactant_product

__all__ = [
    "StepperConfig",
    "SimulationState",
    "RunResult",
    "ModalDiffusion",
    "time_steps",
    "diffusion_substep",
    "step",
    "run",
]


@dataclass(frozen=True)
class StepperConfig:
    """The settable step size, splitting and record cadence; the gate
    tolerances are fixed class constants."""

    dt: float
    splitting: str = "lie"  # "lie" or "strang"
    record_every: int = 10

    entropy_tolerance_factor: ClassVar[float] = 10.0
    positivity_tol: ClassVar[float] = 1e-12
    mass_tol_rel: ClassVar[float] = 1e-8
    degenerate_pair_tol: ClassVar[float] = 1e-10
    a2_sum_tol: ClassVar[float] = 1e-12
    linear_solver_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.splitting not in ("lie", "strang"):
            raise ValueError("splitting must be 'lie' or 'strang'")
        if type(self.record_every) is not int or self.record_every < 1:
            raise ValueError(f"record_every must be an int >= 1, got {self.record_every!r}")


def time_steps(t_final: float, dt: float) -> tuple[int, float]:
    """round(t_final / dt) steps, at least one, of t_final / steps each, or none, of dt, at t_final = 0;
    a ratio past every float is a ValueError."""
    if not t_final / dt < math.inf:
        raise ValueError(f"t_final / dt = {t_final / dt:g} is past every float")
    steps = max(1, round(t_final / dt)) if t_final else 0
    return steps, t_final / steps if steps else dt


@dataclass
class SimulationState:
    time: float
    fields: FieldSet
    step_count: int = 0


@dataclass
class RunResult:
    final_state: SimulationState
    records: list[DiagnosticsRecord]
    clamp_count: int
    clamp_worst: float
    entropy_tol: float  # the entropy gate's factor (dt^2 + sum h^2), at the dt run stepped with
    tracker: DiagnosticsTracker = dc_field(repr=False, default=None)

    @property
    def equilibrium_residual(self) -> float:
        fs = self.final_state.fields
        prod = reactant_product(fs.system.reactant_alpha, fs.values[:-1])
        return float(np.abs(fs.values[-1] - prod).max())


class _ReactionWork:
    """Every array the reaction solve writes, for x of one shape and k
    reactants: the Newton loop's, the rate evaluation's, and in `kinetics`
    what reactant_product and phi fill.  A run keeps one per block size in
    its reaction `work`, so a solve binds its arrays once, not at every
    evaluation."""

    def __init__(self, shape: tuple[int, ...], k: int):
        self.key = shape, k
        for names, rows, dtype in (("lo hi mid dg t stop x g0 total net S g r dx lagged", (), float),
                                   ("done flag other clamped", (), bool), ("reactants inv", (k,), float),
                                   ("positive", (k,), bool)):
            self.__dict__.update((name, np.empty(rows + shape, dtype)) for name in names.split())
        self.kinetics = {}


def _workspace(work: dict, key, shape: tuple[int, ...], k: int) -> _ReactionWork:
    """work[key], made anew unless it is the workspace for x of `shape` with k reactants."""
    if getattr(work.get(key), "key", None) != (shape, k):
        work[key] = _ReactionWork(shape, k)
    return work[key]


def _rate_at(x, sigma, alpha, m, Q, n, total=None, work=None):
    """The regularized rate along the reaction orbit a_j = sigma_j - x,
    a_m = x, whose species sum is S = sum sigma - (m-2) x (`total` is sum
    sigma, if known); then, for the Newton slope, prod, phi, S, prod - x
    and the reactants max(sigma - x, 0), arrays of the workspace `work` (a
    fresh one for None).  For the scalar n = inf, phi is 1: phi, S are None."""
    ws = _ReactionWork(x.shape, len(sigma)) if work is None else work
    reactants = np.maximum(np.subtract(sigma, x, out=ws.reactants), 0.0, out=ws.reactants)
    prod = reactant_product(alpha, reactants, ws.kinetics)
    net = np.subtract(prod, x, out=ws.net)
    if getattr(n, "ndim", 0) == 0 and n == math.inf:
        return net, prod, None, None, net, reactants
    S = np.multiply(x, m - 2, out=ws.S)
    np.subtract(np.add.reduce(sigma, axis=0) if total is None else total, S, out=S)
    phi_x = phi(Q, n, S, ws.kinetics)
    return np.divide(net, phi_x, out=ws.g), prod, phi_x, S, net, reactants


def _residual(x, x0, sigma, alpha, m, Q, n, dt, theta=1.0, g0=0.0, total=None, work=None, rates=None):
    """Theta-scheme residual: x - x0 - dt ((1-theta) g(x0) + theta g(x)),
    then the rest of `_rate_at`'s tuple, `rates` if it was evaluated;
    theta = 1 is backward Euler, theta = 1/2 the trapezoidal rule."""
    ws = _ReactionWork(x.shape, len(sigma)) if work is None else work
    rates = _rate_at(x, sigma, alpha, m, Q, n, total, ws) if rates is None else rates
    lag = (1.0 - theta) * g0 if getattr(g0, "ndim", 0) == 0 else np.multiply(g0, 1.0 - theta, out=ws.lagged)
    r = np.add(rates[0] if theta == 1.0 else np.multiply(rates[0], theta, out=ws.r), lag, out=ws.r)  # g * 1 is g
    return (np.subtract(np.subtract(x, x0, out=ws.dx), np.multiply(r, dt, out=r), out=r),) + rates[1:]


# the reaction solve's iteration cap, and its stop rule |r| <= _NEWTON_TOL (1 + |x0| + dt)
_NEWTON_MAX_ITER, _NEWTON_TOL = 200, 1e-14


def _solve_reaction_newton(x0, sigma, alpha, m, Q, n, dt, theta=1.0, work=None):
    """Hybrid Newton-bisection for the implicit reaction update,
    vectorized over cells.  The root is bracketed in [0, min_j sigma_j];
    where the residual has no sign change inside the bracket (spectator
    exponents, or trapezoidal overshoot at large dt) the cell clamps at
    the offending end.  The ends are evaluated only on the cells that the
    start's bound on their residuals leaves open (all with a spectator,
    none under backward Euler); this, and skipping phi where every n is
    inf, changes no bit for x0 >= 0 and sigma_j >= x0 (see the README).  A
    done cell is frozen, so each cell's result is independent of the
    others.  It writes only arrays of the workspace that the dict `work`
    keeps for x0's size (made on first use, fresh for None), the x and
    mask returned included; the ends have a workspace of their own."""
    work = {} if work is None else work
    ws = _workspace(work, x0.size, x0.shape, len(sigma))
    lo, hi, mid, dg, t, stop, x, total = ws.lo, ws.hi, ws.mid, ws.dg, ws.t, ws.stop, ws.x, ws.total
    done, flag, other, clamped, inv, positive = ws.done, ws.flag, ws.other, ws.clamped, ws.inv, ws.positive
    n = n if np.count_nonzero(np.not_equal(n, math.inf)) else math.inf
    smin = np.minimum.reduce(sigma, axis=0, out=hi)  # smin is needed only before the loop narrows hi
    np.add.reduce(sigma, axis=0, out=total)
    lo.fill(0.0)
    x0.clip(lo, smin, out=x)  # np.clip, as the oracle takes it: np.maximum treats -0.0 otherwise
    rates = _rate_at(x, sigma, alpha, m, Q, n, total, ws)
    g0 = np.positive(rates[0], out=ws.g0) if theta < 1.0 else 0.0  # g(x0), as x = x0, kept from the loop
    args = (x0, sigma, alpha, m, Q, n, dt, theta, g0, total, ws)
    r, prod, phi_x, S, net, reactants = _residual(x, *args, rates)
    clamped.fill(False)
    exponents = alpha.tolist()
    if theta < 1.0 or 0.0 in exponents:
        # with every exponent > 0, monotone rounding bounds r(min sigma) >= (min sigma - x0) - lag and r(0) <= (0 - x0) - lag,
        # lag = (1 - theta) g0 dt rounded as in `_residual` (README); the ends run where a bound fails or is NaN (spectators)
        lag = np.multiply(np.multiply(g0, 1.0 - theta, out=t), math.nan if 0.0 in exponents else dt, out=t)
        cand = np.greater_equal(np.subtract(np.subtract(smin, x0, out=dg), lag, out=dg), 0.0, out=other)
        cand &= np.less_equal(np.subtract(np.subtract(0.0, x0, out=dg), lag, out=dg), 0.0, out=flag)
        if np.logical_not(cand, out=cand).any():
            n_c, g0_c = (a if np.ndim(a) == 0 else np.broadcast_to(a, x0.shape)[cand] for a in (n, g0))
            ends = np.stack([smin[cand], np.zeros(np.count_nonzero(cand))])
            r_end = _residual(ends, x0[cand], sigma[:, cand][:, None], alpha, m, Q, n_c, dt, theta, g0_c, total[cand],
                              _workspace(work, "ends", ends.shape, len(sigma)))[0]
            clamped[cand] = (r_end[0] < 0.0) | (r_end[1] > 0.0)
            x[cand] = np.where(r_end[1] > 0.0, 0.0, np.where(r_end[0] < 0.0, ends[0], x[cand]))
    np.copyto(done, clamped)  # a clamped cell is done at its bracket end
    np.abs(x0, out=stop)
    stop += 1.0
    stop += dt
    stop *= _NEWTON_TOL
    dphi_coeff = -(m - 2) * (Q + 2.0)
    scaled = [(j, a) for j, a in enumerate(exponents) if a != 1.0]
    # vanished factors and overshooting Newton steps give infinities the
    # guards below reject; they are expected, so not warned about
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(_NEWTON_MAX_ITER):
            if k:
                r, prod, phi_x, S, net, reactants = _residual(x, *args)
            done |= np.less_equal(np.abs(r, out=t), stop, out=flag)
            if np.count_nonzero(done) == done.size:
                break
            np.putmask(hi, np.greater(r, 0.0, out=flag), x)
            np.putmask(lo, np.logical_not(flag, out=flag), x)
            np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
            # where the slope times one ulp of x exceeds the tolerance, the bracket
            # closes on adjacent floats first: mid then rounds to lo or hi, and x is one
            done |= np.equal(mid, lo, out=flag)
            done |= np.equal(mid, hi, out=flag)
            # analytic derivative of the residual; vanished factors get a huge
            # finite slope so the Newton guard falls back to bisection there
            inv.fill(1e300)
            np.divide(1.0, reactants, out=inv, where=np.greater(reactants, 0.0, out=positive))
            for j, a in scaled:
                inv[j] *= a
            np.subtract(-1.0, np.multiply(prod, np.add.reduce(inv, axis=0, out=t), out=dg), out=dg)  # -prod sum - 1
            if phi_x is not None:  # dg = ((dprod - 1) phi - net dphi) / phi^2
                np.copyto(t, S)
                t **= Q + 1.0  # in place, numpy takes the power that S ** (Q + 1) takes
                t *= dphi_coeff
                t /= n
                dg *= phi_x
                dg -= np.multiply(t, net, out=t)
                dg /= np.multiply(phi_x, phi_x, out=t)  # numpy takes phi ** 2 as this square
            rprime = np.subtract(1.0, np.multiply(dg, dt * theta, out=dg), out=dg)
            newton = np.subtract(x, np.divide(r, rprime, out=t), out=t)
            # both bracket tests are false for a NaN or infinite newton
            use_newton = np.greater(newton, lo, out=flag)
            use_newton &= np.less(newton, hi, out=other)
            use_newton &= np.greater(rprime, 0.0, out=other)
            np.putmask(mid, use_newton, newton)
            np.putmask(x, np.logical_not(done, out=flag), mid)
    return x, clamped


# cells per reaction solve: small enough temporaries that the allocator keeps its heap between steps
_REACTION_BLOCK = 4096


def _reaction_substep(fields: FieldSet, n, dt: float, theta: float = 1.0, work: dict | None = None):
    """The reaction solve at level n (a scalar, or an array that broadcasts over the cells of every n-level) over
    the flattened cells, in blocks of _REACTION_BLOCK, with each block size's workspace in `work` (fresh ones
    without it)."""
    system = fields.system
    vals = fields.values.reshape(system.m, -1)
    shape = fields.values.shape[1:]  # `run` passes n per cell, so its flat view is a reshape
    n = n.reshape(-1) if getattr(n, "shape", None) == shape else np.broadcast_to(n, shape).reshape(-1)
    alpha, m, Q = system.reactant_alpha, system.m, system.Q
    new = np.empty_like(vals)
    sigma = np.add(vals[:-1], vals[-1], out=new[:-1])  # a block's sigma_j - x overwrites it once solved
    for start in range(0, vals.shape[1], _REACTION_BLOCK):
        cells = slice(start, start + _REACTION_BLOCK)
        x, _ = _solve_reaction_newton(vals[-1, cells], sigma[:, cells], alpha, m, Q, n[cells], dt, theta, work)
        np.subtract(sigma[:, cells], x, out=sigma[:, cells])
        new[-1, cells] = x
    return FieldSet(system, fields.grid, new.reshape(fields.values.shape))


class ModalDiffusion:
    """The theta-scheme diffusion step of length dt, with diffusivities `d`
    on one grid, as per-mode multipliers, with its `work` arrays and the
    stencil residual gate.  It also keeps the run's positivity tally per
    n-level, which `_clamp_positivity` updates."""

    def __init__(self, d, grid, dt: float, theta: float = 1.0):
        self.theta = theta
        self.rows = np.flatnonzero(d)
        self.coeff = dt * np.asarray(d)[self.rows].reshape((-1,) + (1,) * grid.dimension)
        c_lam = self.coeff * grid.mode_eigenvalues()
        self.multipliers = (1.0 + (1.0 - theta) * c_lam) / (1.0 - theta * c_lam)
        # the residual, per unit of 1 + max|u|, that the DCT's roundoff may leave: it is amplified by up to the
        # operator norm 1 + max|c lambda|.  Measured below 0.75 eps times that norm from 128x128 to 32768 cells;
        # the gate allows 16 times as much on top of its tolerance
        self.roundoff = 16.0 * np.finfo(float).eps * (1.0 + float(np.abs(c_lam).max(initial=0.0)))
        if np.any(self.multipliers[(...,) + (0,) * grid.dimension] != 1.0):
            raise InvariantBreach("linear-solver", "mode-0 multiplier is not exactly 1: mass would drift")
        self.clamp_count, self.clamp_worst = 0, math.inf
        self.work = {}

    def gate(self, grid, sol, u, axes=None):
        """The stencil residual gate: the linear residual A sol - B u of the
        theta-scheme on the finite-volume stencil, for arrays of shape
        (rows, ..., *grid), reduced over `axes` (all of them by default),
        must stay within (linear_solver_tol + roundoff) (1 + max|u|).  A
        breach names the first index of the reduction that fails as its
        level.  The temporaries are arrays of `work`."""
        resid, flux = work_array(self.work, "resid", sol.shape), work_array(self.work, "flux", sol.shape)
        arg = sol
        if self.theta != 1.0:
            arg = np.multiply(sol, self.theta, out=work_array(self.work, "arg", sol.shape))
            arg += np.multiply(u, 1.0 - self.theta, out=resid)
        grid.laplacian(arg, out=resid, flux=flux)
        resid *= _per_row(self.coeff, sol.ndim)
        resid -= sol
        resid += u
        resid = np.abs(resid, out=resid).max(axis=axes)
        limit = (StepperConfig.linear_solver_tol + self.roundoff) * (1.0 + np.abs(u, out=flux).max(axis=axes))
        bad = _first_level(~(resid <= limit), resid)
        if bad:
            message = f"diffusion residual {bad[1]:.3e} above tolerance"
            raise InvariantBreach("linear-solver", message, {"level": bad[0]})


def _per_row(a: np.ndarray, ndim: int) -> np.ndarray:
    """`a`, of shape (rows, *grid), with unit axes after the rows to reach ndim axes."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _level_axes(values: np.ndarray, grid) -> tuple[int, ...]:
    """The species and grid axes: a reduction over them is per level."""
    return (0,) + tuple(range(values.ndim - grid.dimension, values.ndim))


def _first_level(bad: np.ndarray, value: np.ndarray) -> tuple[int, float] | None:
    """The first n-level where `bad` holds, with its entry of `value`."""
    if not np.count_nonzero(bad):  # the common case, at a fraction of flatnonzero's cost
        return None
    idx = np.flatnonzero(bad)[0]
    return int(idx), float(np.ravel(value)[idx])


def diffusion_substep(fields: FieldSet, modal: ModalDiffusion) -> FieldSet:
    """Implicit theta-scheme diffusion (theta = 1 backward Euler, the
    entropy-safe default; theta = 1/2 Crank-Nicolson for second-order
    accuracy studies) for the diffusing species only; species with
    d_i = 0 are never touched so their pointwise invariants stay exact.
    The backward-Euler Neumann matrix is an M-matrix, hence positivity
    preserving (the transform's roundoff negatives go through the
    positivity clamp), and the mode-0 multiplier is exactly 1, hence mass
    is conserved.  `modal` carries the multipliers, and with them dt and
    theta.  The residual gate and the clamp act per n-level."""
    grid = fields.grid
    new = fields.values.copy()
    if modal.rows.size == 0:
        return FieldSet(fields.system, grid, new)
    shape = modal.rows.shape + fields.values.shape[1:]
    # mode "clip" (the rows are valid) fills `out` directly; "raise" fills a copy of it
    u = np.take(fields.values, modal.rows, axis=0, out=work_array(modal.work, "u", shape), mode="clip")
    sol = work_array(modal.work, "modes", shape)
    grid.to_modes(np.take(fields.values, modal.rows, axis=0, out=sol, mode="clip"), overwrite_x=True)
    sol *= _per_row(modal.multipliers, u.ndim)
    grid.from_modes(sol, overwrite_x=True)
    modal.gate(grid, sol, u, _level_axes(u, grid))
    new[modal.rows] = sol
    out = FieldSet(fields.system, grid, new)
    _clamp_positivity(out, modal)
    return out


def step(state: SimulationState, config: StepperConfig, n, modal: ModalDiffusion, work: dict | None) -> SimulationState:
    """One splitting step of length config.dt at level n (Lie: diffusion
    then reaction; Strang: half diffusion, reaction, half diffusion).
    `modal` is the diffusion substep: a full backward-Euler step (Lie) or
    a Crank-Nicolson half step (Strang), built once per run; `work` keeps
    the reaction solve's temporaries (fresh ones for None)."""
    dt = config.dt
    f = state.fields
    # Strang takes second-order substeps (Crank-Nicolson / trapezoidal) so
    # that the composition is genuinely O(dt^2)
    strang = config.splitting == "strang"
    f = _reaction_substep(diffusion_substep(f, modal), n, dt, 0.5 if strang else 1.0, work)
    if strang:
        f = diffusion_substep(f, modal)
    return SimulationState(state.time + dt, f, state.step_count + 1)


def _clamp_positivity(fields: FieldSet, modal: ModalDiffusion):
    """Zero each n-level's roundoff negatives, and add to the tally on
    `modal` each level's count and minimum before the clamp: its
    clamp_worst is the lowest value any check saw (the first of equal
    ones).  Returns the total count, then per level the count and the
    minimum; a level whose minimum lies below -positivity_tol breaches."""
    tol = StepperConfig.positivity_tol
    axes = _level_axes(fields.values, fields.grid)
    worst = fields.values.min(axis=axes)
    bad = _first_level(~(worst >= -tol), worst)
    if bad:
        message = f"minimum concentration {bad[1]:.3e} below -{tol:g}"
        raise InvariantBreach("positivity", message, {"min": bad[1], "level": bad[0]})
    counts, total = np.zeros(worst.shape, dtype=int), 0
    if np.count_nonzero(worst < 0.0):
        mask = fields.values < 0.0
        counts, total = mask.sum(axis=axes), np.count_nonzero(mask)
        fields.values[mask] = 0.0
    modal.clamp_count = modal.clamp_count + counts
    modal.clamp_worst = np.where(worst < modal.clamp_worst, worst, modal.clamp_worst)
    return total, counts, worst


def run(
    initial: FieldSet,
    config: StepperConfig,
    n_values,
    t_final: float,
    observers=(),
    p_values=(4.0,),
) -> list[RunResult]:
    """Advance `initial` to t_final at every level n in the nonempty
    sequence `n_values` (each positive, or +inf for the limit system) as
    one state of shape (m, B, *grid), recording each level's diagnostics
    every `record_every` steps and at both ends; a hard tolerance violated
    at any level raises InvariantBreach naming its n.  Observers get the
    batched state at each record.  Returns one RunResult per n, in order."""
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    levels = [float(n) for n in n_values]
    if not levels or not all(n > 0.0 for n in levels):  # a NaN fails n > 0
        raise ValueError(f"n_values must be a nonempty list of positive numbers or inf, got {levels!r}")
    n = np.repeat(levels, initial.values[0].size).reshape((-1,) + initial.grid.shape)  # per cell: no copy per substep
    tracker = DiagnosticsTracker(n, initial, p_values=p_values)
    values = np.repeat(initial.values[:, None], len(levels), axis=1)
    state = SimulationState(0.0, FieldSet(initial.system, initial.grid, values))
    records: list[list[DiagnosticsRecord]] = [[] for _ in levels]
    n_steps, dt = time_steps(t_final, config.dt)
    cfg = replace(config, dt=dt)
    # relative to E(0): the entropy gate's tolerance, also the summary's balance tolerance
    entropy_tol = cfg.entropy_tolerance_factor * (dt * dt + sum(h * h for h in initial.grid.h))
    e_tol = entropy_tol * abs(tracker.e0) + ENTROPY_FLOOR

    def emit(rec_state):
        for b, level_records in enumerate(records):
            rec = tracker.observe(rec_state.time, rec_state.fields.level(b), b)
            level_records.append(rec)
            _check_record(rec, cfg, b)
        for obs in observers:
            obs(rec_state)

    # the diagnostics take a window of consecutive states in one pass, as many as fit the reaction's block
    B, window = len(levels), max(1, _REACTION_BLOCK // values[0].size)
    stack = np.empty((values.shape[0], window * B) + values.shape[2:]) if window > 1 else None
    times = []  # of the steps whose states fill the window

    def close():
        """The diagnostics pass over the window, then each step's entropy gate in step order."""
        if not times:
            return
        fields = state.fields if stack is None else FieldSet(initial.system, initial.grid, stack[:, : len(times) * B])
        e_prev = tracker.entropy
        for t, e_now in zip(times, tracker.accumulate(fields, dt)):
            rose = _first_level(~(e_now <= e_prev + e_tol), e_now - e_prev)
            if rose:
                raise InvariantBreach(
                    "entropy",
                    f"entropy rose by {rose[1]:.3e} (> {e_tol:.3e}) at t={t:.6g}",
                    {"e_prev": float(e_prev[rose[0]]), "e_now": float(e_now[rose[0]]), "level": rose[0]},
                )
            e_prev = e_now
        times.clear()

    try:
        theta = 0.5 if cfg.splitting == "strang" else 1.0  # Strang's diffusion takes half steps
        modal, reaction_work = ModalDiffusion(initial.system.d, initial.grid, theta * dt, theta), {}
        _clamp_positivity(state.fields, modal)
        tracker.accumulate(state.fields, 0.0)
        if n_steps:
            emit(state)
        for k in range(n_steps):
            try:
                state = step(state, cfg, n, modal, reaction_work)
                _clamp_positivity(state.fields, modal)
            except InvariantBreach:
                close()  # an earlier step's entropy rise breached first
                raise
            if stack is not None:
                stack[:, len(times) * B : (len(times) + 1) * B] = state.fields.values
            times.append(state.time)
            record = (k + 1) % cfg.record_every == 0 or k == n_steps - 1
            if record or len(times) == window:
                close()
            if record:
                emit(state)
    except InvariantBreach as exc:
        if "level" not in exc.details:
            raise
        raise exc.at_n(levels[exc.details["level"]]) from exc
    return [
        RunResult(SimulationState(state.time, state.fields.level(b), state.step_count), records[b],
                  int(modal.clamp_count[b]), float(modal.clamp_worst[b]), entropy_tol, tracker)
        for b in range(len(levels))
    ]


def _check_record(rec: DiagnosticsRecord, cfg: StepperConfig, level: int):
    """The record gates, in order; a breach names `level`."""
    for kind, value, tol, message in (
        ("pair-mass", rec.pair_mass_drift_rel, cfg.mass_tol_rel, "relative pair-mass drift {:.3e} at t={:.6g}"),
        ("degenerate-pair", rec.degenerate_pair_dev, cfg.degenerate_pair_tol, "pointwise pair difference drifted {:.3e}"),
        ("a2-pointwise-sum", rec.a2_sum_dev, cfg.a2_sum_tol, "pointwise a_i + a_m drifted {:.3e}"),
    ):
        if not value <= tol:
            raise InvariantBreach(kind, message.format(value, rec.time), {"level": level})
