"""Euler schemes for the reflection-group diffusions, and their frozen limits.

Two processes share one engine.  The radial process solves

    dX_t = dB_t + sum_{R+} k(alpha) alpha / (alpha . X_t) dt

inside a Weyl chamber; the jumping process adds Poisson reflections
sigma_alpha at state-dependent rate k(alpha) |alpha|^2 / (2 (alpha . X)^2).
Both satisfy E|X_t|^2 - |x_0|^2 = (N + 2 gamma) t, which the moment report
checks against the exact multiplicity sum.

Numerics.  Steps are adaptive per path: a proposal step h is capped so the
drift moves no chamber coordinate alpha . X by more than ``drift_limit`` of
its current value, and so every jump probability h * rate stays below
``jump_rate_limit``; a proposal that still flips the sign of some alpha . X
is rejected, h is halved and fresh noise is drawn.  Crossings therefore
happen only through explicit jumps.  Both the caps and the halving stop at
the floor dt_min = dt_base * dt_floor_factor.  Stopping there is load
bearing, not a tolerance: the caps scale like the squared wall distance,
and a cascade that tracked them all the way down would follow a recurrent
log-distance walk into excursions of unbounded step count (at multiplicity
1/2 the walk is exactly critical).  A floor proposal moves the path by
about sqrt(dt_min), which ends a deep excursion in a few sign-preserving
redraws; a path whose floor proposals are rejected MAX_FLOOR_RETRIES times
in a row is reported via StepUnderflowError, never absorbed.  Jumps are
thinned per accepted step: one uniform per active root plus one for
selecting among the triggered roots, consumed whether or not anything
fires, so the random stream position depends only on the accepted-step
count.  The recorded intensity integral accrues min(1, h * rate), the
hazard the thinning actually realizes; below the floor depth the raw rate
is unrealizable and would skew the jump-count comparison.

Reproducibility.  Ensemble member i owns two PCG64 streams seeded from the
master seed with spawn keys (i, 0) for Gaussians and (i, 1) for uniforms,
with fixed-size block buffers.  Ensemble and replay share one stepping
loop: ``replay_path`` runs it on the one-path index set.  All array work is
elementwise plus length-N row sums (no matmul), so a row's arithmetic does
not depend on the batch size, and a replayed path is bitwise identical to
the same path inside a vectorized ensemble by construction.

The freezing experiment scales X_t by sqrt(2 k t) and compares against the
roots of the N-th Hermite polynomial; the zero-noise flow is also exposed
as an ODE in log-time whose attractor is exactly that root configuration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ConfigError,
    DimensionError,
    HyperplaneError,
    SamplingError,
    StepUnderflowError,
)
from .rootsys import RootSystem, build_root_system

BLOCK = 128
SCHEMES = ("euler-adaptive", "euler-fixed")
HERMITE_CAP = 50
MAX_FLOOR_RETRIES = 64


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; hashable except the arrays."""

    system: RootSystem
    x0: tuple
    horizon: float
    k_scale: float = 1.0
    dt_base: float = 1e-3
    scheme: str = "euler-adaptive"
    ensemble: int = 1
    master_seed: int = 0
    obs_times: tuple = ()
    jumps: bool = False
    drift_limit: float = 0.2
    jump_rate_limit: float = 0.1
    dt_floor_factor: float = 2.0**-20

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if len(self.x0) != self.system.dimension:
            raise DimensionError("x0 dimension does not match the root system")
        # a NaN or infinite value would never let the stepper reach the horizon
        for name in ("horizon", "k_scale", "dt_base"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("x0", "obs_times"):
            if not all(math.isfinite(c) for c in getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(m) for m in self.system.multiplicities):
            raise ConfigError(
                f"root multiplicities must be finite, got {self.system.multiplicities}"
            )
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if not self.dt_base > 0:
            raise ConfigError("dt_base must be positive")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be at least 1")
        if self.k_scale < 0:
            raise ConfigError("k_scale must be nonnegative")
        if not 0 < self.drift_limit <= 1:
            raise ConfigError("drift_limit must lie in (0, 1]")
        if not 0 < self.jump_rate_limit <= 1:
            raise ConfigError("jump_rate_limit must lie in (0, 1]")
        if not 0 < self.dt_floor_factor <= 1:
            raise ConfigError("dt_floor_factor must lie in (0, 1]")
        prev = 0.0
        for t in self.obs_times:
            if not prev < t <= self.horizon:
                raise ConfigError("obs_times must increase and stay within the horizon")
            prev = t

    def observation_grid(self) -> tuple:
        if self.obs_times and self.obs_times[-1] == self.horizon:
            return tuple(self.obs_times)
        return tuple(self.obs_times) + (self.horizon,)

    def effective_system(self) -> RootSystem:
        if self.k_scale == 1.0:
            return self.system
        return self.system.with_multiplicity_scale(self.k_scale)


@dataclass(frozen=True)
class EnsembleResult:
    obs_times: tuple
    states: np.ndarray  # (paths, observations, dimension)
    jump_counts: np.ndarray
    intensity_integrals: np.ndarray
    steps: np.ndarray
    violations: np.ndarray

    @property
    def final_states(self) -> np.ndarray:
        return self.states[:, -1, :]

    def summary(self) -> dict:
        return {
            "paths": int(self.states.shape[0]),
            "observations": [float(t) for t in self.obs_times],
            "total_jumps": int(self.jump_counts.sum()),
            "total_intensity": float(self.intensity_integrals.sum()),
            "mean_steps": float(self.steps.mean()),
            "max_steps": int(self.steps.max()),
            "total_violations": int(self.violations.sum()),
        }


@dataclass(frozen=True)
class Trajectory:
    path_index: int
    times: np.ndarray
    states: np.ndarray
    jump_events: tuple  # (time, live-root index) pairs
    intensity_integral: float
    steps: int
    violations: int

    def to_csv(self, path: str):
        n = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)])
            for t, row in zip(self.times, self.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


class PathStreams:
    """Per-path Gaussian and uniform streams with block buffering.

    Row r draws for ensemble member ``paths[r]``: Gaussians from the stream
    spawned at key (paths[r], 0) and uniforms from (paths[r], 1), regardless
    of which other members run next to it, so an isolated rerun of one path
    sees the identical random numbers.
    """

    def __init__(self, master_seed: int, paths: Sequence[int], dim: int, n_uniform: int):
        self.dim = dim
        self.n_uniform = n_uniform
        self._gauss = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(i, 0))))
            for i in paths
        ]
        self._unif = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(i, 1))))
            for i in paths
        ]
        m = len(paths)
        self._gbuf = np.empty((m, BLOCK, dim))
        self._gpos = np.full(m, BLOCK, dtype=np.int64)
        if n_uniform:
            self._ubuf = np.empty((m, BLOCK, n_uniform))
            self._upos = np.full(m, BLOCK, dtype=np.int64)

    def normals(self, idx: np.ndarray) -> np.ndarray:
        need = idx[self._gpos[idx] == BLOCK]
        for i in need:
            self._gbuf[i] = self._gauss[i].standard_normal((BLOCK, self.dim))
            self._gpos[i] = 0
        out = self._gbuf[idx, self._gpos[idx], :]
        self._gpos[idx] += 1
        return out

    def uniforms(self, idx: np.ndarray) -> np.ndarray:
        need = idx[self._upos[idx] == BLOCK]
        for i in need:
            self._ubuf[i] = self._unif[i].random((BLOCK, self.n_uniform))
            self._upos[i] = 0
        out = self._ubuf[idx, self._upos[idx], :]
        self._upos[idx] += 1
        return out


def _live_root_arrays(system: RootSystem):
    alphas, ks, sqns = [], [], []
    for i in system.positive:
        r = system.roots[i]
        if r.multiplicity:
            alphas.append([float(c) for c in r.vector])
            ks.append(float(r.multiplicity))
            sqns.append(float(r.sq_norm))
    if alphas:
        return np.asarray(alphas), np.asarray(ks), np.asarray(sqns)
    n = system.dimension
    return np.zeros((0, n)), np.zeros(0), np.zeros(0)


def _row_dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # elementwise product plus a length-N row sum; deliberately no matmul so
    # the rounding sequence does not depend on the batch size
    return (x * v).sum(axis=1)


def _step_core(x, h_state, t_rem, gauss, alphas, ks, sqns, cfg: SimConfig):
    """One proposal for every row of ``x``; shared by ensemble and replay.

    The proposal step is min(h_state, ceiling), where the ceiling applies
    dt_base, the time left to the next observation, and the adaptive drift
    and jump-rate caps.  The caps are clamped from below at the floor
    dt_min = dt_base * dt_floor_factor; unclamped they shrink like the
    squared wall distance and would track a deep excursion step for step
    without ever letting model time advance.
    """
    m, n = x.shape
    n_roots = alphas.shape[0]
    adaptive = cfg.scheme == "euler-adaptive"

    d_pre = np.empty((m, n_roots))
    for r in range(n_roots):
        d_pre[:, r] = _row_dot(x, alphas[r])

    drift = np.zeros((m, n))
    for r in range(n_roots):
        drift += (ks[r] / d_pre[:, r])[:, None] * alphas[r][None, :]

    base = np.minimum(np.full(m, cfg.dt_base), t_rem)
    rates = None
    if cfg.jumps:
        rates = np.empty((m, n_roots))
        for r in range(n_roots):
            rates[:, r] = (ks[r] * sqns[r] / 2.0) / (d_pre[:, r] * d_pre[:, r])
    if adaptive and n_roots:
        cap = np.full(m, np.inf)
        for r in range(n_roots):
            along = _row_dot(drift, alphas[r])
            c = np.full(m, np.inf)
            np.divide(
                cfg.drift_limit * np.abs(d_pre[:, r]),
                np.abs(along),
                out=c,
                where=along != 0,
            )
            cap = np.minimum(cap, c)
            if cfg.jumps:
                cap = np.minimum(cap, cfg.jump_rate_limit / rates[:, r])
        dt_min = cfg.dt_base * cfg.dt_floor_factor
        ceiling = np.minimum(base, np.maximum(cap, dt_min))
    else:
        ceiling = base
    h_try = np.minimum(h_state, ceiling)

    x_prop = x + h_try[:, None] * drift + np.sqrt(h_try)[:, None] * gauss

    d_prop = np.empty((m, n_roots))
    for r in range(n_roots):
        d_prop[:, r] = _row_dot(x_prop, alphas[r])
    viol = ((d_pre > 0) != (d_prop > 0)) | (d_prop == 0)
    return x_prop, h_try, viol.any(axis=1), d_prop, rates


def _apply_jumps(x_prop, d_prop, rates, h_try, u, alphas, sqns):
    """Thin the per-root jump clocks; at most one reflection per step.

    Selecting uniformly among the roots whose clocks fired is equivalent in
    law to taking the first firing in a random root order.  Returns the new
    states and the chosen live-root index per row (-1 for no jump).
    """
    m, n_roots = rates.shape
    trig = u[:, :n_roots] < rates * h_try[:, None]
    n_trig = trig.sum(axis=1)
    jumped = n_trig > 0
    choice = np.floor(u[:, n_roots] * n_trig).astype(np.int64)
    csum = np.cumsum(trig, axis=1)
    pick = (csum == (choice + 1)[:, None]) & trig
    root_idx = np.where(jumped, pick.argmax(axis=1), -1)
    x_new = x_prop.copy()
    for r in range(n_roots):
        rows = root_idx == r
        if rows.any():
            coef = 2.0 * d_prop[rows, r] / sqns[r]
            x_new[rows] -= coef[:, None] * alphas[r][None, :]
    return x_new, root_idx


def _check_start(x0: np.ndarray, alphas: np.ndarray):
    for r in range(alphas.shape[0]):
        if float((x0 * alphas[r]).sum()) == 0.0:
            raise HyperplaneError("x0 lies on a reflecting hyperplane with k > 0")


def _run(config: SimConfig, paths: Sequence[int], record=None) -> EnsembleResult:
    """The stepping loop: row r of the run is ensemble member ``paths[r]``.

    ``record(t, x, root_idx)``, if given, is called after each accepted step
    with the new times and states of the accepted rows and their chosen
    live-root indices (-1 for no jump; None when jumps are off).
    """
    system = config.effective_system()
    alphas, ks, sqns = _live_root_arrays(system)
    n_roots = alphas.shape[0]
    if config.jumps and n_roots and config.scheme == "euler-fixed":
        raise SamplingError("jump thinning requires the adaptive scheme")
    n = system.dimension
    obs = np.asarray(config.observation_grid())
    n_obs = len(obs)
    x0 = np.asarray([float(c) for c in config.x0])
    _check_start(x0, alphas)

    streams = PathStreams(config.master_seed, paths, n, n_roots + 1 if config.jumps and n_roots else 0)
    m = len(paths)
    x = np.tile(x0, (m, 1))
    t = np.zeros(m)
    h_state = np.full(m, config.dt_base)
    ptr = np.zeros(m, dtype=np.int64)
    out = np.empty((m, n_obs, n))
    jump_counts = np.zeros(m, dtype=np.int64)
    intensity = np.zeros(m)
    steps = np.zeros(m, dtype=np.int64)
    violations = np.zeros(m, dtype=np.int64)
    strikes = np.zeros(m, dtype=np.int64)
    dt_min = config.dt_base * config.dt_floor_factor
    adaptive = config.scheme == "euler-adaptive"

    # overflow surfaces as the non-finite proposal check below, not as
    # numpy warnings; one errstate per run keeps the per-step cost flat
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            idx = np.flatnonzero(ptr < n_obs)
            if idx.size == 0:
                break
            xa = x[idx]
            ta = t[idx]
            target = obs[ptr[idx]]
            t_rem = target - ta
            gauss = streams.normals(idx)
            x_prop, h_try, viol, d_prop, rates = _step_core(
                xa, h_state[idx], t_rem, gauss, alphas, ks, sqns, config
            )
            # an overflowing drift makes the step NaN, which no floor test or
            # time update would ever end
            if not np.isfinite(x_prop).all():
                raise SamplingError(
                    "a proposal is not finite; the drift overflows at these multiplicities"
                )
            steps[idx] += 1
            if viol.any():
                if not adaptive:
                    raise SamplingError("sign violation under fixed stepping")
                vid = idx[viol]
                # floor proposals are redrawn, not shrunk further; a run of
                # rejections there means the config is genuinely stuck
                at_floor = h_try[viol] <= dt_min
                strikes[vid[at_floor]] += 1
                stuck = vid[strikes[vid] >= MAX_FLOOR_RETRIES]
                if stuck.size:
                    first = stuck[np.argmin(t[stuck])]
                    raise StepUnderflowError(
                        "proposals at the dt floor keep crossing a hyperplane",
                        time=float(t[first]),
                        path_index=int(paths[first]),
                    )
                h_state[vid] = np.maximum(h_try[viol] / 2.0, dt_min)
                violations[vid] += 1
            acc = ~viol
            if not acc.any():
                continue
            aid = idx[acc]
            strikes[aid] = 0
            x_new = x_prop[acc]
            h_acc = h_try[acc]
            root_idx = None
            if config.jumps and n_roots:
                u = streams.uniforms(aid)
                x_new, root_idx = _apply_jumps(
                    x_new, d_prop[acc], rates[acc], h_acc, u, alphas, sqns
                )
                jump_counts[aid] += root_idx >= 0
                intensity[aid] += np.minimum(rates[acc] * h_acc[:, None], 1.0).sum(axis=1)
            capped = h_acc >= t_rem[acc]
            t_new = np.where(capped, target[acc], ta[acc] + h_acc)
            x[aid] = x_new
            t[aid] = t_new
            if adaptive:
                h_state[aid] = np.minimum(2.0 * h_acc, config.dt_base)
            if record is not None:
                record(t_new, x_new, root_idx)
            hit = t_new == target[acc]
            if hit.any():
                hid = aid[hit]
                out[hid, ptr[hid], :] = x_new[hit]
                ptr[hid] += 1
    return EnsembleResult(
        obs_times=tuple(float(v) for v in obs),
        states=out,
        jump_counts=jump_counts,
        intensity_integrals=intensity,
        steps=steps,
        violations=violations,
    )


def simulate(config: SimConfig) -> EnsembleResult:
    """Run the full ensemble and record states at the observation grid."""
    return _run(config, range(config.ensemble))


def replay_path(config: SimConfig, path_index: int) -> Trajectory:
    """Re-run one ensemble member alone, recording every accepted step.

    This is the ensemble loop on the one-path index set, so the states
    agree bit for bit with the same row of ``simulate``.
    """
    if not 0 <= path_index < config.ensemble:
        raise ConfigError("path_index outside the ensemble")
    x0 = np.asarray([float(c) for c in config.x0])
    times = [0.0]
    states = [x0]
    jump_events = []

    def record(t, x, root_idx):
        times.append(float(t[0]))
        states.append(x[0].copy())
        if root_idx is not None and root_idx[0] >= 0:
            jump_events.append((float(t[0]), int(root_idx[0])))

    res = _run(config, (path_index,), record)
    return Trajectory(
        path_index=path_index,
        times=np.asarray(times),
        states=np.asarray(states),
        jump_events=tuple(jump_events),
        intensity_integral=float(res.intensity_integrals[0]),
        steps=int(res.steps[0]),
        violations=int(res.violations[0]),
    )


# ---------------------------------------------------------------------------
# classical root configurations


def hermite_roots(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending.

    Eigenvalues of the symmetric Jacobi matrix with zero diagonal and
    off-diagonal sqrt(j / 2); cheap and stable for n up to 50.
    """
    if not 1 <= n <= HERMITE_CAP:
        raise ValueError(f"n must lie in 1..{HERMITE_CAP}")
    if n == 1:
        return np.zeros(1)
    off = np.sqrt(np.arange(1, n) / 2.0)
    return eigh_tridiagonal(np.zeros(n), off, eigvals_only=True)


def laguerre_roots(n: int, a: float = 0.0) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(a), ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    if a <= -1:
        raise ValueError("a must exceed -1")
    j = np.arange(n)
    diag = 2.0 * j + a + 1.0
    off = np.sqrt(np.arange(1, n) * (np.arange(1, n) + a))
    if n == 1:
        return diag.copy()
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def hermite_electrostatic_residual(z: np.ndarray) -> float:
    """max_i | sum_{j != i} 1/(z_i - z_j) - z_i |; zero at the Hermite zeros."""
    z = np.asarray(z, dtype=float)
    worst = 0.0
    for i in range(len(z)):
        s = sum(1.0 / (z[i] - z[j]) for j in range(len(z)) if j != i)
        worst = max(worst, abs(s - z[i]))
    return worst


def laguerre_electrostatic_residual(z: np.ndarray, a: float) -> float:
    """max_i | sum_{j != i} 1/(z_i - z_j) - (z_i - a - 1)/(2 z_i) |."""
    z = np.asarray(z, dtype=float)
    worst = 0.0
    for i in range(len(z)):
        s = sum(1.0 / (z[i] - z[j]) for j in range(len(z)) if j != i)
        worst = max(worst, abs(s - (z[i] - a - 1.0) / (2.0 * z[i])))
    return worst


# ---------------------------------------------------------------------------
# freezing


@dataclass(frozen=True)
class FreezeSample:
    k: float
    mean_sup: float
    max_sup: float
    scaled_mean: np.ndarray
    target: np.ndarray


def freezing_experiment(
    n_particles: int,
    k_values: Sequence[float],
    t: float = 1.0,
    n_paths: int = 200,
    seed: int = 0,
    eps: float = 0.01,
    dt_base: float = 1e-3,
    drift_limit: float = 0.05,
) -> list:
    """Large-multiplicity collapse of the radial process onto Hermite zeros.

    For each k the ensemble starts at eps * (1, ..., N), runs to time t, and
    the sorted particle vector is scaled by 1/sqrt(2 k t).  Returns one
    FreezeSample per k with the sup-distance statistics against the zero
    configuration.  The per-k seeds are spawned from ``seed`` so adding a k
    never reshuffles the others.
    """
    target = hermite_roots(n_particles)
    out = []
    for i, k in enumerate(k_values):
        sub = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])
        system = build_root_system("A", n_particles - 1, [float(k)])
        config = SimConfig(
            system=system,
            x0=tuple(eps * (j + 1) for j in range(n_particles)),
            horizon=t,
            dt_base=dt_base,
            ensemble=n_paths,
            master_seed=sub,
            jumps=False,
            drift_limit=drift_limit,
        )
        res = simulate(config)
        zeta = np.sort(res.final_states, axis=1) / math.sqrt(2.0 * k * t)
        sup = np.abs(zeta - target[None, :]).max(axis=1)
        out.append(
            FreezeSample(
                k=float(k),
                mean_sup=float(sup.mean()),
                max_sup=float(sup.max()),
                scaled_mean=zeta.mean(axis=0),
                target=target,
            )
        )
    return out


def laguerre_freezing_probe(
    n_particles: int,
    k: float,
    t: float = 1.0,
    n_paths: int = 100,
    seed: int = 0,
    eps: float = 0.01,
) -> dict:
    """The two-orbit chain B_N with equal multiplicities freezes onto the
    square roots of the Laguerre zeros (a = 0).  Returns the sup-distance
    statistics of the scaled ensemble against that configuration.
    """
    system = build_root_system("B", n_particles, [float(k), float(k)])
    config = SimConfig(
        system=system,
        x0=tuple(eps * (j + 1) for j in range(n_particles)),
        horizon=t,
        dt_base=1e-3,
        ensemble=n_paths,
        master_seed=int(np.random.SeedSequence(seed, spawn_key=(0,)).generate_state(1, np.uint64)[0]),
        jumps=False,
        drift_limit=0.05,
    )
    res = simulate(config)
    target = np.sqrt(laguerre_roots(n_particles, 0.0))
    zeta = np.sort(res.final_states, axis=1) / math.sqrt(2.0 * k * t)
    sup = np.abs(zeta - target[None, :]).max(axis=1)
    return {
        "k": float(k),
        "mean_sup": float(sup.mean()),
        "max_sup": float(sup.max()),
        "scaled_mean": [float(v) for v in zeta.mean(axis=0)],
        "target": [float(v) for v in target],
    }


def deterministic_freeze_ode(
    n_particles: int,
    t_end: float = 1e3,
    t_start: float = 1e-12,
    y0: Sequence[float] = None,
    rtol: float = 1e-12,
) -> dict:
    """Zero-noise freezing flow integrated in log-time.

    In y = x / sqrt(2 t) and s = log t the unit-multiplicity radial flow
    reads dy/ds = (F(y) - y) / 2 with F(y)_i = sum_{j != i} 1/(y_i - y_j).
    Its unique equilibrium in the ordered chamber is the Hermite zero set,
    attracting with spectral rate at most -1/2, so by s = log(t_end) the
    trajectory sits on the attractor to solver precision.
    """
    n = n_particles
    if y0 is None:
        y0 = [0.01 * (i - (n - 1) / 2.0) for i in range(n)]
    y0 = np.asarray(y0, dtype=float)
    if len(y0) != n:
        raise DimensionError("y0 length mismatch")

    def rhs(_s, y):
        f = np.empty(n)
        for i in range(n):
            f[i] = sum(1.0 / (y[i] - y[j]) for j in range(n) if j != i)
        return 0.5 * (f - y)

    sol = solve_ivp(
        rhs,
        (math.log(t_start), math.log(t_end)),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=1e-14,
    )
    if not sol.success:
        raise SamplingError(f"freezing flow integration failed: {sol.message}")
    final = sol.y[:, -1]
    return {
        "y": final,
        "target": hermite_roots(n),
        "sup_error": float(np.abs(final - hermite_roots(n)).max()),
        "scaled_positions": final * math.sqrt(2.0 * t_end),
        "t_end": float(t_end),
    }


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class MomentReport:
    observed: float
    predicted: float
    std_error: float
    n_paths: int

    @property
    def z_score(self) -> float:
        if self.std_error == 0:
            return 0.0 if self.observed == self.predicted else math.inf
        return (self.observed - self.predicted) / self.std_error

    def within(self, n_sigma: float = 3.0) -> bool:
        return abs(self.z_score) <= n_sigma


def moment_from_result(config: SimConfig, res: EnsembleResult) -> MomentReport:
    """Check E|X_T|^2 - |x0|^2 = (N + 2 gamma) T on the final ensemble."""
    system = config.effective_system()
    sq = (res.final_states**2).sum(axis=1)
    base = sum(float(c) ** 2 for c in config.x0)
    observed = float(sq.mean()) - base
    gamma = float(system.gamma)
    predicted = (system.dimension + 2.0 * gamma) * config.horizon
    se = float(sq.std(ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
    return MomentReport(
        observed=observed,
        predicted=predicted,
        std_error=se,
        n_paths=int(len(sq)),
    )


def moment_law_report(config: SimConfig) -> MomentReport:
    return moment_from_result(config, simulate(config))
