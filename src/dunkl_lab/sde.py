"""The adaptive Euler scheme for the reflection-group diffusions, and their frozen limits.

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
selecting among the triggered roots.  Like the Gaussians, the uniforms are
consumed at every proposal, read or not, so the stream position depends
only on the proposal count.  The recorded intensity integral accrues
min(1, h * rate), the hazard the thinning actually realizes; below the
floor depth the raw rate is unrealizable and would skew the jump-count
comparison.

Reproducibility.  Ensemble member i owns two PCG64 streams, the ones numpy
seeds from SeedSequence(master_seed, spawn_key=(i, 0)) for Gaussians and
(i, 1) for uniforms, seeded for every member in one vectorized pass and
read through block buffers (see PathStreams), so every sampled bit is the
one numpy's own objects give.  Every active row makes one proposal per
pass and rows only leave, so a row's stream position depends only on its
proposal count: one buffer column serves every row of a pass, and the
block size changes no sample.  Ensemble and replay share one stepping
loop: ``replay_path`` runs it on the one-path index set.  Every alpha . x
is summed over a support table of each root's nonzero coordinates, the
drift is accumulated coordinate by coordinate over the roots that touch
it, and a jump reflects the chosen root's support coordinates; all of it
is elementwise (no matmul), so a path's arithmetic does not depend on the
batch size or on whether the paths are addressed by a slice or an index
array, and a replayed path's states are bitwise identical to the same path
inside a vectorized ensemble by construction.  For the same reason
``simulate`` runs the loop over chunks of at most CHUNK path indices,
which bounds the stream buffers and step temporaries by the chunk and
changes no sampled bit; a StepUnderflowError then names the earliest stuck
path of the first chunk that sticks.  The chunks run in forked worker
processes, one per usable CPU, and are copied back in chunk order, so no
bit depends on the CPU count.

Layout.  The stepper is root-major: the state is (n, m), coordinates by
paths, and every per-root array (alpha . x, drift terms, rates, crossings,
the jump mask) is (R, m), roots by paths, so every numpy inner loop runs
over paths and every reduction over roots is along axis 0; the streams'
(rows, width) draws are read through ``.T``.  The only float reduction
over roots, the recorded intensity, adds the roots one row at a time in
root order: ``sum(axis=0)`` sums a root-contiguous array (a replay's one
path, the columns gathered after a rejection) pairwise once it has 8 or
more roots, so a path's bits would depend on its batch.  The loop carries
the (R, m) alpha . x across steps: an accepted row takes its proposal's, a
reflected row gets fresh dots of its new state and a rejected row keeps
its own, so every proposal starts from exactly ``dots(x)``.  The carried
array stays C-contiguous: the active columns are read from it with
``take``, where ``d[:, idx]`` would return them root-contiguous.

The freezing experiment scales X_t by sqrt(2 k t) and compares against the
roots of the N-th Hermite polynomial; the zero-noise flow is also exposed
as an ODE in log-time whose attractor is exactly that root configuration.
The Hermite and Laguerre zeros are the eigenvalues of their Jacobi
matrices, taken by numpy's dense eigvalsh (at most HERMITE_CAP square),
and the flow is stepped by a Dormand-Prince 5(4) pair written in numpy,
so the module needs no scipy.
"""

from __future__ import annotations

import csv
import ctypes
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._forkmap import fork_map
from .errors import (
    ConfigError,
    DimensionError,
    HyperplaneError,
    SamplingError,
    StepUnderflowError,
)
from .rootsys import RootSystem, build_root_system

BLOCK = 128
CHUNK = 4096
HERMITE_CAP = 50
MAX_FLOOR_RETRIES = 64
ODE_MAX_STEPS = 10_000
MAX_BASE_STEPS = 10**7
ODE_START = 1e-12

# numpy's SeedSequence mixing constants and PCG64's 128-bit multiplier
_WORD = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(0x4385DF649FCCF645), np.uint64(0x2360ED051FC65DA4))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; hashable except the arrays."""

    system: RootSystem
    x0: tuple
    horizon: float
    k_scale: float = 1.0
    dt_base: float = 1e-3
    ensemble: int = 1
    master_seed: int = 0
    obs_times: tuple = ()
    jumps: bool = False
    drift_limit: float = 0.2
    jump_rate_limit: float = 0.1
    dt_floor_factor: float = 2.0**-20

    def __post_init__(self):
        if len(self.x0) != self.system.dimension:
            raise DimensionError("x0 dimension does not match the root system")
        # a NaN or infinite value would never let the stepper reach the horizon
        for name in ("horizon", "k_scale", "dt_base"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("x0", "obs_times"):
            if not all(math.isfinite(c) for c in getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        # |x0|^2 feeds the moment report; an overflowing one has no finite answer
        if not math.isfinite(sum(c * c for c in self.x0)):
            raise ConfigError(f"x0 must have a finite squared norm, got {self.x0}")
        # exact comparison: math.isfinite overflows on a Fraction beyond the float range
        if not all(abs(m) <= sys.float_info.max for m in self.system.multiplicities):
            raise ConfigError(
                f"root multiplicities must be finite floats, got {self.system.multiplicities}"
            )
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if not self.dt_base > 0:
            raise ConfigError("dt_base must be positive")
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int):
            raise ConfigError(f"master_seed must be an int, got {self.master_seed!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be at least 1")
        if self.ensemble > _WORD:
            # a path index is one 32-bit spawn-key word of its streams
            raise ConfigError(f"ensemble must be below 2**32, got {self.ensemble}")
        if self.k_scale < 0:
            raise ConfigError("k_scale must be nonnegative")
        if not 0 < self.drift_limit <= 1:
            raise ConfigError("drift_limit must lie in (0, 1]")
        if not 0 < self.jump_rate_limit <= 1:
            raise ConfigError("jump_rate_limit must lie in (0, 1]")
        if not 0 < self.dt_floor_factor <= 1:
            raise ConfigError("dt_floor_factor must lie in (0, 1]")
        # a step of at most half an ulp leaves a clock near the horizon where
        # it is (t + h == t), so a path held at the floor would never finish
        dt_min = self.dt_base * self.dt_floor_factor
        if not dt_min > math.ulp(self.horizon) / 2:
            raise ConfigError(
                f"dt {self.dt_base} with floor factor {self.dt_floor_factor} gives a floor "
                f"step {dt_min} too small to advance the clock near horizon {self.horizon}"
            )
        # every path takes at least ceil(horizon / dt_base) steps, which is
        # above the budget exactly when the quotient is
        if self.horizon / self.dt_base > MAX_BASE_STEPS:
            raise ConfigError(
                f"horizon {self.horizon} at dt {self.dt_base} needs more than "
                f"MAX_BASE_STEPS = {MAX_BASE_STEPS} steps per path"
            )
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


def _add128(a, b):
    """Sum mod 2^128 of (lo, hi) uint64 word pairs."""
    lo = a[0] + b[0]
    return lo, a[1] + b[1] + (lo < a[0])


def _mul128(a, b):
    """Product mod 2^128 of (lo, hi) uint64 word pairs; lo * lo's high word from 32-bit halves."""
    half, shift = np.uint64(_WORD), np.uint64(32)
    a0, a1, b0, b1 = a[0] & half, a[0] >> shift, b[0] & half, b[0] >> shift
    mid = (a0 * b0 >> shift) + (a0 * b1 & half) + (a1 * b0 & half)
    carry = a1 * b1 + (a0 * b1 >> shift) + (a1 * b0 >> shift) + (mid >> shift)
    return a[0] * b[0], carry + a[0] * b[1] + a[1] * b[0]


def _stream_states(master_seed: int, paths: Sequence[int], stream: int) -> np.ndarray:
    """PCG64 state words of every path's stream ``stream``, shape (rows, 4).

    Row r is ``[state_lo, state_hi, inc_lo, inc_hi]`` of PCG64(SeedSequence(
    master_seed, spawn_key=(paths[r], stream))), mixed on uint32 and seeded
    on uint64 arrays over all paths at once.
    """
    words = []
    seed = master_seed
    while True:
        words.append(seed & _WORD)
        seed >>= 32
        if not seed:
            break
    # with a spawn key, the run entropy is zero-padded to the pool size
    words += [0] * (_POOL_SIZE - len(words))
    key = np.asarray(paths, dtype=np.uint32)
    entropy = [np.full(key.shape, w, np.uint32) for w in words]
    entropy += [key, np.full(key.shape, stream, np.uint32)]

    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _WORD
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(e))

    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    hash_b = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _WORD
        value = value * np.uint32(hash_b)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    hi0, lo0, hi1, lo1 = (out[2 * j] | out[2 * j + 1] << np.uint64(32) for j in range(4))
    inc = (lo1 << np.uint64(1) | np.uint64(1), hi1 << np.uint64(1) | lo1 >> np.uint64(63))
    # one step from state 0 gives inc; add the initial state, step again
    state = _add128(_mul128(_add128(inc, (lo0, hi0)), _PCG_MULT), inc)
    return np.stack(state + inc, axis=1)


def _state_view(bitgen: np.random.PCG64) -> tuple:
    """A writable uint64 view of ``bitgen``'s ``pcg_state`` words, and their order.

    Four distinct words set through ``bitgen.state`` tell the layout: native
    128-bit integers read back in ``_stream_states`` order, numpy's emulated
    ``{high, low}`` structs with each pair swapped; any other layout raises.
    """
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    view = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
    probe = {"state": 2 << 64 | 1, "inc": 5 << 64 | 3}
    bitgen.state = {"bit_generator": "PCG64", "state": probe, "has_uint32": 0, "uinteger": 0}
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if view.tolist() == [(1, 2, 3, 5)[c] for c in order]:
            return view, order
    raise RuntimeError(f"unknown PCG64 state layout: words 1, 2, 3, 5 read back as {view.tolist()}")


class PathStreams:
    """Per-path Gaussian and uniform streams, read one shared column per pass.

    Row r draws for ensemble member ``paths[r]``: Gaussians from the PCG64
    stream of SeedSequence(master_seed, spawn_key=(paths[r], 0)) and
    uniforms from key (paths[r], 1), whatever members run next to it, so a
    rerun of one path sees the identical numbers.  Every row's state words
    are seeded in one vectorized pass; a refill writes them into a
    layout-checked view of one bit generator's state, fills the row's next
    ``block`` draws and reads the advanced state back.

    ``normals(idx)`` moves the run's one column counter on, refilling both
    streams of the rows of ``idx`` in one wave when the block is used up,
    and returns that column's Gaussians; ``idx`` is an index array or
    slice(None), and its rows must be among the last call's.  ``uniforms``
    reads the same column for any subset of them; a row left out skips its
    uniforms there.  So a row's j-th call reads draw j of each stream,
    whatever the block size.  Callers must not write into what they are given.
    """

    def __init__(self, master_seed: int, paths: Sequence[int], dim: int, n_uniform: int,
                 block: int = BLOCK):
        self._bitgen = np.random.PCG64(0)
        gen = np.random.Generator(self._bitgen)
        self._view, order = _state_view(self._bitgen)
        self._gauss = np.empty((len(paths), block, dim))
        self._unif = np.empty((len(paths), block, n_uniform))
        # (state words in the bit generator's order, buffer, draw) per stream
        self._streams = [(_stream_states(master_seed, paths, 0)[:, order], self._gauss, gen.standard_normal)]
        if n_uniform:
            self._streams.append((_stream_states(master_seed, paths, 1)[:, order], self._unif, gen.random))
        self._col = block - 1  # the first call refills

    def normals(self, idx) -> np.ndarray:
        self._col += 1
        if self._col == self._gauss.shape[1]:
            # the state is read back, so a draw may take any number of outputs
            view, rows = self._view, np.arange(len(self._gauss))[idx].tolist()
            for words, buf, draw in self._streams:
                for r in rows:
                    view[:] = words[r]
                    draw(out=buf[r])
                    words[r, :2] = view[:2]
            self._col = 0
        return self._gauss[idx, self._col]

    def uniforms(self, idx) -> np.ndarray:
        return self._unif[idx, self._col]


@dataclass(frozen=True)
class _LiveRoots:
    """The R positive roots with k > 0 as float arrays, built once per run.

    Row r of the (R, s) ``idx``/``coef`` lists root r's nonzero coordinates
    in ascending order and their coefficients, padded to the largest
    support size s with coordinate 0 and coefficient 0.0; ``dots`` reads it
    in one gather, and a jump reflects over it one slot at a time.
    ``drift_levels`` lists, for q = 0, 1, ..., the coordinates touched by at
    least q + 1 roots and the rows lo:hi of the drift terms that hold the
    (q + 1)-th such root's term of each, in root order; row i of the terms
    is root ``drift_roots[i]``'s k / (alpha . x) times ``drift_coef[i]``.
    ``ks`` and ``rate_coef`` are the (R, 1) columns k and k |alpha|^2 / 2.
    """

    ks: np.ndarray
    sqns: np.ndarray
    idx: np.ndarray
    coef: np.ndarray
    drift_roots: np.ndarray
    drift_coef: np.ndarray
    drift_levels: tuple
    rate_coef: np.ndarray

    @property
    def count(self) -> int:
        return self.ks.shape[0]

    def dots(self, y: np.ndarray) -> np.ndarray:
        """C-contiguous (R, m) array of alpha . y for every root and every
        column of the (n, m) array y.

        Summed over the support in slot order with no matmul, from one row
        gather of y for all slots, so each entry is the dense row sum
        (x * alpha).sum() bit for bit wherever that is nonzero (for supports
        of up to two coordinates at any dimension, and of any size up to
        dimension 7), and a path's result does not depend on the batch.  An
        exact zero may differ in sign.
        """
        terms = y.take(self.idx.T, axis=0)
        terms *= self.coef.T[:, :, None]
        acc = terms[0]
        for more in terms[1:]:
            acc += more
        return acc


def _live_root_arrays(system: RootSystem) -> _LiveRoots:
    n = system.dimension
    live = system.live_positive
    s = max((len(r.support) for r in live), default=1)
    idx = np.zeros((len(live), s), dtype=np.int64)
    coef = np.zeros((len(live), s))
    column_terms = [[] for _ in range(n)]
    for r, root in enumerate(live):
        for c, (i, v) in enumerate(root.support):
            idx[r, c] = i
            coef[r, c] = float(v)
            column_terms[i].append((r, c))
    levels, terms = [], []
    for q in range(max((len(t) for t in column_terms), default=0)):
        cols = [j for j in range(n) if len(column_terms[j]) > q]
        lo = len(terms)
        terms += [column_terms[j][q] for j in cols]
        levels.append((slice(None) if len(cols) == n else np.asarray(cols), lo, len(terms)))
    rows, slots = np.asarray(terms, dtype=np.int64).reshape(-1, 2).T
    return _LiveRoots(
        ks=np.asarray([float(r.multiplicity) for r in live])[:, None],
        sqns=np.asarray([r.fsq_norm for r in live]),
        idx=idx,
        coef=coef,
        drift_roots=rows,
        drift_coef=coef[rows, slots][:, None],
        drift_levels=tuple(levels),
        # Python floats overflow to inf without numpy's warning
        rate_coef=np.asarray([float(r.multiplicity) * r.fsq_norm / 2.0 for r in live])[:, None],
    )


def _step_core(x, d_pre, h_state, t_rem, gauss, roots: _LiveRoots, cfg: SimConfig):
    """One proposal for every column of the (n, m) state ``x``; shared by
    ensemble and replay.

    ``d_pre`` is the caller's (R, m) alpha . x, C-contiguous and bitwise
    ``roots.dots(x)``: the loop carries it across steps, so it is never
    recomputed here.  ``gauss`` is (n, m).  Returns the (n, m) proposals,
    their (m,) steps h, the (R, m) mask of the walls each proposal crosses
    or lands on, the proposals' (R, m) alpha . x and the (R, m) jump rates
    at x (None without jumps).

    The proposal step is min(h_state, ceiling), where the ceiling applies
    dt_base, the time left to the next observation, and the adaptive drift
    and jump-rate caps, clamped from below at the floor dt_min (see the
    module's Numerics note).
    """
    n, m = x.shape

    # each coordinate sums its roots' k alpha_j / (alpha . x) in root order
    # from +0.0, as a dense per-root accumulation would
    terms = (roots.ks / d_pre).take(roots.drift_roots, axis=0)
    terms *= roots.drift_coef
    drift = np.zeros((n, m))
    for cols, lo, hi in roots.drift_levels:
        drift[cols] += terms[lo:hi]

    base = np.minimum(t_rem, cfg.dt_base)
    rates = None
    if cfg.jumps:
        rates = roots.rate_coef / (d_pre * d_pre)
    if roots.count:
        # a zero alpha . drift divides to inf, no cap (a zero alpha . x
        # makes the drift non-finite and the proposal is refused)
        cap = (cfg.drift_limit * np.abs(d_pre) / np.abs(roots.dots(drift))).min(axis=0)
        if cfg.jumps:
            # division is monotone, so this is the smallest limit / rate
            cap = np.minimum(cap, cfg.jump_rate_limit / rates.max(axis=0))
        ceiling = np.minimum(base, np.maximum(cap, cfg.dt_base * cfg.dt_floor_factor))
    else:
        ceiling = base
    h_try = np.minimum(h_state, ceiling)

    x_prop = x + h_try * drift + np.sqrt(h_try) * gauss

    d_prop = roots.dots(x_prop)
    cross = ((d_pre > 0) != (d_prop > 0)) | (d_prop == 0)
    return x_prop, h_try, cross, d_prop, rates


def _apply_jumps(x_prop, d_prop, hazard, u, roots: _LiveRoots):
    """Thin the per-root jump clocks; at most one reflection per step.

    ``x_prop`` is (n, m), ``d_prop`` and ``hazard`` (each root's rate
    times the step) are (R, m) and ``u`` is (R + 1, m): one uniform per
    root, then the one that selects among the roots that fired.  Selecting
    uniformly among the roots whose clocks fired is equivalent in law to
    taking the first firing in a random root order.  Returns the new
    states, ``x_prop`` itself when no clock fires, and the chosen live-root
    index per path (-1 for no jump).  A jump moves only the chosen root's
    support coordinates, so the others keep their bits (a -0.0 stays -0.0).
    """
    n_roots = hazard.shape[0]
    trig = u[:n_roots] < hazard
    root_idx = np.full(trig.shape[1], -1)
    if not trig.any():
        return x_prop, root_idx
    fired = np.flatnonzero(trig.any(axis=0))
    # choose and reflect on the triggering paths only
    trig = trig[:, fired]
    choice = np.floor(u[n_roots, fired] * trig.sum(axis=0)).astype(np.int64)
    pick = (np.cumsum(trig, axis=0) == choice + 1) & trig
    chosen = pick.argmax(axis=0)
    root_idx[fired] = chosen
    c = 2.0 * d_prop[chosen, fired] / roots.sqns[chosen]
    x_new = x_prop.copy()
    for slot in range(roots.idx.shape[1]):
        # one write per slot, on the paths whose chosen root fills it (a
        # padded slot has coefficient 0.0), so every (coordinate, path) is unique
        a = roots.coef[chosen, slot]
        real = a != 0.0
        x_new[roots.idx[chosen[real], slot], fired[real]] -= c[real] * a[real]
    return x_new, root_idx


def _members(rows, mask: np.ndarray) -> np.ndarray:
    """The run rows where ``mask`` holds, for ``rows`` the slice of every
    row or an index array."""
    return np.flatnonzero(mask) if isinstance(rows, slice) else rows[mask]


def _run(config: SimConfig, paths: Sequence[int], record=None) -> EnsembleResult:
    """The stepping loop: row r of the run is ensemble member ``paths[r]``.

    ``record(t, x, root_idx)``, if given, is called after each accepted step
    with the new times and (rows, n) states of the accepted rows and their
    chosen live-root indices (-1 for no jump; None when jumps are off).

    The state is (n, m), one column per row of the run, and the loop
    carries every row's (R, m) alpha . x (see the module's Layout note).

    While every row is active the rows are addressed by a full slice, and a
    step that accepts every proposal writes back without a scatter; index
    arrays appear only once some row has finished or been rejected.
    """
    system = config.effective_system()
    roots = _live_root_arrays(system)
    n_roots = roots.count
    n = system.dimension
    obs = np.asarray(config.observation_grid())
    n_obs = len(obs)
    x0 = np.asarray([float(c) for c in config.x0])
    d0 = roots.dots(x0[:, None])
    if (d0 == 0.0).any():
        raise HyperplaneError("x0 lies on a reflecting hyperplane with k > 0")

    # a path that always steps at dt_base reads at most this many draws, so
    # it refills once; slower paths refill again
    block = min(BLOCK, math.ceil(min(config.horizon / config.dt_base, BLOCK)) + n_obs)
    n_uniform = n_roots + 1 if config.jumps and n_roots else 0
    streams = PathStreams(config.master_seed, paths, n, n_uniform, block)
    m = len(paths)
    x = np.tile(x0[:, None], (1, m))
    d = np.tile(d0, (1, m))
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
    active = slice(None)
    passes = 0

    # overflow surfaces as the non-finite proposal check below, not as
    # numpy warnings; one errstate per run keeps the per-step cost flat
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            passes += 1
            xa = x[:, active]
            # take keeps the carried alpha . x C-contiguous (see Layout)
            da = d if isinstance(active, slice) else d.take(active, axis=1)
            ta = t[active]
            target = obs[ptr[active]]
            t_rem = target - ta
            gauss = streams.normals(active).T
            x_prop, h_try, cross, d_prop, rates = _step_core(
                xa, da, h_state[active], t_rem, gauss, roots, config
            )
            # an overflowing drift makes the step NaN, which no floor test or
            # time update would ever end
            if not np.isfinite(x_prop).all():
                raise SamplingError(
                    "a proposal is not finite; the drift overflows at these multiplicities"
                )
            aid = active
            if cross.any():
                viol = cross.any(axis=0)
                vid = _members(active, viol)
                # floor proposals are redrawn, not shrunk further; a run of
                # rejections there means the config is genuinely stuck
                strikes[vid[h_try[viol] <= dt_min]] += 1
                stuck = np.flatnonzero(strikes[vid] >= MAX_FLOOR_RETRIES)
                if stuck.size:
                    j = stuck[np.argmin(t[vid[stuck]])]
                    row, loc = vid[j], np.flatnonzero(viol)[j]
                    raise StepUnderflowError(
                        "proposals at the dt floor keep crossing a hyperplane",
                        time=float(t[row]),
                        path_index=int(paths[row]),
                        state=tuple(float(v) for v in x[:, row]),
                        root=int(np.argmax(cross[:, loc])),
                        dt=float(h_try[loc]),
                    )
                h_state[vid] = np.maximum(h_try[viol] / 2.0, dt_min)
                violations[vid] += 1
                acc = ~viol
                if not acc.any():
                    continue
                aid = _members(active, acc)
                x_prop, h_try, d_prop = x_prop[:, acc], h_try[acc], d_prop[:, acc]
                target, ta, t_rem = target[acc], ta[acc], t_rem[acc]
                if rates is not None:
                    rates = rates[:, acc]
            strikes[aid] = 0
            root_idx = None
            if config.jumps and n_roots:
                u = streams.uniforms(aid).T
                hazard = rates * h_try
                # the rates are not read again this pass; freeing them keeps
                # one (R, m) array, not two, alive into the next proposal
                del rates
                x_new, root_idx = _apply_jumps(x_prop, d_prop, hazard, u, roots)
                if x_new is not x_prop:
                    # a reflected row's alpha . x is not its proposal's
                    x_prop, jumped = x_new, root_idx >= 0
                    d_prop[:, jumped] = roots.dots(x_prop[:, jumped])
                    jump_counts[_members(aid, jumped)] += 1
                # one root at a time in root order, whatever the layout
                capped = np.minimum(hazard, 1.0)
                total = capped[0].copy()
                for row in capped[1:]:
                    total += row
                intensity[aid] += total
            t_new = np.where(h_try >= t_rem, target, ta + h_try)
            h_new = np.minimum(2.0 * h_try, config.dt_base)
            if isinstance(aid, slice):
                x, d, t, h_state = x_prop, d_prop, t_new, h_new
            else:
                x[:, aid], d[:, aid], t[aid], h_state[aid] = x_prop, d_prop, t_new, h_new
            if record is not None:
                record(t_new, x_prop.T, root_idx)
            hit = t_new == target
            if hit.any():
                hid = _members(aid, hit)
                out[hid, ptr[hid], :] = x_prop[:, hit].T
                ptr[hid] += 1
                if (ptr[hid] == n_obs).any():
                    # a row makes one proposal in every pass while it is active
                    steps[hid[ptr[hid] == n_obs]] = passes
                    active = np.flatnonzero(ptr < n_obs)
                    if not active.size:
                        break
    return EnsembleResult(
        obs_times=tuple(float(v) for v in obs),
        states=out,
        jump_counts=jump_counts,
        intensity_integrals=intensity,
        steps=steps,
        violations=violations,
    )


def _run_chunk(config: SimConfig, lo: int, hi: int) -> EnsembleResult:
    # looked up at call time, in the worker, so a patched _run carries over
    return _run(config, range(lo, hi))


def simulate(config: SimConfig) -> EnsembleResult:
    """Run the full ensemble and record states at the observation grid.

    The paths run in chunks of at most CHUNK indices, each copied in order
    into one result allocated up front, so memory beyond the result does
    not grow with the ensemble and no sampled bit changes.  The chunks are
    stepped in forked worker processes, one per usable CPU and at most one
    per chunk, and in this process when there is one CPU, one chunk or no
    ``fork``; a chunk's bits do not depend on where it runs.  A
    StepUnderflowError names the earliest stuck path of the first chunk
    that sticks, not of the whole ensemble; that path still replays, and
    chunks not started by then never start.
    """
    m = config.ensemble
    obs = np.asarray(config.observation_grid())
    res = EnsembleResult(
        obs_times=tuple(float(v) for v in obs),
        states=np.empty((m, len(obs), config.system.dimension)),
        jump_counts=np.empty(m, dtype=np.int64),
        intensity_integrals=np.empty(m),
        steps=np.empty(m, dtype=np.int64),
        violations=np.empty(m, dtype=np.int64),
    )
    bounds = [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]
    parts = fork_map(_run_chunk, [(config, lo, hi) for lo, hi in bounds])
    for (lo, hi), part in zip(bounds, parts):
        for name in ("states", "jump_counts", "intensity_integrals", "steps", "violations"):
            getattr(res, name)[lo:hi] = getattr(part, name)
    return res


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


def _jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal (Jacobi) matrix
    (Golub and Welsch, Math. Comp. 23, 1969), by a dense eigvalsh: the
    matrix is at most HERMITE_CAP square.
    """
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))


def hermite_roots(n: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_n, ascending.

    Eigenvalues of the symmetric Jacobi matrix with zero diagonal and
    off-diagonal sqrt(j / 2); cheap and stable for n up to 50.
    """
    if not 1 <= n <= HERMITE_CAP:
        raise ValueError(f"n must lie in 1..{HERMITE_CAP}")
    return _jacobi_eigenvalues(np.zeros(n), np.sqrt(np.arange(1, n) / 2.0))


def laguerre_roots(n: int, a: float = 0.0) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(a), ascending; n up to 50."""
    if not 1 <= n <= HERMITE_CAP:
        raise ValueError(f"n must lie in 1..{HERMITE_CAP}")
    if not -1 < a < math.inf:
        raise ValueError(f"a must be finite and exceed -1, got {a}")
    j = np.arange(1, n)
    return _jacobi_eigenvalues(2.0 * np.arange(n) + a + 1.0, np.sqrt(j * (j + a)))


def _electrostatic_residual(z: np.ndarray, field) -> float:
    """max_i | sum_{j != i} 1/(z_i - z_j) - field(z_i) |."""
    z = np.asarray(z, dtype=float)
    worst = 0.0
    for i in range(len(z)):
        s = sum(1.0 / (z[i] - z[j]) for j in range(len(z)) if j != i)
        worst = max(worst, abs(s - field(z[i])))
    return worst


def hermite_electrostatic_residual(z: np.ndarray) -> float:
    """max_i | sum_{j != i} 1/(z_i - z_j) - z_i |; zero at the Hermite zeros."""
    return _electrostatic_residual(z, lambda zi: zi)


def laguerre_electrostatic_residual(z: np.ndarray, a: float) -> float:
    """max_i | sum_{j != i} 1/(z_i - z_j) - (z_i - a - 1)/(2 z_i) |."""
    return _electrostatic_residual(z, lambda zi: (zi - a - 1.0) / (2.0 * zi))


# ---------------------------------------------------------------------------
# freezing


@dataclass(frozen=True)
class FreezeSample:
    k: float
    mean_sup: float
    max_sup: float
    scaled_mean: np.ndarray
    target: np.ndarray

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "mean_sup": self.mean_sup,
            "max_sup": self.max_sup,
            "scaled_mean": [float(v) for v in self.scaled_mean],
            "target": [float(v) for v in self.target],
        }


def _freeze_sample(family, rank, orbits, target, k, t, n_paths, seed, spawn):
    """Run the radial ensemble of ``family`` ``rank`` with multiplicity k on
    each of its ``orbits`` from 0.01 * (1, ..., N) to time t with drift cap
    0.05, scale the sorted particle vectors by 1/sqrt(2 k t) and measure
    their sup-distance to ``target``.  The run seed is spawned from ``seed``
    with key (spawn,).  A k that is not positive and finite raises
    ConfigError: the scale has no answer.
    """
    if not 0 < k < math.inf:
        raise ConfigError(f"k must be positive and finite, got {k}")
    n = len(target)
    config = SimConfig(
        system=build_root_system(family, rank, [float(k)] * orbits),
        x0=tuple(0.01 * (j + 1) for j in range(n)),
        horizon=t,
        ensemble=n_paths,
        master_seed=int(np.random.SeedSequence(seed, spawn_key=(spawn,)).generate_state(1, np.uint64)[0]),
        drift_limit=0.05,
    )
    res = simulate(config)
    zeta = np.sort(res.final_states, axis=1) / math.sqrt(2.0 * k * t)
    sup = np.abs(zeta - target[None, :]).max(axis=1)
    return FreezeSample(
        k=float(k),
        mean_sup=float(sup.mean()),
        max_sup=float(sup.max()),
        scaled_mean=zeta.mean(axis=0),
        target=target,
    )


def freezing_experiment(
    n_particles: int,
    k_values: Sequence[float],
    t: float = 1.0,
    n_paths: int = 200,
    seed: int = 0,
) -> list:
    """Large-multiplicity collapse of the radial process onto Hermite zeros.

    One FreezeSample per k, a ``_freeze_sample`` run against the zero
    configuration.  The per-k seeds are spawned from ``seed`` so adding a k
    never reshuffles the others.
    """
    target = hermite_roots(n_particles)
    return [
        _freeze_sample("A", n_particles - 1, 1, target, k, t, n_paths, seed, i)
        for i, k in enumerate(k_values)
    ]


def laguerre_freezing_probe(
    n_particles: int,
    k: float,
    t: float = 1.0,
    n_paths: int = 100,
    seed: int = 0,
) -> dict:
    """The two-orbit chain B_N with equal multiplicities freezes onto the
    square roots of the Laguerre zeros (a = 0).  Returns the sup-distance
    statistics of the scaled ensemble against that configuration.
    """
    target = np.sqrt(laguerre_roots(n_particles, 0.0))
    return _freeze_sample("B", n_particles, 2, target, k, t, n_paths, seed, 0).as_dict()


# Dormand-Prince 5(4) for an autonomous flow: row i of _DP_A weights the
# stages before stage i, row 6 is the fifth-order step (so stage 6 is the
# next step's stage 0), and _DP_E is the fifth minus the fourth-order weights.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dopri5(f, y, s, s_end, rtol, atol) -> np.ndarray:
    """y(s_end) for dy/ds = f(y) from y(s) = y, by the Dormand-Prince 5(4)
    pair (J. Comp. Appl. Math. 6, 1980) with RMS error control and step
    factor 0.9 err^(-1/5) clipped to [0.2, 10].  More than ODE_MAX_STEPS
    attempted steps raise SamplingError.
    """
    k = np.empty((7, len(y)))
    k[0] = f(y)
    h = 1e-6 * (s_end - s)
    for _ in range(ODE_MAX_STEPS):
        if s >= s_end:
            return y
        h = min(h, s_end - s)
        for i in range(1, 7):
            y_new = y + h * (_DP_A[i, :i] @ k[:i])
            k[i] = f(y_new)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = math.sqrt(np.mean((h * (_DP_E @ k) / scale) ** 2))
        if err <= 1.0:
            s, y = s + h, y_new
            k[0] = k[6]
        h *= min(10.0, max(0.2, 0.9 * err**-0.2)) if err else 10.0
    raise SamplingError(f"freezing flow integration took more than {ODE_MAX_STEPS} steps")


def deterministic_freeze_ode(n_particles: int, t_end: float = 1e3) -> dict:
    """Zero-noise freezing flow integrated in log-time.

    In y = x / sqrt(2 t) and s = log t the unit-multiplicity radial flow
    reads dy/ds = (F(y) - y) / 2 with F(y)_i = sum_{j != i} 1/(y_i - y_j).
    Its unique equilibrium in the ordered chamber is the Hermite zero set,
    attracting with spectral rate at most -1/2, so by s = log(t_end) the
    trajectory, started at t = ODE_START from 0.01-spaced centred
    points, sits on the attractor to solver precision.  The flow is stepped
    by the Dormand-Prince 5(4) pair at rtol 1e-12, atol 1e-14.  A t_end that
    is not finite or not past the start raises ValueError.
    """
    if not ODE_START < t_end < math.inf:
        raise ValueError(f"t_end must be finite and above {ODE_START}, got {t_end}")
    n = n_particles
    y0 = np.asarray([0.01 * (i - (n - 1) / 2.0) for i in range(n)])

    def rhs(y):
        diff = y[:, None] - y[None, :]
        np.fill_diagonal(diff, np.inf)
        return 0.5 * ((1.0 / diff).sum(axis=1) - y)

    final = _dopri5(rhs, y0, math.log(ODE_START), math.log(t_end), rtol=1e-12, atol=1e-14)
    target = hermite_roots(n)
    return {
        "y": final,
        "target": target,
        "sup_error": float(np.abs(final - target).max()),
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
    def z_score(self) -> float | None:
        """(observed - predicted) / std_error; None when the standard error
        is zero (one path) and the observation misses the prediction."""
        if self.std_error == 0:
            return 0.0 if self.observed == self.predicted else None
        return (self.observed - self.predicted) / self.std_error

    def within(self, n_sigma: float = 3.0) -> bool:
        z = self.z_score
        return z is not None and abs(z) <= n_sigma


def moment_from_result(config: SimConfig, res: EnsembleResult) -> MomentReport:
    """Check E|X_T|^2 - |x0|^2 = (N + 2 gamma) T on the final ensemble.

    A huge multiplicity can push |X_T|^2, or the |X_T|^4 in the standard
    error, past the float range; then ConfigError names the moment, and numpy
    prints no warning.
    """
    system = config.effective_system()
    base = sum(float(c) ** 2 for c in config.x0)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (res.final_states**2).sum(axis=1)
        observed = float(sq.mean()) - base
        se = float(sq.std(ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
    gamma = float(system.gamma)
    predicted = (system.dimension + 2.0 * gamma) * config.horizon
    if not all(map(math.isfinite, (observed, predicted, se))):
        raise ConfigError(
            f"the moment E|X_T|^2 - |x0|^2 = (N + 2 gamma) T has no finite value: observed "
            f"{observed!r}, predicted {predicted!r}, standard error {se!r}"
        )
    return MomentReport(
        observed=observed,
        predicted=predicted,
        std_error=se,
        n_paths=int(len(sq)),
    )


def moment_law_report(config: SimConfig) -> MomentReport:
    return moment_from_result(config, simulate(config))
