"""Calogero-Moser Hamiltonians with exchange terms, and the frozen spin chain.

The Hamiltonian attached to a root system R with multiplicity k and trap
frequency omega acts on a function f as

    H f(x) = -1/2 Delta f(x)
           + sum_{alpha in R+} |alpha|^2/2 * k(alpha)
               [k(alpha) f(x) - f(sigma_alpha x)] / (alpha . x)^2
           + omega^2/2 |x|^2 f(x),

i.e. the exchange operator in the potential is realized by reflecting the
argument of f.  Its ground energy is E0 = omega (gamma + N/2), with ground
state Phi0 = exp(-W0), proportional to exp(-omega |x|^2 / 2) * sqrt(w_k).
``w_value``, ``w_gradient`` and ``w_laplacian`` are the one closed form of
the gauge W(tau, x) = omega |x|^2/2 - sum_{R+} k log|alpha . x| + omega N tau,
its x-gradient and its x-Laplacian; they take ``CMParams``, as every
check of ``transform`` does, and W0 is W at tau = 0.  ``dunkl.live_dots``
refuses the points where they would divide by zero or read NaN.

On every root system the ground-state gauge conjugates H to the Dunkl
heat-type operator (Delta_k = sum_i T_i^2, E = sum_j x_j d_j):

    -e^{W0} (H - E0) e^{-W0} p = [ 1/2 Delta_k - omega E ] p.

``conjugation_sides`` checks it on an exact polynomial: the left side is
``cm_apply`` on p's gauged jet (``_GaugedJet``; W0 is reflection
invariant), the right the exact Dunkl polynomial.  For p = 1 it is the
ground-state relation (``groundstate_residual``).  ``pair_gauge`` is the
type-A gauge in pair sums, with no root machinery, for the independent
check in ``transform.corollary1_sides``.

The frozen (k -> infinity) limit of the spin Calogero model on Hermite
roots z_1..z_N is the inverse-square exchange spin chain

    H = sum_{i<j} P_ij / (z_i - z_j)^2

on (C^2)^{tensor N}, with P_ij the transposition of spin sites i and j.
Every P_ij conserves S^z, so ``pf_matrix`` (N <= 12) builds H directly as
its fixed-popcount blocks and never allocates the 2^N x 2^N matrix; spectra
and the trace are taken block by block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dunkl import (
    DunklContext, PointFunction, PolyFunction, dunkl_laplacian_direct, live_dots, refuse_non_finite,
)
from .errors import DimensionError, ExactModeError, HyperplaneError
from .polyx import MultiPoly
from .rootsys import RootSystem, Scalar, _reflect, build_root_system, dot

SPIN_SITE_CAP = 12


@dataclass(frozen=True)
class CMParams:
    """Root system, multiplicities (carried by the system) and a finite
    omega >= 0: the one parameter type of ``cm`` and ``transform``."""

    system: RootSystem
    omega: Scalar = 0

    def __post_init__(self):
        if not 0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and nonnegative, got {self.omega!r}")


def cm_apply(params: CMParams, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """(H f)(x) with the exchange term acting by argument reflection.

    At an all-float point k and k |alpha|^2 are the root's cached floats.
    """
    live = params.system.live_positive
    dots = live_dots(params.system, x)
    f_refs = [f.value(_reflect(r, x, d)) for r, d in zip(live, dots)]
    return _cm_core(params, x, dots, f.value(x), f.laplacian(x), f_refs)


def _cm_core(params: CMParams, x, dots, fx, lap, f_refs) -> Scalar:
    """``cm_apply`` from the guarded dots alpha . x, f(x), Delta f(x) and
    f(sigma_alpha x), each root of ``live_positive`` in order."""
    floats = all(type(c) is float for c in x)
    acc = -lap / 2
    for r, d, f_ref in zip(params.system.live_positive, dots, f_refs):
        k, w = (r.fmultiplicity, r.fweight) if floats else (r.multiplicity, r.multiplicity * r.sq_norm)
        acc = acc + w * (k * fx - f_ref) / (2 * d * d)
    if params.omega:
        acc = acc + (params.omega * params.omega) * sum(c * c for c in x) * fx / 2
    return acc


def ground_energy(params: CMParams) -> Scalar:
    """E0 = omega (gamma + N/2); exact for rational inputs."""
    n = params.system.dimension
    return params.omega * (2 * params.system.gamma + n) / 2


def ground_energy_a_type(n_particles: int, k: Scalar) -> Scalar:
    """Type-A ground energy at omega = k: (k N + k^2 N(N-1)) / 2."""
    n = n_particles
    return (k * n + k * k * n * (n - 1)) / 2


def _log_signed(s):
    # holomorphic continuation of log|s| off the real axis; valid while the
    # real part keeps the sign of the underlying real point
    if isinstance(s, complex):
        return cmath.log(s) if s.real > 0 else cmath.log(-s)
    if s == 0:
        raise HyperplaneError("log|alpha . x| undefined on a hyperplane")
    return math.log(abs(s))


def w_value(params: CMParams, tau, x):
    """W(tau, x); accepts complex tau or x entries (analytic branch)."""
    system = params.system
    omega = params.omega
    acc = omega * sum(z * z for z in x) / 2 + omega * system.dimension * tau
    for r in system.live_positive:
        acc = acc - r.fmultiplicity * _log_signed(dot(r.vector, x))
    return acc


def w_gradient(params: CMParams, x):
    """grad_x W = omega x - sum_{R+} k alpha / (alpha . x)."""
    return _w_gradient(params, x, live_dots(params.system, x))


def _w_gradient(params: CMParams, x, dots):
    g = [params.omega * z for z in x]
    for r, d in zip(params.system.live_positive, dots):
        for i, a in r.support:
            g[i] = g[i] - r.fmultiplicity * a / d
    return g


def w_laplacian(params: CMParams, x):
    """Delta_x W = omega N + sum_{R+} k |alpha|^2 / (alpha . x)^2."""
    return _w_laplacian(params, live_dots(params.system, x))


def _w_laplacian(params: CMParams, dots):
    acc = params.omega * params.system.dimension
    for r, d in zip(params.system.live_positive, dots):
        acc = acc + r.fmultiplicity * r.fsq_norm / (d * d)
    return acc


class _GaugedJet:
    """e^{W(x)} e^{-W} U near one point x, read there by ``cm_apply`` and ``kfe_generator``.

    W is reflection invariant, so the values are U's.  The gradient and the
    Laplacian at x are grad U - U grad W and
    Delta U - 2 grad W . grad U + (|grad W|^2 - Delta W) U.
    ``dots`` are the guarded alpha . x of ``live_positive``.
    """

    def __init__(self, params, x, value, u0, grad_u, lap_u, dots):
        g = _w_gradient(params, x, dots)
        quad = sum(gi * gi for gi in g) - _w_laplacian(params, dots)
        self.value = value
        self.grad = [du - u0 * gi for du, gi in zip(grad_u, g)]
        self.lap = lap_u - 2 * sum(gi * du for gi, du in zip(g, grad_u)) + quad * u0

    def gradient(self, x):
        return self.grad

    def laplacian(self, x):
        return self.lap


def groundstate_value(params: CMParams, x: Sequence[Scalar]) -> float:
    """Phi0(x) = exp(-omega |x|^2 / 2) * prod_{R+} |alpha . x|^k, unnormalized."""
    return math.exp(-w_value(params, 0.0, [float(c) for c in x]))


def groundstate_residual(params: CMParams, x: Sequence[Scalar]) -> float:
    """(H - E0) Phi0 evaluated at x, with Phi0's derivatives in closed form.

    (H Phi0)/Phi0 is ``cm_apply`` on the gauged jet of the constant 1, then
    scaled by Phi0.
    """
    xs = [float(c) for c in x]
    jet = _GaugedJet(params, xs, lambda z: 1.0, 1.0, [0.0] * len(xs), 0.0, live_dots(params.system, xs))
    e0 = float(ground_energy(params))
    return (cm_apply(params, jet, xs) - e0) * groundstate_value(params, xs)


def pair_gauge(x: Sequence[float]) -> tuple[list[float], float]:
    """(grad W, Delta W) for W = |x|^2/2 - sum_{i<j} log|x_i - x_j|, in pair sums.

    A coordinate that is not finite raises ValueError; a pair whose term
    1/(x_i - x_j)^2 is not a positive finite float (the particles coincide
    or nearly so, or lie so far apart that the square overflows) raises
    HyperplaneError naming the pair.
    """
    refuse_non_finite(x)
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                w = 1.0 / (x[i] - x[j]) ** 2
            except (OverflowError, ZeroDivisionError):
                w = math.inf
            if not 0.0 < w < math.inf:
                raise HyperplaneError(
                    f"particles {i} and {j} at {x[i]!r} and {x[j]!r}: the pair term "
                    "1/(x_i - x_j)^2 is not a positive finite float"
                )
    grad = []
    for i in range(n):
        gi = x[i]
        for j in range(n):
            if j != i:
                gi -= 1.0 / (x[i] - x[j])
        grad.append(gi)
    lap = float(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                lap += 1.0 / (x[i] - x[j]) ** 2
    return grad, lap


# ---------------------------------------------------------------------------
# the ground-state conjugation


@dataclass(frozen=True)
class SideBySide:
    """Two evaluations of one identity and their difference."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def scale(self) -> float:
        return max(abs(self.lhs), abs(self.rhs), 1.0)


def conjugation_sides(
    params: CMParams, p: MultiPoly, points: Sequence[Sequence[float]]
) -> list[SideBySide]:
    """Both sides of -e^{W0}(H - E0)e^{-W0} p = (1/2 Delta_k - omega E) p at each point.

    Left: E0 p(x) - ``cm_apply`` on p's gauged jet.  Right: the exact
    polynomial, built once per call; it needs an exact system with rational
    multiplicities (else ExactModeError), and takes omega exactly.
    """
    n = params.system.dimension
    # the Dunkl Laplacian first: it refuses a p in the wrong variable count
    lap_k = dunkl_laplacian_direct(DunklContext(params.system), p)
    euler = MultiPoly.zero(n)
    for j in range(n):
        euler = euler + MultiPoly.variable(n, j) * p.partial_derivative(j)
    rhs = Fraction(1, 2) * lap_k - Fraction(params.omega) * euler
    fn = PolyFunction(p)
    e0 = float(ground_energy(params))
    sides = []
    for x in points:
        xs = [float(c) for c in x]
        u0 = fn.value(xs)
        jet = _GaugedJet(
            params, xs, fn.value, u0, fn.gradient(xs), fn.laplacian(xs), live_dots(params.system, xs)
        )
        lhs = e0 * u0 - cm_apply(params, jet, xs)
        sides.append(SideBySide(lhs=lhs, rhs=float(rhs.eval(xs))))
    return sides


def transformed_hamiltonian_check(
    n_particles: int, k: Scalar, p: MultiPoly, x: Sequence[float]
) -> SideBySide:
    """``conjugation_sides`` at one point on A_{N-1} with multiplicity k and
    omega = k.  Needs rational k so that the right side stays exact.
    """
    if n_particles < 2:
        raise DimensionError("need at least two particles")
    if isinstance(k, float):
        k = Fraction(k)
        if k.denominator > 10**6:
            raise ExactModeError("k must be rational for the exact right-hand side")
    params = CMParams(build_root_system("A", n_particles - 1, [k]), omega=k)
    return conjugation_sides(params, p, [x])[0]


# ---------------------------------------------------------------------------
# frozen spin chain


def _popcount_states(n: int) -> list[np.ndarray]:
    """For p = 0..n, the basis states with p up spins in ascending b."""
    b = np.arange(1 << n)
    pop = ((b[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return [np.flatnonzero(pop == p) for p in range(n + 1)]


@dataclass(frozen=True, eq=False)
class SpinChainMatrix:
    """Inverse-square exchange spin chain on N spin-1/2 sites, per S^z block.

    Basis index b encodes the spin configuration bitwise: bit i of b is the
    spin at site i.  Every P_ij keeps the number of up spins, so H is block
    diagonal over the popcount of b: ``blocks[p]`` is H on the states with
    p up spins, listed in ascending b, and is exactly symmetric by
    construction.  The largest block at N sites is C(N, N/2) wide instead
    of 2^N, and the dense matrix is built only when ``matrix`` is read.
    """

    positions: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2^N x 2^N matrix, assembled from the blocks."""
        dim = 1 << self.n_sites
        h = np.zeros((dim, dim))
        for states, block in zip(_popcount_states(self.n_sites), self.blocks):
            h[np.ix_(states, states)] = block
        return h

    def trace(self) -> float:
        """Tr H, the diagonal summed in b order."""
        diag = np.empty(1 << self.n_sites)
        for states, block in zip(_popcount_states(self.n_sites), self.blocks):
            diag[states] = block.diagonal()
        return float(diag.sum())

    def eigenvalues(self) -> np.ndarray:
        """The ascending spectrum, one S^z block at a time."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in self.blocks]))


def pf_matrix(z: Sequence[float]) -> SpinChainMatrix:
    """H = sum_{i<j} P_ij / (z_i - z_j)^2 on the 2^N spin basis, per S^z block."""
    n = len(z)
    if n < 2:
        raise DimensionError("need at least two sites")
    if n > SPIN_SITE_CAP:
        raise DimensionError(f"spin chain capped at {SPIN_SITE_CAP} sites")
    zs = [float(v) for v in z]
    for i, v in enumerate(zs):
        if not math.isfinite(v):
            raise ValueError(f"site {i} position {v!r} is not finite")
    states = _popcount_states(n)
    # every block lives in one flat buffer; state b's row in its block starts
    # at flat index row[b], and b is column col[b] of its block
    sizes = [s.size for s in states]
    starts = np.cumsum([0] + [m * m for m in sizes])
    row = np.empty(1 << n, dtype=np.int64)
    col = np.empty(1 << n, dtype=np.int64)
    for p, s in enumerate(states):
        col[s] = np.arange(s.size)
        row[s] = starts[p] + col[s] * s.size
    flat = np.zeros(starts[-1])
    b = np.arange(1 << n)
    bits = (b[:, None] >> np.arange(n)) & 1
    diag = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                w = 1.0 / (zs[i] - zs[j]) ** 2
            except (OverflowError, ZeroDivisionError):
                w = 0.0
            if not 0.0 < w < math.inf:
                raise ValueError(
                    f"sites {i} and {j} at {zs[i]!r} and {zs[j]!r}: the weight "
                    "1/(z_i - z_j)^2 is not a positive finite float"
                )
            same = bits[:, i] == bits[:, j]
            # equal spins: P_ij fixes b; the diagonal sums w in pair order
            diag[same] += w
            # unequal spins: P_ij swaps them, one entry per state
            flip = b[~same]
            flat[row[flip ^ ((1 << i) | (1 << j))] + col[flip]] = w
    flat[row + col] = diag
    blocks = tuple(flat[lo:hi].reshape(m, m) for lo, hi, m in zip(starts, starts[1:], sizes))
    return SpinChainMatrix(positions=tuple(zs), blocks=blocks)
