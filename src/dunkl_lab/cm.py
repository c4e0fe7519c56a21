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
its x-gradient and its x-Laplacian, for any params with ``system`` and
``omega`` (``transform`` uses them too); W0 is W at tau = 0.

For type A the operator is conjugate to the Dunkl heat-type operator: with
W(x) = |x|^2/2 - sum_{i<j} log|x_i - x_j| and E = (k N + k^2 N(N-1))/2,

    -e^{kW} (H - E) e^{-kW} p = [ 1/2 sum_i T_i^2 - k sum_j x_j d_j ] p.

``pair_gauge`` gives grad W and Delta W of that W in pair sums, with no root
machinery, and ``transformed_hamiltonian_check`` evaluates both sides of the
identity on an exact polynomial: the left via closed-form product-rule
expansion, the right via the exact Dunkl operators.

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
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dunkl import DunklContext, PointFunction, dunkl_laplacian_direct
from .errors import DimensionError, ExactModeError, HyperplaneError
from .polyx import MultiPoly
from .rootsys import RootSystem, Scalar, build_root_system, dot, reflect

SPIN_SITE_CAP = 12


@dataclass(frozen=True)
class CMParams:
    """Root system, multiplicities (carried by the system) and omega >= 0."""

    system: RootSystem
    omega: Scalar = 0

    def __post_init__(self):
        if not self.omega >= 0:
            raise ValueError("omega must be nonnegative")


def cm_apply(params: CMParams, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """(H f)(x) with the exchange term acting by argument reflection.

    At an all-float point k and k |alpha|^2 are the root's cached floats.
    """
    system = params.system
    if len(x) != system.dimension:
        raise DimensionError("point dimension mismatch")
    floats = all(type(c) is float for c in x)
    fx = f.value(x)
    acc = -f.laplacian(x) / 2
    for r in system.live_positive:
        k, w = (r.fmultiplicity, r.fweight) if floats else (r.multiplicity, r.multiplicity * r.sq_norm)
        d = r.dot(x)
        if d == 0:
            raise HyperplaneError("point lies on a reflecting hyperplane")
        acc = acc + w * (k * fx - f.value(reflect(r, x))) / (2 * d * d)
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


def w_value(params, tau, x):
    """W(tau, x); accepts complex tau or x entries (analytic branch)."""
    system = params.system
    omega = params.omega
    acc = omega * sum(z * z for z in x) / 2 + omega * system.dimension * tau
    for r in system.live_positive:
        acc = acc - r.fmultiplicity * _log_signed(dot(r.vector, x))
    return acc


def w_gradient(params, x):
    """grad_x W = omega x - sum_{R+} k alpha / (alpha . x)."""
    g = [params.omega * z for z in x]
    for r in params.system.live_positive:
        d = r.dot(x)
        if d == 0:
            raise HyperplaneError("point lies on a reflecting hyperplane")
        for i, a in r.support:
            g[i] = g[i] - r.fmultiplicity * a / d
    return g


def w_laplacian(params, x):
    """Delta_x W = omega N + sum_{R+} k |alpha|^2 / (alpha . x)^2."""
    system = params.system
    acc = params.omega * system.dimension
    for r in system.live_positive:
        d = r.dot(x)
        if d == 0:
            raise HyperplaneError("point lies on a reflecting hyperplane")
        acc = acc + r.fmultiplicity * r.fsq_norm / (d * d)
    return acc


def groundstate_value(params: CMParams, x: Sequence[Scalar]) -> float:
    """Phi0(x) = exp(-omega |x|^2 / 2) * prod_{R+} |alpha . x|^k, unnormalized."""
    return math.exp(-w_value(params, 0.0, [float(c) for c in x]))


def groundstate_residual(params: CMParams, x: Sequence[Scalar]) -> float:
    """(H - E0) Phi0 evaluated at x, with Phi0's derivatives in closed form.

    Phi0(x) = exp(-W0) with W0 = omega |x|^2/2 - (1/2) log w_k.  The
    conjugated value (H Phi0)/Phi0 is assembled from grad W0 and
    Delta W0 without invoking any summation identity, then scaled by Phi0.
    """
    omega = float(params.omega)
    xs = [float(c) for c in x]
    grad_w0 = w_gradient(params, xs)
    lap_w0 = w_laplacian(params, xs)
    # Phi0 is reflection invariant, so the exchange term contributes
    # k(k-1) per root.
    exchange = 0.0
    for r in params.system.live_positive:
        k = r.fmultiplicity
        d = r.dot(xs)
        exchange += (r.fsq_norm / 2) * k * (k - 1) / (d * d)
    sq_grad = sum(g * g for g in grad_w0)
    ratio = -0.5 * (sq_grad - lap_w0) + exchange + omega * omega * sum(c * c for c in xs) / 2
    e0 = float(ground_energy(params))
    return (ratio - e0) * groundstate_value(params, xs)


def pair_gauge(x: Sequence[float]) -> tuple[list[float], float]:
    """(grad W, Delta W) for W = |x|^2/2 - sum_{i<j} log|x_i - x_j|, in pair sums."""
    n = len(x)
    if len(set(x)) < n:
        raise HyperplaneError("two particles coincide")
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
# type-A transformed Hamiltonian


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


def transformed_hamiltonian_check(
    n_particles: int, k: Scalar, p: MultiPoly, x: Sequence[float]
) -> SideBySide:
    """Both sides of the type-A conjugation identity at a point.

    Left side: -e^{kW}(H - E) e^{-kW} p expanded by the product rule with
    W = |x|^2/2 - sum_{i<j} log|x_i - x_j|.  Right side: the exact
    polynomial (1/2 sum T_i^2 - k sum x_j d_j) p evaluated at x.  Needs
    rational k so that the right side stays exact.
    """
    n = n_particles
    if n < 2:
        raise DimensionError("need at least two particles")
    if p.nvars != n:
        raise DimensionError("polynomial variables must match the particle count")
    if isinstance(k, float):
        k = Fraction(k)
        if k.denominator > 10**6:
            raise ExactModeError("k must be rational for the exact right-hand side")
    kf = float(k)
    xs = [float(c) for c in x]

    # left side, closed forms
    pf = p.eval(xs)
    grad = [g.eval(xs) for g in p.gradient()]
    lap = p.laplacian().eval(xs)
    gw, lap_w = pair_gauge(xs)
    sq_gw = sum(g * g for g in gw)
    exch = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            sx = list(xs)
            sx[i], sx[j] = sx[j], sx[i]
            exch += kf * (kf * pf - p.eval(sx)) / (xs[i] - xs[j]) ** 2
    energy = float(ground_energy_a_type(n, Fraction(k)))
    lhs = (
        0.5 * (lap - 2 * kf * sum(a * b for a, b in zip(gw, grad)) + (kf * kf * sq_gw - kf * lap_w) * pf)
        - exch
        - (kf * kf / 2) * sum(c * c for c in xs) * pf
        + energy * pf
    )

    # right side, exact polynomial then float evaluation
    rhs = float(_conjugated_rhs(n, Fraction(k), tuple(p.terms.items())).eval(xs))
    return SideBySide(lhs=lhs, rhs=rhs)


@lru_cache(maxsize=256)
def _conjugated_rhs(n: int, k: Fraction, terms: tuple) -> MultiPoly:
    """(1/2 sum T_i^2 - k sum x_j d_j) p, exactly, built once per (n, k, p)."""
    p = MultiPoly(n, dict(terms))
    ctx = DunklContext(build_root_system("A", n - 1, [k]))
    euler = MultiPoly.zero(n)
    for j in range(n):
        euler = euler + MultiPoly.variable(n, j) * p.partial_derivative(j)
    return Fraction(1, 2) * dunkl_laplacian_direct(ctx, p) - k * euler


# ---------------------------------------------------------------------------
# frozen spin chain


def _popcount_states(n: int) -> list[np.ndarray]:
    """For p = 0..n, the basis states with p up spins in ascending b."""
    b = np.arange(1 << n)
    pop = ((b[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return [np.flatnonzero(pop == p) for p in range(n + 1)]


@dataclass(frozen=True)
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
