"""Calogero-Moser Hamiltonians with exchange terms, and the frozen spin chain.

The Hamiltonian attached to a root system R with multiplicity k and trap
frequency omega acts on a function f as

    H f(x) = -1/2 Delta f(x)
           + sum_{alpha in R+} |alpha|^2/2 * k(alpha)
               [k(alpha) f(x) - f(sigma_alpha x)] / (alpha . x)^2
           + omega^2/2 |x|^2 f(x),

i.e. the exchange operator in the potential is realized by reflecting the
argument of f.  Its ground energy is E0 = omega (gamma + N/2), with ground
state proportional to exp(-omega |x|^2 / 2) * sqrt(w_k).

For type A the operator is conjugate to the Dunkl heat-type operator: with
W(x) = |x|^2/2 - sum_{i<j} log|x_i - x_j| and E = (k N + k^2 N(N-1))/2,

    -e^{kW} (H - E) e^{-kW} p = [ 1/2 sum_i T_i^2 - k sum_j x_j d_j ] p.

``transformed_hamiltonian_check`` evaluates both sides of that identity on
an exact polynomial: the left via closed-form product-rule expansion, the
right via the exact Dunkl operators.

The frozen (k -> infinity) limit of the spin Calogero model on Hermite
roots z_1..z_N is the inverse-square exchange spin chain

    H = sum_{i<j} P_ij / (z_i - z_j)^2

on (C^2)^{tensor N}, with P_ij the transposition of spin sites i and j;
``pf_matrix`` builds it densely (N <= 12) for spectra and trace checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dunkl import DunklContext, PointFunction, dunkl_apply, dunkl_direction
from .errors import DimensionError, ExactModeError
from .polyx import MultiPoly
from .rootsys import RootSystem, Scalar, build_root_system, reflect

SPIN_SITE_CAP = 12


@dataclass(frozen=True)
class CMParams:
    """Root system, multiplicities (carried by the system) and omega >= 0."""

    system: RootSystem
    omega: Scalar = 0

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")


def cm_apply(params: CMParams, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """(H f)(x) with the exchange term acting by argument reflection."""
    system = params.system
    if len(x) != system.dimension:
        raise DimensionError("point dimension mismatch")
    fx = f.value(x)
    acc = -f.laplacian(x) / 2
    for idx in system.positive:
        r = system.roots[idx]
        k = r.multiplicity
        if not k:
            continue
        d = r.dot(x)
        if d == 0:
            raise ZeroDivisionError("point on a reflecting hyperplane")
        acc = acc + (r.sq_norm * k) * (k * fx - f.value(reflect(r, x))) / (2 * d * d)
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


def _log_weight_half_gradient(system: RootSystem, x):
    """grad of (1/2) log w_k at x, i.e. sum over R+ of k alpha / (alpha . x)."""
    n = system.dimension
    g = [0.0] * n
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = float(r.dot(x))
        for i in range(n):
            g[i] += k * r.fvector[i] / d
    return g


def groundstate_value(params: CMParams, x: Sequence[Scalar]) -> float:
    """Phi0(x) = exp(-omega |x|^2 / 2) * prod_{R+} |alpha . x|^k, unnormalized."""
    system = params.system
    xs = [float(c) for c in x]
    log_phi = -float(params.omega) * sum(c * c for c in xs) / 2
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = float(r.dot(xs))
        log_phi += k * math.log(abs(d))
    return math.exp(log_phi)


def groundstate_residual(params: CMParams, x: Sequence[Scalar]) -> float:
    """(H - E0) Phi0 evaluated at x, with Phi0's derivatives in closed form.

    Phi0(x) = exp(-W0) with W0 = omega |x|^2/2 - (1/2) log w_k.  The
    conjugated value (H Phi0)/Phi0 is assembled from grad W0 and
    Delta W0 without invoking any summation identity, then scaled by Phi0.
    """
    system = params.system
    omega = float(params.omega)
    xs = [float(c) for c in x]
    n = system.dimension
    s = _log_weight_half_gradient(system, xs)
    grad_w0 = [omega * xi - si for xi, si in zip(xs, s)]
    lap_w0 = omega * n
    exchange = 0.0
    log_phi = -omega * sum(c * c for c in xs) / 2
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = float(r.dot(xs))
        a2 = r.fsq_norm
        lap_w0 += k * a2 / (d * d)
        # Phi0 is reflection invariant, so the exchange term contributes
        # k(k-1) per root.
        exchange += (a2 / 2) * k * (k - 1) / (d * d)
        log_phi += k * math.log(abs(d))
    sq_grad = sum(g * g for g in grad_w0)
    ratio = -0.5 * (sq_grad - lap_w0) + exchange + omega * omega * sum(c * c for c in xs) / 2
    e0 = float(ground_energy(params))
    return (ratio - e0) * math.exp(log_phi)


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
    gw = []
    for i in range(n):
        gi = xs[i]
        for j in range(n):
            if j != i:
                gi -= 1.0 / (xs[i] - xs[j])
        gw.append(gi)
    lap_w = float(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                lap_w += 1.0 / (xs[i] - xs[j]) ** 2
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
    half_lap = MultiPoly.zero(n)
    for i in range(n):
        e = dunkl_direction(ctx, i)
        half_lap = half_lap + dunkl_apply(ctx, e, dunkl_apply(ctx, e, p))
    euler = MultiPoly.zero(n)
    for j in range(n):
        euler = euler + MultiPoly.variable(n, j) * p.partial_derivative(j)
    return Fraction(1, 2) * half_lap - k * euler


# ---------------------------------------------------------------------------
# frozen spin chain


@dataclass(frozen=True)
class SpinChainMatrix:
    """Dense inverse-square exchange spin chain on N spin-1/2 sites.

    Basis index b encodes the spin configuration bitwise: bit i of b is the
    spin at site i.  The matrix is exactly symmetric by construction.
    """

    positions: tuple[float, ...]
    matrix: np.ndarray

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def pf_matrix(z: Sequence[float]) -> SpinChainMatrix:
    """H = sum_{i<j} P_ij / (z_i - z_j)^2 on the 2^N spin basis."""
    n = len(z)
    if n < 2:
        raise DimensionError("need at least two sites")
    if n > SPIN_SITE_CAP:
        raise DimensionError(f"dense spin chain capped at {SPIN_SITE_CAP} sites")
    zs = [float(v) for v in z]
    if len(set(zs)) != n:
        raise ValueError("site positions must be distinct")
    dim = 1 << n
    h = np.zeros((dim, dim))
    for i in range(n):
        for j in range(i + 1, n):
            w = 1.0 / (zs[i] - zs[j]) ** 2
            for b in range(dim):
                bi = (b >> i) & 1
                bj = (b >> j) & 1
                if bi == bj:
                    h[b, b] += w
                else:
                    b2 = b ^ ((1 << i) | (1 << j))
                    h[b2, b] += w
    return SpinChainMatrix(positions=tuple(zs), matrix=h)
