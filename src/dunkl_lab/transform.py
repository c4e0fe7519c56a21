"""Diffusion scaling between the heat-type picture and the trapped picture.

The forward generator of the reflection-symmetric diffusion-with-jumps,

    L f = 1/2 Delta f - sum_{R+} k (alpha . grad f)/(alpha . x)
        + sum_{R+} (k |alpha|^2 / 2) [f(x) + f(sigma_alpha x)] / (alpha . x)^2,

maps, under the change of variables

    tau = log(t) / (2 omega),    zeta = x / sqrt(2 omega t),

and the gauge factor exp(-W) with

    W(tau, zeta) = omega |zeta|^2 / 2
                 - sum_{R+} k(alpha) log|alpha . zeta| + omega N tau,

onto minus the trapped Hamiltonian shifted by its ground energy.  Writing
u(tau, zeta) = exp(-W) U(tau, zeta), the pointwise identity checked here is

    e^W { [L u + omega zeta . grad u] - du/dtau }
        = -[ dU/dtau + (H - E0) U ].

Both sides are assembled from U and its derivatives; the common exp(-W)
factor is cancelled analytically, so the check stays well conditioned for
any multiplicity.  The gauge derivative formulas themselves are validated
independently against complex-step differentiation of the literal
exponential in ``similarity_identities_check``.

The type-A specialization at omega = k (``corollary1_sides``) is written
as a separate code path in particle coordinates, with all root sums
reorganized into pair sums, so agreement with the general machinery is a
real cross-check rather than a tautology.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .cm import CMParams, SideBySide, cm_apply, ground_energy
from .dunkl import PointFunction, PolyFunction
from .errors import DimensionError, HyperplaneError
from .polyx import MultiPoly
from .rootsys import RootSystem, Scalar, dot, reflect

EPS = sys.float_info.epsilon
CS_STEP = 1e-60
CS_STEP2 = EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class TransformParams:
    """Root system plus trap frequency omega > 0."""

    system: RootSystem
    omega: float = 1.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")


def substitute(omega: float, t: float, x: Sequence[float]):
    """(t, x) -> (tau, zeta) for the scaling attached to omega."""
    if t <= 0:
        raise ValueError("t must be positive")
    tau = math.log(t) / (2 * omega)
    s = math.sqrt(2 * omega * t)
    return tau, tuple(xi / s for xi in x)


def inverse_substitute(omega: float, tau: float, zeta: Sequence[float]):
    """(tau, zeta) -> (t, x); exact inverse of ``substitute``."""
    t = math.exp(2 * omega * tau)
    s = math.sqrt(2 * omega * t)
    return t, tuple(zi * s for zi in zeta)


@dataclass(frozen=True)
class TestFunction:
    """Separable test function U(tau, zeta) = exp(lam * tau) * p(zeta)."""

    __test__ = False  # not a pytest class despite the name

    lam: float
    poly: MultiPoly

    @cached_property
    def spatial(self) -> PolyFunction:
        """p(zeta) as a PointFunction; its gradient and Laplacian are derived once."""
        return PolyFunction(self.poly)

    def value(self, tau, zeta):
        e = cmath.exp(self.lam * tau) if isinstance(tau, complex) else math.exp(self.lam * tau)
        return e * self.poly.eval(zeta)

    def tau_derivative(self, tau, zeta):
        return self.lam * self.value(tau, zeta)

    def gradient(self, tau, zeta):
        e = cmath.exp(self.lam * tau) if isinstance(tau, complex) else math.exp(self.lam * tau)
        return [e * g for g in self.spatial.gradient(zeta)]

    def laplacian(self, tau, zeta):
        e = cmath.exp(self.lam * tau) if isinstance(tau, complex) else math.exp(self.lam * tau)
        return e * self.spatial.laplacian(zeta)


def _log_signed(s):
    # holomorphic continuation of log|s| off the real axis; valid while the
    # real part keeps the sign of the underlying real point
    if isinstance(s, complex):
        return cmath.log(s) if s.real > 0 else cmath.log(-s)
    if s == 0:
        raise HyperplaneError("log|alpha . zeta| undefined on a hyperplane")
    return math.log(abs(s))


def w_value(params: TransformParams, tau, zeta):
    """W(tau, zeta); accepts complex tau or zeta entries (analytic branch)."""
    system = params.system
    omega = params.omega
    acc = omega * sum(z * z for z in zeta) / 2 + omega * system.dimension * tau
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        acc = acc - k * _log_signed(dot(r.vector, zeta))
    return acc


def w_gradient(params: TransformParams, zeta):
    """grad_zeta W = omega zeta - sum_{R+} k alpha / (alpha . zeta)."""
    system = params.system
    n = system.dimension
    g = [params.omega * z for z in zeta]
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = r.dot(zeta)
        for i in range(n):
            g[i] = g[i] - k * r.fvector[i] / d
    return g


def w_laplacian(params: TransformParams, zeta):
    """Delta_zeta W = omega N + sum_{R+} k |alpha|^2 / (alpha . zeta)^2."""
    system = params.system
    acc = params.omega * system.dimension
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = r.dot(zeta)
        acc = acc + k * r.fsq_norm / (d * d)
    return acc


def w_tau(params: TransformParams) -> float:
    """dW/dtau = omega N, independent of the point."""
    return params.omega * params.system.dimension


def w_quadratic_form(params: TransformParams, zeta):
    """|grad W|^2 - Delta W via full expansion of the square.

    The cross terms between the trap part and the singular part collapse to
    -2 omega gamma; the singular square is kept as a literal double sum over
    pairs of positive roots.  This is an alternative route to the same
    quantity as ``w_gradient``/``w_laplacian`` and is used to cross-check
    them.
    """
    system = params.system
    omega = params.omega
    n = system.dimension
    gamma = float(system.gamma)
    acc = omega * omega * sum(z * z for z in zeta) - (2 * gamma + n) * omega
    live = system.live_positive
    inv = [dot(r.vector, zeta) for r in live]
    for a, ra in enumerate(live):
        ka = float(ra.multiplicity)
        for b, rb in enumerate(live):
            kb = float(rb.multiplicity)
            acc = acc + ka * kb * float(dot(ra.vector, rb.vector)) / (inv[a] * inv[b])
        acc = acc - ka * float(ra.sq_norm) / (inv[a] * inv[a])
    return acc


# ---------------------------------------------------------------------------
# summation identities behind the gauge algebra


def lemma2_check(system: RootSystem, x: Sequence[Scalar]):
    """Both sides of the double-sum collapse, in the arithmetic of ``x``.

    sum_{a, b in R+} k(a) k(b) (a . b) / ((a . x)(b . x))
        = sum_{a in R+} k(a)^2 |a|^2 / (a . x)^2.

    With Fraction inputs on an exact system both sides are exact rationals.
    The numerators do not depend on x and come from the system's cache.
    """
    live = system.live_positive
    inv = [r.dot(x) for r in live]
    if any(d == 0 for d in inv):
        raise HyperplaneError("point lies on a reflecting hyperplane")
    if all(type(c) is float for c in x):
        pairs, diag = system.float_pair_products
    else:
        pairs, diag = system.pair_products
    lhs = 0
    rhs = 0
    for a, row in enumerate(pairs):
        for b, num in enumerate(row):
            if num:
                lhs = lhs + num / (inv[a] * inv[b])
        rhs = rhs + diag[a] / (inv[a] * inv[a])
    return SideBySide(lhs=lhs, rhs=rhs)


def triple_sum_check_a(x: Sequence[Scalar]):
    """Exact total of 1/((x_i - x_j)(x_i - x_l)) over pairwise-distinct
    ordered triples; vanishes identically.
    """
    n = len(x)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if len({i, j, l}) < 3:
                    continue
                total += Fraction(1, 1) / ((x[i] - x[j]) * (x[i] - x[l]))
    return total


# ---------------------------------------------------------------------------
# complex-step validation of the gauge derivative formulas


def _cs_gradient_entry(w_at, u_at, base_w, point, i, tau):
    # d/dzeta_i of exp(-(W - W0)) U at the real point, one pure imaginary step
    z = list(point)
    z[i] = z[i] + 1j * CS_STEP
    val = cmath.exp(-(w_at(tau, z) - base_w)) * u_at(tau, z)
    return val.imag / CS_STEP


def _cs_second_entry(w_at, u_at, base_w, point, i, tau):
    # second derivative in zeta_i: mixed complex/real step,
    # Im[phi(x + ih + h2) - phi(x + ih - h2)] / (2 h h2)
    h2 = CS_STEP2 * max(1.0, abs(point[i]))
    zp = list(point)
    zm = list(point)
    zp[i] = zp[i] + 1j * CS_STEP + h2
    zm[i] = zm[i] + 1j * CS_STEP - h2
    vp = cmath.exp(-(w_at(tau, zp) - base_w)) * u_at(tau, zp)
    vm = cmath.exp(-(w_at(tau, zm) - base_w)) * u_at(tau, zm)
    return (vp - vm).imag / (2 * CS_STEP * h2)


def similarity_identities_check(
    params: TransformParams, fn: TestFunction, tau: float, zeta: Sequence[float]
) -> dict:
    """Gauge conjugation formulas versus complex-step derivatives.

    Checks, at one point, the three operator identities

        e^W d/dtau  e^{-W} = d/dtau - omega N,
        e^W d/di    e^{-W} = d/di - (grad W)_i,
        e^W Delta   e^{-W} = Delta - 2 grad W . grad + (|grad W|^2 - Delta W),

    where every left side differentiates the literal exponential
    exp(-(W - W(point))) * U numerically and every right side uses the
    closed forms (the Laplacian one through the expanded double sum).
    Returns a dict of SideBySide keyed by identity name.
    """
    zs = [float(z) for z in zeta]
    n = len(zs)
    base_w = w_value(params, tau, zs)
    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    g = w_gradient(params, zs)

    # time identity
    phi_tau = cmath.exp(
        -(w_value(params, tau + 1j * CS_STEP, zs) - base_w)
    ) * fn.value(tau + 1j * CS_STEP, zs)
    lhs_tau = phi_tau.imag / CS_STEP
    rhs_tau = fn.tau_derivative(tau, zs) - w_tau(params) * u0

    # gradient identity, worst coordinate
    lhs_grad = [
        _cs_gradient_entry(lambda tt, z: w_value(params, tt, z), fn.value, base_w, zs, i, tau)
        for i in range(n)
    ]
    rhs_grad = [grad_u[i] - g[i] * u0 for i in range(n)]
    worst = max(range(n), key=lambda i: abs(lhs_grad[i] - rhs_grad[i]))

    # Laplacian identity
    lhs_lap = sum(
        _cs_second_entry(lambda tt, z: w_value(params, tt, z), fn.value, base_w, zs, i, tau)
        for i in range(n)
    )
    rhs_lap = lap_u - 2 * sum(gi * du for gi, du in zip(g, grad_u)) + w_quadratic_form(params, zs) * u0

    return {
        "time": SideBySide(lhs=lhs_tau, rhs=rhs_tau),
        "gradient": SideBySide(lhs=lhs_grad[worst], rhs=rhs_grad[worst]),
        "laplacian": SideBySide(lhs=lhs_lap, rhs=rhs_lap),
    }


# ---------------------------------------------------------------------------
# the main pointwise identity


def _gauged_generator(system: RootSystem, x, jet, gauge, value_at):
    """e^W L (e^{-W} u) at x, and the gauged gradient grad u - u grad W.

    ``jet`` is (u, grad u, Laplacian u) at x and ``gauge`` is
    (grad W, Laplacian W); W must be reflection invariant, so the jump term
    needs only ``value_at``, u at the reflected points.  The trap and time
    terms are left to the caller.
    """
    u0, grad_u, lap_u = jet
    g, dw = gauge
    sq_g = sum(gi * gi for gi in g)
    hat_grad = [du - u0 * gi for du, gi in zip(grad_u, g)]
    hat_lap = lap_u - 2 * sum(gi * du for gi, du in zip(g, grad_u)) + (sq_g - dw) * u0
    lhs = 0.5 * hat_lap
    for r in system.live_positive:
        k = float(r.multiplicity)
        d = r.dot(x)
        if d == 0:
            raise HyperplaneError("point lies on a reflecting hyperplane")
        lhs = lhs - k * r.dot(hat_grad) / d
        lhs = lhs + (k * r.fsq_norm / 2) * (u0 + value_at(reflect(r, x))) / (d * d)
    return lhs, hat_grad


def theorem1_sides(
    params: TransformParams, fn: TestFunction, tau: float, zeta: Sequence[float]
) -> SideBySide:
    """Both sides of the scaling identity at one point, gauge factored out.

    With u = exp(-W) U, the derivatives of u are expanded through the gauge
    formulas and the shared exp(-W) is dropped from both sides:

        lhs = [L u + omega zeta . grad u] - du/dtau      (times e^W)
        rhs = -[ dU/dtau + (H - E0) U ].
    """
    system = params.system
    omega = params.omega
    zs = [float(z) for z in zeta]
    n = system.dimension
    if len(zs) != n:
        raise DimensionError("point dimension mismatch")

    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    du_tau = fn.tau_derivative(tau, zs)

    hat_tau = du_tau - w_tau(params) * u0
    lhs, hat_grad = _gauged_generator(
        system,
        zs,
        (u0, grad_u, lap_u),
        (w_gradient(params, zs), w_laplacian(params, zs)),
        lambda z: fn.value(tau, z),
    )
    lhs = lhs + omega * sum(z * hg for z, hg in zip(zs, hat_grad))
    lhs = lhs - hat_tau

    cm = CMParams(system=system, omega=omega)
    h_u = float(cm_apply(cm, fn.spatial, zs)) * math.exp(fn.lam * tau)
    e0 = float(ground_energy(cm))
    rhs = -(du_tau + h_u - e0 * u0)
    return SideBySide(lhs=lhs, rhs=rhs)


def theorem1_residual(params, fn, tau, zeta) -> float:
    s = theorem1_sides(params, fn, tau, zeta)
    return abs(s.residual) / s.scale


def corollary1_sides(
    n_particles: int, k: float, fn: TestFunction, tau: float, zeta: Sequence[float]
) -> SideBySide:
    """Type-A specialization at omega = k, written purely in pair sums.

    Independent of the root-system machinery: gauge gradient, Laplacian,
    generator and Hamiltonian are all spelled out over particle pairs, and
    reflections are coordinate swaps.  E0 = k N / 2 + k^2 N (N - 1) / 2.
    """
    n = n_particles
    kf = float(k)
    zs = [float(z) for z in zeta]
    if len(zs) != n or fn.poly.nvars != n:
        raise DimensionError("particle count mismatch")

    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    du_tau = fn.tau_derivative(tau, zs)

    g = []
    for i in range(n):
        gi = zs[i]
        for j in range(n):
            if j != i:
                gi -= 1.0 / (zs[i] - zs[j])
        g.append(kf * gi)
    dw = kf * n
    for i in range(n):
        for j in range(n):
            if j != i:
                dw += kf / (zs[i] - zs[j]) ** 2
    sq_g = sum(gi * gi for gi in g)

    hat_grad = [grad_u[i] - u0 * g[i] for i in range(n)]
    hat_lap = lap_u - 2 * sum(gi * du for gi, du in zip(g, grad_u)) + (sq_g - dw) * u0
    hat_tau = du_tau - kf * n * u0

    swapped = {}
    for i in range(n):
        for j in range(i + 1, n):
            sz = list(zs)
            sz[i], sz[j] = sz[j], sz[i]
            swapped[i, j] = fn.value(tau, sz)

    lhs = 0.5 * hat_lap
    for i in range(n):
        for j in range(n):
            if j != i:
                lhs -= kf * hat_grad[i] / (zs[i] - zs[j])
    for i in range(n):
        for j in range(i + 1, n):
            lhs += kf * (u0 + swapped[i, j]) / (zs[i] - zs[j]) ** 2
    lhs += kf * sum(z * hg for z, hg in zip(zs, hat_grad))
    lhs -= hat_tau

    h_u = -0.5 * lap_u + (kf * kf / 2) * sum(z * z for z in zs) * u0
    for i in range(n):
        for j in range(i + 1, n):
            h_u += kf * (kf * u0 - swapped[i, j]) / (zs[i] - zs[j]) ** 2
    e0 = kf * n / 2 + kf * kf * n * (n - 1) / 2
    rhs = -(du_tau + h_u - e0 * u0)
    return SideBySide(lhs=lhs, rhs=rhs)


def corollary1_residual(n_particles, k, fn, tau, zeta) -> float:
    s = corollary1_sides(n_particles, k, fn, tau, zeta)
    return abs(s.residual) / s.scale


def unconfined_map_check(
    system: RootSystem, f: PointFunction, x: Sequence[float]
) -> SideBySide:
    """Gauge map between the forward generator and the trap-free Hamiltonian.

    With W0 = -sum_{R+} k log|alpha . x| (so exp(-W0) = sqrt of the
    reflection weight),

        e^{W0} L (e^{-W0} f) = -H^{omega=0} f

    pointwise off the hyperplanes; no additive constant appears.  Left side
    factored like the scaling identity, right side through ``cm_apply``.
    """
    xs = [float(c) for c in x]
    n = system.dimension
    f0 = f.value(xs)
    grad_f = f.gradient(xs)
    lap_f = f.laplacian(xs)

    g = [0.0] * n
    dw = 0.0
    for idx in system.positive:
        r = system.roots[idx]
        k = float(r.multiplicity)
        if not k:
            continue
        d = r.dot(xs)
        if d == 0:
            raise HyperplaneError("point lies on a reflecting hyperplane")
        for i in range(n):
            g[i] -= k * r.fvector[i] / d
        dw += k * r.fsq_norm / (d * d)

    lhs, _ = _gauged_generator(system, xs, (f0, grad_f, lap_f), (g, dw), f.value)
    rhs = -float(cm_apply(CMParams(system=system, omega=0), f, xs))
    return SideBySide(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class IdentityReport:
    """Aggregated residuals of one identity over a batch of sample points."""

    identity: str
    family: str
    params: dict
    points: int
    max_abs_residual: float
    max_rel_residual: float
    worst_point: tuple | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload = {
            "identity": self.identity,
            "family": self.family,
            "params": self.params,
            "points": self.points,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True)


def report_from_samples(identity, family, params, samples, notes=()) -> IdentityReport:
    """Fold (point, SideBySide) pairs into an IdentityReport."""
    max_abs = 0.0
    max_rel = 0.0
    worst = None
    count = 0
    for point, side in samples:
        count += 1
        a = abs(side.residual)
        r = a / side.scale
        if a > max_abs:
            max_abs = a
        if r >= max_rel:
            max_rel = r
            worst = tuple(float(c) for c in point)
    return IdentityReport(
        identity=identity,
        family=family,
        params=dict(params),
        points=count,
        max_abs_residual=max_abs,
        max_rel_residual=max_rel,
        worst_point=worst,
        notes=tuple(notes),
    )
