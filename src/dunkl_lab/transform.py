"""Diffusion scaling between the heat-type picture and the trapped picture.

The forward generator of the reflection-symmetric diffusion-with-jumps,

    L f = 1/2 Delta f - sum_{R+} k (alpha . grad f)/(alpha . x)
        + sum_{R+} (k |alpha|^2 / 2) [f(x) + f(sigma_alpha x)] / (alpha . x)^2,

maps, under the change of variables

    tau = log(t) / (2 omega),    zeta = x / sqrt(2 omega t),

and the gauge factor exp(-W) with

    W(tau, zeta) = omega |zeta|^2 / 2
                 - sum_{R+} k(alpha) log|alpha . zeta| + omega N tau,

onto minus the trapped Hamiltonian shifted by its ground energy.  W, its
gradient and its Laplacian are defined once, in ``cm`` (``w_value``,
``w_gradient``, ``w_laplacian``), and shared with the ground state there;
every check here takes ``cm.CMParams``, the one (system, omega) type.
Writing u(tau, zeta) = exp(-W) U(tau, zeta), the pointwise identity checked
here is

    e^W { [L u + omega zeta . grad u] - du/dtau }
        = -[ dU/dtau + (H - E0) U ].

Both sides are assembled from U and its derivatives; the common exp(-W)
factor is cancelled analytically, so the check stays well conditioned for
any multiplicity: L is ``dunkl.kfe_generator``, and e^W L u at a point is
L applied to e^{W(point)} u, whose jet there comes from those of U and W
(``cm._GaugedJet``, the jet with which ``cm`` conjugates H too).
``theorem1_sides`` is the one assembler of the identity.  At omega = 0 the
trap term drops out and it is the trap-free gauge map
e^{W0} L (e^{-W0} f) = -H^{omega=0} f; ``unconfined_map_check`` is that
call.  The closed forms ``w_gradient`` and ``w_laplacian`` are validated
independently in ``similarity_identities_check``, against complex-step
differentiation of the literal exponential of ``w_value``.

The type-A specialization at omega = k (``corollary1_sides``) is written
as a separate code path in particle coordinates, with all root sums
reorganized into pair sums (its gauge is ``cm.pair_gauge``, which uses no
root machinery), so agreement with the general machinery is a real
cross-check rather than a tautology.
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

from .cm import (
    CMParams, SideBySide, _GaugedJet, cm_apply, ground_energy, ground_energy_a_type,
    pair_gauge, w_gradient, w_value,
)
from .dunkl import DunklContext, PolyFunction, kfe_generator, live_dots
from .errors import DimensionError
from .polyx import MultiPoly
from .rootsys import RootSystem, Scalar, dot

EPS = sys.float_info.epsilon
CS_STEP = 1e-60
CS_STEP2 = EPS ** (1.0 / 3.0)


def _refuse(name: str, value: float, positive: bool = True):
    """ValueError naming ``value`` unless it is finite and, if ``positive``, above 0."""
    if not math.isfinite(value) or (positive and not value > 0):
        rule = "finite and positive" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def substitute(omega: float, t: float, x: Sequence[float]):
    """(t, x) -> (tau, zeta) for the scaling attached to omega; omega and t
    must be finite and positive."""
    _refuse("omega", omega)
    _refuse("t", t)
    tau = math.log(t) / (2 * omega)
    s = math.sqrt(2 * omega * t)
    return tau, tuple(xi / s for xi in x)


def inverse_substitute(omega: float, tau: float, zeta: Sequence[float]):
    """(tau, zeta) -> (t, x); exact inverse of ``substitute``.  omega must be
    finite and positive, tau finite, t = e^{2 omega tau} a positive finite
    float and sqrt(2 omega t) finite."""
    _refuse("omega", omega)
    _refuse("tau", tau, positive=False)
    try:
        t = math.exp(2 * omega * tau)
    except OverflowError:
        t = math.inf
    s = math.sqrt(2 * omega * t)
    if not 0 < t < math.inf or s == math.inf:
        raise ValueError(
            f"tau {tau!r} at omega {omega!r} gives t = e^(2 omega tau) = {t!r} and "
            f"sqrt(2 omega t) = {s!r}; t must be positive and both finite"
        )
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

    def time_factor(self, tau):
        """exp(lam * tau); complex tau takes the analytic branch."""
        return cmath.exp(self.lam * tau) if isinstance(tau, complex) else math.exp(self.lam * tau)

    def value(self, tau, zeta):
        return self.time_factor(tau) * self.poly.eval(zeta)

    def gradient(self, tau, zeta):
        e = self.time_factor(tau)
        return [e * g for g in self.spatial.gradient(zeta)]

    def laplacian(self, tau, zeta):
        return self.time_factor(tau) * self.spatial.laplacian(zeta)


def w_tau(params: CMParams) -> float:
    """dW/dtau = omega N, independent of the point."""
    return params.omega * params.system.dimension


def w_quadratic_form(params: CMParams, zeta):
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
    inv = live_dots(system, x)
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


def similarity_identities_check(
    params: CMParams, fn: TestFunction, tau: float, zeta: Sequence[float]
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

    def phi(t, i=None, shift=0.0):
        # exp(-(W - W0)) U at time t, with zeta_i moved to (zeta_i + ih) + shift
        z = list(zs)
        if i is not None:
            z[i] = z[i] + 1j * CS_STEP + shift
        return cmath.exp(-(w_value(params, t, z) - base_w)) * fn.value(t, z)

    lhs_tau = phi(tau + 1j * CS_STEP).imag / CS_STEP
    rhs_tau = fn.lam * u0 - w_tau(params) * u0

    # gradient identity, worst coordinate
    lhs_grad = [phi(tau, i).imag / CS_STEP for i in range(n)]
    rhs_grad = [grad_u[i] - g[i] * u0 for i in range(n)]
    worst = max(range(n), key=lambda i: abs(lhs_grad[i] - rhs_grad[i]))

    # Laplacian identity: mixed complex/real step per coordinate,
    # Im[phi(x + ih + h2) - phi(x + ih - h2)] / (2 h h2)
    steps = [CS_STEP2 * max(1.0, abs(z)) for z in zs]
    lhs_lap = sum(
        (phi(tau, i, h2) - phi(tau, i, -h2)).imag / (2 * CS_STEP * h2) for i, h2 in enumerate(steps)
    )
    rhs_lap = lap_u - 2 * sum(gi * du for gi, du in zip(g, grad_u)) + w_quadratic_form(params, zs) * u0

    return {
        "time": SideBySide(lhs=lhs_tau, rhs=rhs_tau),
        "gradient": SideBySide(lhs=lhs_grad[worst], rhs=rhs_grad[worst]),
        "laplacian": SideBySide(lhs=lhs_lap, rhs=rhs_lap),
    }


# ---------------------------------------------------------------------------
# the main pointwise identity


def theorem1_sides(
    params: CMParams, fn: TestFunction, tau: float, zeta: Sequence[float]
) -> SideBySide:
    """Both sides of the scaling identity at one point, gauge factored out.

    With u = exp(-W) U, the derivatives of u are expanded through the gauge
    formulas and the shared exp(-W) is dropped from both sides:

        lhs = [L u + omega zeta . grad u] - du/dtau      (times e^W)
        rhs = -[ dU/dtau + (H - E0) U ].

    At omega = 0 the trap term is skipped, and the identity is the trap-free
    map of ``unconfined_map_check``.  A point of the wrong length raises
    DimensionError from the polynomial or the wall guard.
    """
    zs = [float(z) for z in zeta]
    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    du_tau = fn.lam * u0

    hat_tau = du_tau - w_tau(params) * u0
    jet = _GaugedJet(params, zs, lambda z: fn.value(tau, z), u0, grad_u, lap_u)
    lhs = kfe_generator(DunklContext(params.system), jet, zs)
    if params.omega:
        lhs = lhs + params.omega * sum(z * hg for z, hg in zip(zs, jet.grad))
    lhs = lhs - hat_tau

    h_u = float(cm_apply(params, fn.spatial, zs)) * fn.time_factor(tau)
    e0 = float(ground_energy(params))
    rhs = -(du_tau + h_u - e0 * u0)
    return SideBySide(lhs=lhs, rhs=rhs)


def theorem1_residual(params, fn, tau, zeta) -> float:
    s = theorem1_sides(params, fn, tau, zeta)
    return abs(s.residual) / s.scale


def corollary1_sides(
    n_particles: int, k: float, fn: TestFunction, tau: float, zeta: Sequence[float]
) -> SideBySide:
    """Type-A specialization at omega = k, written purely in pair sums.

    Independent of the root-system machinery: the gauge is k times
    ``pair_gauge``, generator and Hamiltonian are spelled out over particle
    pairs, and reflections are coordinate swaps.  E0 = k N / 2 + k^2 N (N - 1) / 2.
    """
    n = n_particles
    kf = float(k)
    zs = [float(z) for z in zeta]
    if len(zs) != n or fn.poly.nvars != n:
        raise DimensionError("particle count mismatch")

    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    du_tau = fn.lam * u0

    grad_w, lap_w = pair_gauge(zs)
    g = [kf * gi for gi in grad_w]
    dw = kf * lap_w
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
    e0 = ground_energy_a_type(n, kf)
    rhs = -(du_tau + h_u - e0 * u0)
    return SideBySide(lhs=lhs, rhs=rhs)


def corollary1_residual(n_particles, k, fn, tau, zeta) -> float:
    s = corollary1_sides(n_particles, k, fn, tau, zeta)
    return abs(s.residual) / s.scale


def unconfined_map_check(system: RootSystem, f: PolyFunction, x: Sequence[float]) -> SideBySide:
    """Gauge map between the forward generator and the trap-free Hamiltonian.

    With W0 = -sum_{R+} k log|alpha . x| (so exp(-W0) = sqrt of the
    reflection weight),

        e^{W0} L (e^{-W0} f) = -H^{omega=0} f

    pointwise off the hyperplanes; no additive constant appears.  It is the
    scaling identity at omega = 0 for the time-independent U = f.
    """
    return theorem1_sides(CMParams(system=system, omega=0), TestFunction(0.0, f.poly), 0.0, x)


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


def report_from_samples(identity, family, params, samples) -> IdentityReport:
    """Fold (point, SideBySide) pairs into an IdentityReport.

    A NaN residual is kept (every comparison with NaN is false, so the
    plain folds would skip it), and the last NaN sample's point is the
    worst point.
    """
    max_abs = 0.0
    max_rel = 0.0
    worst = None
    count = 0
    for point, side in samples:
        count += 1
        a = abs(side.residual)
        r = a / side.scale
        if a > max_abs or math.isnan(a):
            max_abs = a
        if r >= max_rel or math.isnan(r):
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
    )
