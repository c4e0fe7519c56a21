"""Dunkl operators and the generators of the associated Markov processes.

For a root system R with multiplicity k and a direction xi, the Dunkl
operator acts on a polynomial p as

    T_xi p(x) = xi . grad p(x)
              + sum_{alpha in R+} k(alpha) (alpha . xi)
                  [p(x) - p(sigma_alpha x)] / (alpha . x),

where the difference quotient is the exact alternating quotient (polyx).
The operators for different directions commute; summing T_i^2 over an
orthonormal basis gives the Dunkl Laplacian, which expands to

    Delta f + 2 sum k (alpha . grad f)/(alpha . x)
            - sum k |alpha|^2 [f(x) - f(sigma x)] / (alpha . x)^2.

Half of this is the generator of the Dunkl process (backward equation);
the forward (adjoint) generator flips the drift sign and the sign inside
the jump numerator:

    KFE f = 1/2 Delta f - sum k (alpha . grad f)/(alpha . x)
          + sum k |alpha|^2/2 [f(x) + f(sigma x)] / (alpha . x)^2.

One ``DunklContext`` serves both kinds of arithmetic; exactness is read
from the system, not chosen.  ``dunkl_apply`` works on MultiPoly inputs and
refuses a system with irrational root coordinates or float multiplicities;
the pointwise generators evaluate the expanded formulas on PointFunction
oracles at a Fraction or float point, through one loop.  At an all-float
point it reads each root's cached float constants (``Root.fmultiplicity``
and ``Root.fweight``, k |alpha|^2 rounded once), which give the bits that
the Fraction-times-float mix gives, without its dispatch.  ``live_dots`` is
the one wall guard, shared with the closed forms of ``cm`` and
``transform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, Sequence

from .errors import DimensionError, ExactModeError, HyperplaneError
from .polyx import MultiPoly, alternating_quotient
from .rootsys import RootSystem, Scalar, Vector, _reflect

HYPERPLANE_FLOOR = 1e-8


class PointFunction(Protocol):
    """Value/gradient/Laplacian oracles for a scalar function on R^N."""

    def value(self, x: Sequence[Scalar]) -> Scalar: ...

    def gradient(self, x: Sequence[Scalar]) -> Vector: ...

    def laplacian(self, x: Sequence[Scalar]) -> Scalar: ...


class PolyFunction:
    """PointFunction backed by a MultiPoly; all oracles are exact."""

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self._grad = poly.gradient()
        self._lap = poly.laplacian()

    def value(self, x):
        return self.poly.eval(x)

    def gradient(self, x):
        return tuple(g.eval(x) for g in self._grad)

    def laplacian(self, x):
        return self._lap.eval(x)


def refuse_non_finite(x: Sequence[Scalar]) -> None:
    """ValueError naming the first float coordinate of x that is not finite."""
    for i, c in enumerate(x):
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"coordinate {i} value {c!r} is not finite")


def live_dots(system: RootSystem, x: Sequence[Scalar]) -> list:
    """alpha . x for each root of ``system.live_positive``, in order, refusing
    a point where the closed forms would divide by zero or read NaN:
    DimensionError for a wrong length, ValueError for a coordinate that is
    not finite, and HyperplaneError naming a root whose (alpha . x)^2 is 0."""
    if len(x) != system.dimension:
        raise DimensionError(f"point of length {len(x)} in dimension {system.dimension}")
    refuse_non_finite(x)
    dots = []
    for r in system.live_positive:
        d = r.dot(x)
        if d * d == 0:
            root = ", ".join(map(str, r.vector))
            raise HyperplaneError(f"(alpha . x)^2 is 0 for the root ({root})")
        dots.append(d)
    return dots


@dataclass(frozen=True)
class DunklContext:
    """A root system checked for closure; its arithmetic follows the system
    and the inputs."""

    system: RootSystem

    def __post_init__(self):
        result = self.system.closure
        if not result:
            raise ExactModeError(f"root system is not closed: {result.detail}")

    def guard_point(self, x: Sequence[Scalar]) -> list:
        """``live_dots``, and HyperplaneError where a float alpha . x lies
        within HYPERPLANE_FLOOR |alpha| of a hyperplane that carries k > 0.

        Returns alpha . x for each root of ``system.live_positive``, in order.
        """
        dots = live_dots(self.system, x)
        for r, d in zip(self.system.live_positive, dots):
            if not isinstance(d, (int, Fraction)) and abs(d) < HYPERPLANE_FLOOR * math.sqrt(r.fsq_norm):
                raise HyperplaneError(
                    f"point within {HYPERPLANE_FLOOR} of the hyperplane of {r.vector}"
                )
        return dots


# ---------------------------------------------------------------------------
# exact polynomial operators


def dunkl_apply(ctx: DunklContext, xi: Sequence[Scalar], p: MultiPoly) -> MultiPoly:
    """T_xi p as an exact polynomial.

    Needs rational root coordinates and multiplicities (else
    ExactModeError).  For homogeneous p the result is homogeneous of degree
    deg(p) - 1 (possibly zero).
    """
    system = ctx.system
    if not system.is_exact:
        raise ExactModeError(
            "dunkl_apply needs rational root coordinates (integer-representatives scale)"
        )
    if any(isinstance(r.multiplicity, float) for r in system.roots):
        raise ExactModeError("polynomial Dunkl operators need rational multiplicities")
    if p.nvars != system.dimension:
        raise DimensionError("polynomial variables do not match the system dimension")
    xs = [Fraction(c) if not isinstance(c, Fraction) else c for c in xi]
    if len(xs) != system.dimension:
        raise DimensionError("direction vector has wrong length")
    out = MultiPoly.zero(p.nvars)
    for i, c in enumerate(xs):
        if c:
            out = out + c * p.partial_derivative(i)
    for r in system.live_positive:
        k = Fraction(r.multiplicity)
        a_dot_xi = r.dot(xs)
        if a_dot_xi:
            out = out + (k * a_dot_xi) * alternating_quotient(p, r)
    return out


def dunkl_direction(ctx: DunklContext, i: int) -> Vector:
    n = ctx.system.dimension
    if not 0 <= i < n:
        raise DimensionError(f"direction index {i} out of range")
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def dunkl_laplacian_direct(ctx: DunklContext, p: MultiPoly) -> MultiPoly:
    """sum_i T_i(T_i p) via double application of the operators."""
    out = MultiPoly.zero(p.nvars)
    for i in range(ctx.system.dimension):
        e = dunkl_direction(ctx, i)
        out = out + dunkl_apply(ctx, e, dunkl_apply(ctx, e, p))
    return out


def commutator(ctx: DunklContext, i: int, j: int, p: MultiPoly) -> MultiPoly:
    """[T_i, T_j] p, which is identically zero for a valid system."""
    ei, ej = dunkl_direction(ctx, i), dunkl_direction(ctx, j)
    return dunkl_apply(ctx, ei, dunkl_apply(ctx, ej, p)) - dunkl_apply(
        ctx, ej, dunkl_apply(ctx, ei, p)
    )


# ---------------------------------------------------------------------------
# pointwise generators (exact or float, following the input types)


def _pointwise_generator(
    ctx: DunklContext,
    f: PointFunction,
    x: Sequence[Scalar],
    drift: int,
    jump_sign: int,
    jump_den: int,
) -> Scalar:
    """Delta f / jump_den + sum over R+ with k != 0 of

        drift * k (alpha . grad f) / (alpha . x)
        + jump_sign * k |alpha|^2 [f(x) + jump_sign f(sigma x)] / (jump_den (alpha . x)^2),

    the one formula behind the three generators below, read from f's
    oracles at x and at each sigma_alpha x.
    """
    dots = ctx.guard_point(x)
    f_refs = [f.value(_reflect(r, x, d)) for r, d in zip(ctx.system.live_positive, dots)]
    return _generator_core(
        ctx.system, x, dots, f.laplacian(x), f.gradient(x), f.value(x), f_refs,
        drift, jump_sign, jump_den,
    )


def _generator_core(system, x, dots, lap, grad, fx, f_refs, drift, jump_sign, jump_den):
    """``_pointwise_generator`` from the guarded dots alpha . x, Delta f(x),
    grad f(x), f(x) and f(sigma_alpha x), each root of ``system.live_positive``
    in order.  Unit signs and factors change no bits of a float result.  At an
    all-float point k and k |alpha|^2 are the root's cached floats.
    """
    floats = all(type(c) is float for c in x)
    acc = lap / jump_den
    for r, d, f_ref in zip(system.live_positive, dots, f_refs):
        k, w = (r.fmultiplicity, r.fweight) if floats else (r.multiplicity, r.multiplicity * r.sq_norm)
        acc = acc + drift * k * r.dot(grad) / d
        acc = acc + jump_sign * (w * (fx + jump_sign * f_ref) / (jump_den * d * d))
    return acc


def dunkl_laplacian_expanded(ctx: DunklContext, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """The expanded Dunkl Laplacian at x, using f's oracles.

    Agrees with dunkl_laplacian_direct for polynomial-backed f; works for
    Fraction or float points.
    """
    return _pointwise_generator(ctx, f, x, drift=2, jump_sign=-1, jump_den=1)


def kbe_generator(ctx: DunklContext, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """Backward-equation generator: half the Dunkl Laplacian."""
    return _pointwise_generator(ctx, f, x, drift=1, jump_sign=-1, jump_den=2)


def kfe_generator(ctx: DunklContext, f: PointFunction, x: Sequence[Scalar]) -> Scalar:
    """Forward-equation generator: drift sign flipped, plus sign in the jump term."""
    return _pointwise_generator(ctx, f, x, drift=-1, jump_sign=1, jump_den=2)
