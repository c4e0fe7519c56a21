"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely as a map from exponent tuples to nonzero
Fraction coefficients.  The canonical form drops zero coefficients, so
structural equality is mathematical equality.  Serialization orders terms
by graded lexicographic order (total degree first), descending, and prints
variables as x1..xN:

    3/2 x1^2 x3 - x2

Beyond ring arithmetic the module provides the pieces Dunkl operators need:
partial derivatives, composition with a linear map (in particular with a
reflection), and the exact "alternating quotient"

    (p - p o sigma_alpha) / (alpha . x),

which is always divisible because the numerator vanishes on the hyperplane
alpha . x = 0.  A degree cap (default 16) bounds memory in product-heavy
property tests; exceeding it raises DegreeCapError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import (
    DegreeCapError,
    DimensionError,
    ExactModeError,
    PolynomialDivisionError,
)
from .rootsys import Root

DEFAULT_DEGREE_CAP = 16

Exponents = tuple[int, ...]
RationalLike = Union[int, Fraction]


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise ExactModeError(f"polynomial coefficients must be rational, got {type(c).__name__}")


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms", "_compiled")

    def __init__(self, nvars: int, terms: Mapping[Exponents, RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        self._compiled = None
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                e = tuple(int(x) for x in expo)
                if len(e) != nvars:
                    raise DimensionError(
                        f"exponent tuple {e} has length {len(e)}, expected {nvars}"
                    )
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = _coerce_coeff(coeff)
                if c:
                    clean[e] = clean.get(e, Fraction(0)) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: RationalLike) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        """The monomial x_{index}, with 0-based index."""
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} vars")
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, coeffs: Sequence[RationalLike]) -> "MultiPoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None  # mutable mapping inside

    # -- ring operations ---------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other, cap: int = DEFAULT_DEGREE_CAP):
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            p = MultiPoly(self.nvars)
            if c:
                p.terms = {e: c * v for e, v in self.terms.items()}
            return p
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.nvars)
        if self.degree() + other.degree() > cap:
            raise DegreeCapError(
                f"product degree {self.degree() + other.degree()} exceeds cap {cap}"
            )
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def mul_capped(self, other: "MultiPoly", cap: int) -> "MultiPoly":
        return MultiPoly.__mul__(self, other, cap=cap)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.constant(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus, evaluation, substitution -------------------------------

    def partial_derivative(self, var: int) -> "MultiPoly":
        """d/dx_var, 0-based index."""
        if not 0 <= var < self.nvars:
            raise DimensionError(f"variable index {var} out of range")
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[var]:
                ne = list(e)
                ne[var] -= 1
                out[tuple(ne)] = c * e[var]
        p = MultiPoly(self.nvars)
        p.terms = out
        return p

    def gradient(self) -> tuple["MultiPoly", ...]:
        return tuple(self.partial_derivative(i) for i in range(self.nvars))

    def laplacian(self) -> "MultiPoly":
        acc = MultiPoly.zero(self.nvars)
        for i in range(self.nvars):
            acc = acc + self.partial_derivative(i).partial_derivative(i)
        return acc

    def eval(self, point: Sequence) -> object:
        """Evaluate at a point; exact for Fraction coordinates.

        Works generically for Fraction, float or complex coordinates; the
        return type follows the coordinate type.  All-float points use the
        float compilation, which gives the same bits as the generic loop.
        """
        if len(point) != self.nvars:
            raise DimensionError(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        if self.terms and all(type(x) is float for x in point):
            return self._eval_float(point)
        total = None
        for e, c in self.terms.items():
            term = c
            for x, p in zip(point, e):
                if p:
                    term = term * x**p
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if all(not isinstance(x, (float, complex)) for x in point) else 0.0
        return total

    def _eval_float(self, point: Sequence[float]) -> object:
        # Fraction * float is float(c) * float, so the generic loop's
        # operations in its order give the same bits.  A constant term keeps
        # its Fraction, as in the generic loop.  The compilation is keyed to
        # the terms dict it was built from, so reassigning terms rebuilds it.
        compiled = self._compiled
        if compiled is None or compiled[0] is not self.terms:
            compiled = self._compiled = (self.terms, [])
            for e, c in self.terms.items():
                factors = tuple((v, p) for v, p in enumerate(e) if p)
                compiled[1].append((float(c) if factors else c, factors))
        total = None
        for term, factors in compiled[1]:
            for v, p in factors:
                term = term * point[v] ** p
            total = term if total is None else total + term
        return total

    def compose_signed_permutation(
        self, perm: Sequence[int], signs: Sequence[int]
    ) -> "MultiPoly":
        """p(sigma x) where (sigma x)_i = signs[i] * x[perm[i]].

        O(#terms): monomials map to monomials.
        """
        if len(perm) != self.nvars or len(signs) != self.nvars:
            raise DimensionError("permutation length mismatch")
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            s = 1
            for i, p in enumerate(e):
                if p:
                    ne[perm[i]] += p
                    if signs[i] < 0 and p % 2 == 1:
                        s = -s
            key = tuple(ne)
            v = out.get(key, Fraction(0)) + s * c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        q = MultiPoly(self.nvars)
        q.terms = out
        return q

    def compose_linear(self, matrix: Sequence[Sequence[RationalLike]]) -> "MultiPoly":
        """p(M x) for a rational square matrix M acting on the variables."""
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DimensionError("matrix shape mismatch")
        rows = [
            MultiPoly.linear_form([_coerce_coeff(c) for c in row]) for row in matrix
        ]
        out = MultiPoly.zero(n)
        for e, c in self.terms.items():
            term = MultiPoly.constant(n, c)
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * rows[i]
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (canonical for printing)."""
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {format_poly(self)!r})"


# ---------------------------------------------------------------------------
# module-level operations


def compose_reflection(p: MultiPoly, alpha: Root) -> MultiPoly:
    """p o sigma_alpha for a root with rational coordinates.

    Signed-permutation reflections (all A/B/D integer representatives) take
    the fast monomial-relabeling path.
    """
    vec = alpha.vector
    if any(isinstance(c, float) for c in vec):
        raise ExactModeError(
            "compose_reflection needs rational root coordinates; "
            "use integer-representatives scale"
        )
    if len(vec) != p.nvars:
        raise DimensionError("root dimension does not match polynomial variables")
    sp = alpha.signed_permutation
    if sp is not None:
        return p.compose_signed_permutation(*sp)
    return p.compose_linear(alpha.reflection_matrix)


def divide_by_linear(
    p: MultiPoly, coeffs: Sequence[RationalLike]
) -> tuple[MultiPoly, MultiPoly]:
    """Exact division of p by the linear form sum(coeffs[i] x_i).

    Returns (quotient, remainder) with remainder free of the pivot variable.
    Single pass over pivot-degree levels: subtracting t * form from the
    numerator only creates terms of strictly smaller pivot degree.
    """
    cs = [_coerce_coeff(c) for c in coeffs]
    if len(cs) != p.nvars:
        raise DimensionError("linear form length mismatch")
    pivot = next((i for i, c in enumerate(cs) if c), None)
    if pivot is None:
        raise ZeroDivisionError("division by the zero linear form")
    cp = cs[pivot]
    levels: dict[int, dict[Exponents, Fraction]] = {}
    for e, c in p.terms.items():
        levels.setdefault(e[pivot], {})[e] = c
    if not levels:
        return MultiPoly.zero(p.nvars), MultiPoly.zero(p.nvars)
    quotient: dict[Exponents, Fraction] = {}
    top = max(levels)
    for lev in range(top, 0, -1):
        for e, c in levels.pop(lev, {}).items():
            if not c:
                continue
            te = list(e)
            te[pivot] -= 1
            tq = c / cp
            key = tuple(te)
            v = quotient.get(key, Fraction(0)) + tq
            if v:
                quotient[key] = v
            else:
                quotient.pop(key, None)
            # subtract tq * x^te * (form minus pivot term): lands at level lev-1
            for j, cj in enumerate(cs):
                if cj and j != pivot:
                    ne = list(te)
                    ne[j] += 1
                    ne_t = tuple(ne)
                    lvl = levels.setdefault(lev - 1, {})
                    w = lvl.get(ne_t, Fraction(0)) - tq * cj
                    if w:
                        lvl[ne_t] = w
                    else:
                        lvl.pop(ne_t, None)
    q = MultiPoly(p.nvars)
    q.terms = quotient
    r = MultiPoly(p.nvars)
    r.terms = {e: c for e, c in levels.get(0, {}).items() if c}
    return q, r


def alternating_quotient(p: MultiPoly, alpha: Root) -> MultiPoly:
    """(p - p o sigma_alpha) / (alpha . x), exactly.

    The numerator vanishes on the hyperplane, so the division is exact; a
    nonzero remainder indicates an internal error and raises.
    """
    numerator = p - compose_reflection(p, alpha)
    q, r = divide_by_linear(numerator, [_coerce_coeff(c) for c in alpha.vector])
    if not r.is_zero():
        raise PolynomialDivisionError(
            "alternating numerator not divisible by the linear form (internal error)"
        )
    return q


# ---------------------------------------------------------------------------
# root-system polynomials


def discriminant_poly(system) -> MultiPoly:
    """a_R as a polynomial: product of alpha . x over the positive roots."""
    n = system.dimension
    out = MultiPoly.constant(n, 1)
    for r in system.positive_roots():
        if any(isinstance(c, float) for c in r.vector):
            raise ExactModeError("discriminant_poly needs an exact-scale system")
        out = out * MultiPoly.linear_form([Fraction(c) for c in r.vector])
    return out


def weight_poly(system, cap: int = 64) -> MultiPoly:
    """w_k as a polynomial, for integer multiplicities.

    Uses |alpha.x|^k * |-alpha.x|^k = (alpha.x)^{2k} pairwise over R+, which
    is a polynomial identity, so no absolute values are needed.
    """
    n = system.dimension
    out = MultiPoly.constant(n, 1)
    for r in system.positive_roots():
        if any(isinstance(c, float) for c in r.vector):
            raise ExactModeError("weight_poly needs an exact-scale system")
        k = r.multiplicity
        if isinstance(k, float) or Fraction(k).denominator != 1:
            raise ExactModeError("weight_poly needs integer multiplicities")
        form = MultiPoly.linear_form([Fraction(c) for c in r.vector])
        for _ in range(2 * int(k)):
            out = out.mul_capped(form, cap)
    return out


# ---------------------------------------------------------------------------
# text form


_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
_TERM_RE = re.compile(r"(?:(\d+(?:/\d+)?)\s*)?((?:x\d+(?:\^\d+)?[\s*]*)*)")


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse the canonical text form, e.g. ``3/2 x1^2 x3 - x2``.

    Variables are written x1..xN (1-based).  ``nvars`` defaults to the
    largest index mentioned; pass it explicitly for polynomials that do not
    touch the last variable.
    """
    src = text.strip()
    if not src:
        raise ValueError("empty polynomial text")
    # Coefficients and exponents carry no internal signs, so +/- only ever
    # separate terms.
    norm = src.replace("-", "+-")
    if norm.startswith("+"):
        norm = norm[1:]
    chunks = [c.strip() for c in norm.split("+")]
    if any(not c for c in chunks):
        raise ValueError(f"cannot parse polynomial {text!r}")

    raw_terms: list[tuple[Fraction, dict[int, int]]] = []
    max_var = 0
    for chunk in chunks:
        sgn = 1
        if chunk.startswith("-"):
            sgn = -1
            chunk = chunk[1:].strip()
        m = _TERM_RE.fullmatch(chunk)
        if m is None or not chunk:
            raise ValueError(f"cannot parse term {chunk!r}")
        coef_text, mono_text = m.group(1), m.group(2) or ""
        coeff = Fraction(coef_text) if coef_text else Fraction(1)
        expos: dict[int, int] = {}
        consumed = 0
        for vm in _VAR_RE.finditer(mono_text):
            idx = int(vm.group(1))
            if idx < 1:
                raise ValueError("variable indices are 1-based")
            power = int(vm.group(2)) if vm.group(2) else 1
            expos[idx - 1] = expos.get(idx - 1, 0) + power
            max_var = max(max_var, idx)
            consumed += 1
        if not coef_text and consumed == 0:
            raise ValueError(f"cannot parse term {chunk!r}")
        raw_terms.append((sgn * coeff, expos))
    n = nvars if nvars is not None else max_var
    if n < max_var:
        raise DimensionError(f"nvars={n} but variable x{max_var} appears")
    terms: dict[Exponents, Fraction] = {}
    for coeff, expos in raw_terms:
        e = [0] * n
        for idx, power in expos.items():
            e[idx] = power
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MultiPoly(n, terms)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; inverse of parse_poly for equal nvars."""
    items = p.sorted_terms()
    if not items:
        return "0"
    parts = []
    for pos, (e, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        mono = " ".join(
            f"x{i + 1}^{power}" if power > 1 else f"x{i + 1}"
            for i, power in enumerate(e)
            if power
        )
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag} {mono}"
        else:
            body = str(mag)
        if pos == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
