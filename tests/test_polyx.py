"""Exact multivariate polynomial ring, division, parser, symbolic cross-checks."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_lab.errors import DegreeCapError, ExactModeError
from dunkl_lab.polyx import (
    MultiPoly,
    alternating_quotient,
    compose_reflection,
    discriminant_poly,
    divide_by_linear,
    format_poly,
    parse_poly,
    weight_poly,
)
from dunkl_lab.rootsys import Root, build_root_system

NVARS = 3

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# products of three of these stay well under the default degree cap
small_exponents = st.tuples(*[st.integers(min_value=0, max_value=1)] * NVARS)
small_polys = st.dictionaries(small_exponents, coeffs, max_size=4).map(
    lambda terms: MultiPoly(NVARS, terms)
)
exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * NVARS)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda terms: MultiPoly(NVARS, terms)
)


def _root(vec):
    sq = sum(Fraction(c) ** 2 for c in vec)
    return Root(vector=tuple(Fraction(c) for c in vec), sq_norm=sq, multiplicity=1, orbit=0)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero(NVARS) == p
    assert p * MultiPoly.constant(NVARS, 1) == p
    assert p - p == MultiPoly.zero(NVARS)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_derivative_is_linear(p, q):
    for v in range(NVARS):
        assert (p + q).partial_derivative(v) == p.partial_derivative(v) + q.partial_derivative(v)


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys)
def test_leibniz_rule(p, q):
    for v in range(NVARS):
        assert (p * q).partial_derivative(v) == p.partial_derivative(v) * q + p * q.partial_derivative(v)


@settings(max_examples=100, deadline=None)
@given(small_polys, st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * NVARS))
def test_eval_is_ring_homomorphism(p, x):
    q = p * p + p
    assert q.eval(x) == p.eval(x) * p.eval(x) + p.eval(x)


@settings(max_examples=80, deadline=None)
@given(polys)
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), nvars=NVARS) == p


def test_parser_basics():
    p = parse_poly("3 x1^2 x2 - 1/2 x3 + 4", nvars=3)
    assert p.eval((1, 1, 2)) == Fraction(6)
    assert parse_poly("x1 + x2", nvars=2) == MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    with pytest.raises(Exception):
        parse_poly("x1 + x5", nvars=2)
    with pytest.raises(ValueError):
        parse_poly("")


def test_degree_and_homogeneity():
    p = parse_poly("x1^2 x2 + x3^3", nvars=3)
    assert p.degree() == 3
    assert p.is_homogeneous()
    assert not (p + MultiPoly.constant(3, 1)).is_homogeneous()
    assert MultiPoly.zero(3).degree() == -1


def test_degree_cap_guard():
    x = MultiPoly.variable(1, 0)
    p = x**8
    with pytest.raises(DegreeCapError):
        p * (p * p)  # degree 24 > default cap
    assert p.mul_capped(p * p, cap=64).degree() == 24
    with pytest.raises(DegreeCapError):
        x**40


@settings(max_examples=60, deadline=None)
@given(polys)
def test_divide_by_linear_round_trip(p):
    alpha = (Fraction(1), Fraction(-1), Fraction(0))
    lin = MultiPoly.linear_form(alpha)
    q, rem = divide_by_linear(p * lin, alpha)
    assert rem.is_zero()
    assert q == p


def test_divide_by_linear_remainder():
    # x1^2 = (x1 - x2) * (x1 + x2) + x2^2
    p = parse_poly("x1^2", nvars=2)
    q, rem = divide_by_linear(p, (1, -1))
    assert q == parse_poly("x1 + x2", nvars=2)
    assert rem == parse_poly("x2^2", nvars=2)
    with pytest.raises(ZeroDivisionError):
        divide_by_linear(p, (0, 0))


def test_alternating_quotient():
    # (p - p o sigma) is always divisible by alpha . x
    p = parse_poly("x1^3 x2 + 2 x2^2", nvars=2)
    alpha = _root((Fraction(1), Fraction(-1)))
    q = alternating_quotient(p, alpha)
    lin = MultiPoly.linear_form(alpha.vector)
    assert q * lin == p - compose_reflection(p, alpha)
    # an even polynomial has zero alternating part
    even = parse_poly("x1^2 + x2^2", nvars=2)
    assert alternating_quotient(even, alpha).is_zero()


def test_compose_reflection_fixed_and_flipped():
    alpha = _root((1, -1, 0))
    lin = MultiPoly.linear_form(alpha.vector)
    assert compose_reflection(lin, alpha) == -lin
    sym = parse_poly("x1 + x2", nvars=3)
    assert compose_reflection(sym, alpha) == sym
    # non-signed-permutation reflection exercises the dense path
    slanted = _root((1, -2, 0))
    p = parse_poly("x1", nvars=3)
    q = compose_reflection(p, slanted)
    # sigma(e1) = e1 - 2*1/5*(1,-2,0)
    assert q == parse_poly("3/5 x1 + 4/5 x2", nvars=3)
    assert compose_reflection(q, slanted) == p


def _to_sympy(p, xs):
    expr = sympy.Integer(0)
    for exps, c in p.sorted_terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(xs, exps):
            term *= x**e
        expr += term
    return sympy.expand(expr)


def test_discriminant_poly_against_sympy():
    system = build_root_system("A", 2, (1,))
    disc = discriminant_poly(system)
    xs = sympy.symbols("x0 x1 x2")
    expect = sympy.expand((xs[1] - xs[0]) * (xs[2] - xs[0]) * (xs[2] - xs[1]))
    assert sympy.simplify(_to_sympy(disc, xs) - expect) == 0
    # its Laplacian vanishes identically
    lap = sum(sympy.diff(expect, x, 2) for x in xs)
    assert sympy.simplify(lap) == 0
    assert disc.laplacian().is_zero()


def test_b2_discriminant_harmonic():
    system = build_root_system("B", 2, (1, 1))
    disc = discriminant_poly(system)
    assert disc.degree() == 4
    assert disc.laplacian().is_zero()
    xs = sympy.symbols("x0 x1")
    expect = sympy.expand(xs[0] * xs[1] * (xs[1] - xs[0]) * (xs[1] + xs[0]))
    got = _to_sympy(disc, xs)
    # positive-system orientation may flip the overall sign
    assert sympy.simplify(got - expect) == 0 or sympy.simplify(got + expect) == 0


def test_derivatives_against_sympy():
    p = parse_poly("x1^3 x2 - 2 x1 x3^2 + 7/3 x2^2 x3", nvars=3)
    xs = sympy.symbols("y0 y1 y2")
    expr = _to_sympy(p, xs)
    for v in range(3):
        got = _to_sympy(p.partial_derivative(v), xs)
        assert sympy.simplify(got - sympy.diff(expr, xs[v])) == 0
    got_lap = _to_sympy(p.laplacian(), xs)
    want_lap = sum(sympy.diff(expr, x, 2) for x in xs)
    assert sympy.simplify(got_lap - want_lap) == 0


def test_weight_poly_even_multiplicities():
    system = build_root_system("A", 2, (1,))
    w = weight_poly(system)
    # product over all 6 roots of (alpha.x)^1: degree 6, reflection-invariant
    assert w.degree() == 6
    x = (Fraction(0), Fraction(1), Fraction(3))
    assert w.eval(x) == Fraction(36)
    for r in system.positive_roots():
        assert compose_reflection(w, r) == w


def test_weight_poly_rejects_fractional_multiplicity():
    system = build_root_system("A", 2, (Fraction(1, 2),))
    with pytest.raises(ExactModeError):
        weight_poly(system)


def test_eval_supports_floats_and_complex():
    p = parse_poly("x1^2 + x2", nvars=2)
    assert p.eval((0.5, 1.0)) == pytest.approx(1.25)
    z = p.eval((1j, 0.0))
    assert z == pytest.approx(-1.0)


def test_compose_signed_permutation():
    p = parse_poly("x1^2 x2", nvars=2)
    # x1 -> -x2, x2 -> x1
    q = p.compose_signed_permutation((1, 0), (-1, 1))
    assert q == parse_poly("x2^2 x1", nvars=2)


def _generic_eval(p, point):
    # the generic loop: Fraction coefficients meet float powers by dispatch
    total = None
    for e, c in p.terms.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * x**k
        total = term if total is None else total + term
    return 0.0 if total is None else total


def _same_value(a, b) -> bool:
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, float) or math.copysign(1.0, a) == math.copysign(1.0, b)


float_points = st.tuples(*[st.floats(min_value=-4, max_value=4)] * NVARS)


@settings(max_examples=300, deadline=None)
@given(polys, float_points)
def test_compiled_float_eval_matches_generic_loop(p, x):
    assert _same_value(p.eval(x), _generic_eval(p, x))
    # the second call reads the cached compilation
    assert _same_value(p.eval(x), _generic_eval(p, x))


@pytest.mark.parametrize(
    "text", ["0", "7/3", "-2", "x1", "5/7 x1 x2^2 - 3 x3^4 + 2/9", "1/3 - x2^3 + 11/5 x1^2 x3"]
)
def test_compiled_float_eval_constant_and_zero(text):
    p = parse_poly(text, nvars=NVARS)
    for x in [(0.5, -1.25, 3.0), (-0.0, 0.0, -2.5), (1e-3, 7.0, -0.3)]:
        assert _same_value(p.eval(x), _generic_eval(p, x))
    # a constant keeps its Fraction and the zero polynomial gives 0.0
    if text == "7/3":
        assert p.eval((0.5, 1.0, 2.0)) == Fraction(7, 3)
    if text == "0":
        assert p.eval((0.5, 1.0, 2.0)) == 0.0 and isinstance(p.eval((0.5, 1.0, 2.0)), float)


def test_compiled_float_eval_follows_reassigned_terms():
    p = parse_poly("x1^2 + x2", nvars=2)
    assert p.eval((0.5, 1.0)) == 1.25
    p.terms = parse_poly("3 x1 - x2^3", nvars=2).terms
    assert p.eval((0.5, 1.0)) == 0.5
    p.terms = {}
    assert p.eval((0.5, 1.0)) == 0.0
