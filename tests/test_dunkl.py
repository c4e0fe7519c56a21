"""Difference-differential operators: closed-form oracles and structure."""

import math
from fractions import Fraction

import pytest

from dunkl_lab.dunkl import (
    DunklContext,
    PolyFunction,
    commutator,
    dunkl_apply,
    dunkl_laplacian_direct,
    dunkl_laplacian_expanded,
    kbe_generator,
    kfe_generator,
    live_dots,
)
from dunkl_lab.cm import CMParams, cm_apply
from dunkl_lab.errors import ExactModeError, HyperplaneError
from dunkl_lab.polyx import MultiPoly, parse_poly
from dunkl_lab.rootsys import build_root_system, make_system_from_vectors, sample_generic_point

K1 = Fraction(3, 2)


def _ctx(family, rank, mults):
    return DunklContext(build_root_system(family, rank, mults))


# -- rank-1 closed forms ----------------------------------------------------
# With R = {±e1}, multiplicity k:
#   T x   = 1 + 2k
#   T x^2 = 2 x
#   T x^3 = (3 + 2k) x^2


def test_rank1_polynomials():
    ctx = _ctx("B", 1, (K1,))
    x = MultiPoly.variable(1, 0)
    assert dunkl_apply(ctx, (1,), x) == MultiPoly.constant(1, 1 + 2 * K1)
    assert dunkl_apply(ctx, (1,), x * x) == 2 * x
    assert dunkl_apply(ctx, (1,), x * x * x) == (3 + 2 * K1) * (x * x)
    # even k-independent case collapses to the plain derivative
    assert dunkl_apply(ctx, (1,), x * x) == dunkl_apply(_ctx("B", 1, (0,)), (1,), x * x)


def test_rank1_second_order():
    # T^2 x^2 = T(2x) = 2(1 + 2k)
    ctx = _ctx("B", 1, (K1,))
    x = MultiPoly.variable(1, 0)
    twice = dunkl_apply(ctx, (1,), dunkl_apply(ctx, (1,), x * x))
    assert twice == MultiPoly.constant(1, 2 + 4 * K1)
    assert dunkl_laplacian_direct(ctx, x * x) == MultiPoly.constant(1, 2 + 4 * K1)


@pytest.mark.parametrize(
    "family,rank,mults",
    [("A", 2, (K1,)), ("B", 2, (1, 2)), ("B", 2, (Fraction(1, 2), Fraction(2, 3))), ("D", 4, (2,))],
)
def test_laplacian_of_square_norm(family, rank, mults):
    # Delta_D |x|^2 = 2N + 4 gamma
    ctx = _ctx(family, rank, mults)
    n = ctx.system.dimension
    sq = sum(
        (MultiPoly.variable(n, i) * MultiPoly.variable(n, i) for i in range(n)),
        MultiPoly.zero(n),
    )
    want = MultiPoly.constant(n, 2 * n + 4 * ctx.system.gamma)
    assert dunkl_laplacian_direct(ctx, sq) == want


@pytest.mark.parametrize(
    "family,rank,mults",
    [("A", 2, (K1,)), ("B", 2, (1, Fraction(1, 2))), ("D", 4, (Fraction(2, 3),)), ("I2", 4, (1, 2))],
)
def test_commutativity(family, rank, mults):
    ctx = _ctx(family, rank, mults)
    n = ctx.system.dimension
    p = parse_poly("x1^3 x2 - 2 x2^2", nvars=n) + MultiPoly.variable(n, n - 1)
    for i in range(n):
        for j in range(i + 1, n):
            assert commutator(ctx, i, j, p).is_zero()


def test_degree_lowering_on_homogeneous():
    ctx = _ctx("A", 2, (K1,))
    p = parse_poly("x1^2 x2 - x2 x3^2", nvars=3)
    out = dunkl_apply(ctx, (1, 0, 0), p)
    assert out.is_zero() or (out.is_homogeneous() and out.degree() == 2)


def test_exact_mode_requires_rational_data():
    sys_f = build_root_system("A", 2, (1.0,), scale="normalized")
    ctx = DunklContext(sys_f)
    with pytest.raises(ExactModeError):
        dunkl_apply(ctx, (1, 0, 0), MultiPoly.variable(3, 0))


def test_unclosed_custom_system_is_rejected():
    # reflecting (0, 1) in (1, 1) gives (-1, 0), which is missing
    unclosed = make_system_from_vectors([(1, 1), (-1, -1), (0, 1), (0, -1)])
    with pytest.raises(ExactModeError, match="not closed"):
        DunklContext(unclosed)


def test_hyperplane_guard():
    ctx = _ctx("A", 2, (1,))
    with pytest.raises(HyperplaneError):
        ctx.guard_point((1.0, 1.0, 0.0))
    # zero-multiplicity hyperplanes are not guarded
    free = DunklContext(build_root_system("B", 2, (0, 1)).with_multiplicity_scale(1))
    free.guard_point((1e-12, 0.7))  # on the k=0 short-root hyperplane: fine
    # guard_point is live_dots plus the float floor: off the walls both give
    # the same dots, in exact and in float arithmetic
    for system in (
        build_root_system("A", 3, (K1,)),
        build_root_system("B", 3, (1, Fraction(1, 2))),
        build_root_system("D", 4, (2,)),
        build_root_system("I2", 5, (0.7,), scale="normalized"),
    ):
        ctx = DunklContext(system)
        for seed in range(4):
            x = sample_generic_point(system, seed=seed)
            for point in (tuple(map(Fraction, x)), tuple(map(float, x))):
                assert ctx.guard_point(point) == live_dots(system, point)
    # an exact point on a wall is refused by both
    ctx = _ctx("A", 3, (1,))
    on_wall = (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3))
    for guard in (ctx.guard_point, lambda x: live_dots(ctx.system, x)):
        with pytest.raises(HyperplaneError):
            guard(on_wall)
    # 1e-12 off a wall only the float floor refuses
    near = (1.0, 1.0 + 1e-12, 0.5, 3.0)
    assert len(live_dots(ctx.system, near)) == 6
    with pytest.raises(HyperplaneError, match="within"):
        ctx.guard_point(near)


@pytest.mark.parametrize("generator", [kfe_generator, kbe_generator, dunkl_laplacian_expanded])
@pytest.mark.parametrize(
    "x, index", [((math.nan, 0.0, 1.0), 0), ((0.0, 1.0, -math.inf), 2)], ids=["nan", "inf"]
)
def test_generators_refuse_a_non_finite_coordinate(generator, x, index):
    # NaN compares false with the hyperplane floor, so these used to return nan
    ctx = _ctx("A", 2, (1,))
    f = PolyFunction(parse_poly("x1 x2", nvars=3))
    with pytest.raises(ValueError, match=f"coordinate {index} value .* is not finite"):
        generator(ctx, f, x)


# -- pointwise expanded operators -------------------------------------------


def test_expanded_matches_direct_on_polynomials():
    ctx = _ctx("B", 2, (1, Fraction(3, 2)))
    p = parse_poly("x1^4 - 3 x1 x2^2 + x2", nvars=2)
    direct = dunkl_laplacian_direct(ctx, p)
    f = PolyFunction(p)
    for seed in range(12):
        x = sample_generic_point(ctx.system, seed=seed)
        assert dunkl_laplacian_expanded(ctx, f, x) == direct.eval(x)


def test_kbe_on_square_norm():
    # (1/2) Delta_D |x|^2 = N + 2 gamma pointwise
    ctx = _ctx("D", 4, (Fraction(5, 4),))
    sq = parse_poly("x1^2 + x2^2 + x3^2 + x4^2", nvars=4)
    f = PolyFunction(sq)
    x = sample_generic_point(ctx.system, seed=1)
    assert kbe_generator(ctx, f, x) == 4 + 2 * ctx.system.gamma


def test_rank1_kfe_closed_form():
    # rank 1: L* f = f''/2 - k (f'/x - (f(x)+f(-x))/x^2)
    # f = x^2: drift gives -2k, the jump average gives +k
    k = Fraction(3, 2)
    ctx = _ctx("B", 1, (k,))
    f = PolyFunction(parse_poly("x1^2", nvars=1))
    x = (Fraction(5, 7),)
    assert kfe_generator(ctx, f, x) == 1 - k
    # f = x: odd part drops out of the jump average
    g = PolyFunction(parse_poly("x1", nvars=1))
    assert kfe_generator(ctx, g, x) == -k / x[0] + 0
    # f = x^3
    h = PolyFunction(parse_poly("x1^3", nvars=1))
    want = 3 * x[0] - 3 * k * x[0] + 0
    assert kfe_generator(ctx, h, x) == want


def test_a2_kfe_independent_sum():
    # A2 at x = (0, 1, 3), f = x1.  Independent evaluation of
    # f''/2 - k sum (grad f . a)/(a.x) + (k/2) sum |a|^2 (f(x)+f(sx))/(a.x)^2
    # over positive roots a = ej - ei.
    k = Fraction(2, 5)
    ctx = _ctx("A", 2, (k,))
    f = PolyFunction(parse_poly("x1", nvars=3))
    x = (Fraction(0), Fraction(1), Fraction(3))
    pairs = [(0, 1), (0, 2), (1, 2)]
    drift = Fraction(0)
    jump = Fraction(0)
    for i, j in pairs:
        d = x[j] - x[i]
        grad_dot = Fraction(1 if i == 0 else 0) * (-1) + Fraction(1 if j == 0 else 0)
        drift -= k * grad_dot / d
        sx = list(x)
        sx[i], sx[j] = sx[j], sx[i]
        jump += k * Fraction(2, 2) * (x[0] + sx[0]) / d**2
    want = drift + jump
    assert kfe_generator(ctx, f, x) == want
    assert want == Fraction(8, 3) * k  # hand-collapsed value at this point


class _Sine:
    """PointFunction for sin(x1) with exact value, gradient and Laplacian."""

    def value(self, x):
        return math.sin(x[0])

    def gradient(self, x):
        return (math.cos(x[0]),)

    def laplacian(self, x):
        return -math.sin(x[0])


def test_kbe_generator_on_exact_sine_oracles():
    # kbe_generator on a non-polynomial PointFunction
    ctx = _ctx("B", 1, (1.0,))
    x = (0.7,)
    got = kbe_generator(ctx, _Sine(), x)
    # (1/2) f'' + k (f'/x - (f(x) - f(-x))/(2x^2)) for even reflection part
    want = -0.5 * math.sin(0.7) + 1.0 * (math.cos(0.7) / 0.7 - math.sin(0.7) / 0.49)
    # the exact oracles give want to the last bit; the bound leaves a few ulps
    assert got == pytest.approx(want, rel=1e-15)


def test_kfe_drops_to_kbe_at_zero_multiplicity():
    ctx = _ctx("A", 2, (0,))
    p = parse_poly("x1^2 x3 - x2", nvars=3)
    f = PolyFunction(p)
    x = sample_generic_point(ctx.system, seed=4)
    assert kfe_generator(ctx, f, x) == kbe_generator(ctx, f, x) == p.laplacian().eval(x) / 2


# At an all-float point the generators and cm_apply run on the roots' cached
# float constants.  k |alpha|^2 is rounded once from the exact product: on A2
# scaled by 3, float(2/7) * 18.0 differs from float(36/7), so a double-rounded
# weight moves these bits.  Values recorded with the Fraction-times-float mix
# that the cached constants replace.
@pytest.mark.parametrize(
    "system,poly,x,want",
    [
        (
            build_root_system("A", 2, (Fraction(2, 7),)).rescale_orbit(0, 3),
            "x1^3 x2 - 2 x2^2 x3 + x1 x3^2 + x2",
            (0.31, -0.77, 1.18),
            ("-0x1.54a55e2d148dcp+1", "-0x1.27b824fb24b04p+2",
             "-0x1.27b824fb24b04p+3", "0x1.8b122adac62a3p+1"),
        ),
        (
            build_root_system("B", 2, (Fraction(5, 3), Fraction(7, 5))),
            "x1^4 - 3 x1 x2^2 + x2^3 + x1",
            (0.83, -1.37),
            ("0x1.778f16b4e4444p+4", "-0x1.d7b69984a0e46p+2",
             "-0x1.d7b69984a0e46p+3", "-0x1.0e6930a9d0e9dp+6"),
        ),
    ],
    ids=["A2-scaled-3", "B2"],
)
def test_float_route_bits(system, poly, x, want):
    ctx = DunklContext(system)
    f = PolyFunction(parse_poly(poly, nvars=system.dimension))
    got = [g(ctx, f, x) for g in (kfe_generator, kbe_generator, dunkl_laplacian_expanded)]
    got.append(cm_apply(CMParams(system, omega=Fraction(1, 3)), f, x))
    assert tuple(v.hex() for v in got) == want
