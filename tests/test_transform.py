"""Diffusion scaling map, gauge identities, and the main side-by-side checks."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from dunkl_lab.cm import (
    CMParams,
    SideBySide,
    _GaugedJet,
    cm_apply,
    ground_energy,
    groundstate_residual,
    groundstate_value,
    transformed_hamiltonian_check,
    w_laplacian,
)
from dunkl_lab.dunkl import DunklContext, PolyFunction, kfe_generator, live_dots
from dunkl_lab.errors import DimensionError, HyperplaneError
from dunkl_lab.polyx import MultiPoly, parse_poly
from dunkl_lab.rootsys import build_root_system, make_system_from_vectors, sample_generic_point
from dunkl_lab.suites import _DOUBLE_SUM_FAMILIES
from dunkl_lab.transform import (
    TestFunction,
    corollary1_sides,
    inverse_substitute,
    lemma2_check,
    report_from_samples,
    similarity_identities_check,
    substitute,
    theorem1_sides,
    triple_sum_check_a,
    unconfined_map_check,
    w_gradient,
    w_value,
)


def test_substitute_round_trip():
    for omega in (0.5, 1.0, 2.3):
        t, x = 0.37, (1.2, -0.8, 3.1)
        tau, zeta = substitute(omega, t, x)
        t2, x2 = inverse_substitute(omega, tau, zeta)
        assert t2 == pytest.approx(t, rel=1e-14)
        assert x2 == pytest.approx(x, rel=1e-14)
    with pytest.raises(ValueError):
        substitute(1.0, 0.0, (1.0,))


@pytest.mark.parametrize(
    "fn, omega, time, names",
    [
        (substitute, 0.0, 1.0, "omega .* 0.0"),  # ZeroDivisionError
        (substitute, -1.0, 1.0, "omega .* -1.0"),  # math domain error
        (substitute, math.nan, 1.0, "omega .* nan"),  # gave NaN
        (substitute, math.inf, 1.0, "omega .* inf"),
        (substitute, 1.0, math.nan, "t .* nan"),  # gave NaN
        (substitute, 1.0, math.inf, "t .* inf"),
        (substitute, 1.0, -0.5, "t .* -0.5"),
        (inverse_substitute, 0.0, 0.5, "omega .* 0.0"),  # gave (1.0, (0.0,))
        (inverse_substitute, -2.0, 0.5, "omega .* -2.0"),
        (inverse_substitute, math.nan, 0.5, "omega .* nan"),
        (inverse_substitute, 1.0, math.nan, "tau .* nan"),
        (inverse_substitute, 1.0, -math.inf, "tau .* -inf"),
        (inverse_substitute, 1.0, 400.0, "tau 400.0"),  # OverflowError
        (inverse_substitute, 1.0, -400.0, "tau -400.0"),  # gave (0.0, (0.0,))
    ],
)
def test_substitute_refuses_scaling_variables_without_an_answer(fn, omega, time, names):
    with pytest.raises(ValueError, match=names):
        fn(omega, time, (1.0,))


def test_inverse_substitute_takes_any_finite_tau():
    # tau = log(t) / (2 omega) is negative for t < 1
    assert inverse_substitute(1.0, -0.5, (1.0,))[0] == pytest.approx(math.exp(-1.0))


def test_substitute_fixed_values():
    # t = 1 maps to tau = 0; scaling is 1/sqrt(2 omega t)
    tau, zeta = substitute(0.5, 1.0, (2.0,))
    assert tau == 0.0
    assert zeta == (2.0,)
    tau, zeta = substitute(2.0, 4.0, (4.0,))
    assert tau == pytest.approx(math.log(4.0) / 4.0)
    assert zeta == (1.0,)


def test_substitute_consistency_fd():
    # d tau / d t = 1/(2 omega t) from the closed form
    omega, t = 1.3, 0.9
    h = 1e-6
    tau_up, _ = substitute(omega, t + h, (1.0,))
    tau_dn, _ = substitute(omega, t - h, (1.0,))
    assert (tau_up - tau_dn) / (2 * h) == pytest.approx(1 / (2 * omega * t), rel=1e-6)


def _fn(text, nvars, lam=0.0):
    return TestFunction(lam=lam, poly=parse_poly(text, nvars=nvars))


def test_w_gradient_matches_fd():
    params = CMParams(build_root_system("B", 2, (0.7, 1.4), scale="normalized"), omega=1.1)
    zeta = (0.9, 2.2)
    grad = w_gradient(params, zeta)
    h = 1e-6
    for i in range(2):
        up = list(zeta)
        dn = list(zeta)
        up[i] += h
        dn[i] -= h
        fd = (w_value(params, 0.0, up) - w_value(params, 0.0, dn)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize(
    "family,rank,mults",
    [("A", 3, (Fraction(3, 2),)), ("B", 2, (2, Fraction(1, 2))), ("D", 4, (Fraction(5, 4),))],
)
def test_double_sum_collapse_exact(family, rank, mults):
    system = build_root_system(family, rank, mults)
    for seed in range(8):
        x = sample_generic_point(system, seed=seed)
        pair = lemma2_check(system, x)
        assert pair.residual == 0


def test_double_sum_collapse_float():
    system = build_root_system("B", 3, (1.1, 0.6), scale="normalized")
    for seed in range(8):
        x = sample_generic_point(system, seed=seed)
        pair = lemma2_check(system, x)
        assert abs(pair.residual) < 1e-10 * pair.scale


def _loop_lemma2(system, x):
    # the reference: both double sums in the arithmetic of x, term by term
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
    return lhs, rhs


def _same(a, b):
    # equal in value and type, and bit for bit when float
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


_LEMMA2_SYSTEMS = [build_root_system(f, r, m) for f, r, m in _DOUBLE_SUM_FAMILIES] + [
    # rational roots: 1 / (alpha . x) = q c / (A . X) with c = 3 on the long orbit
    build_root_system("B", 3, (Fraction(2), Fraction(1, 2))).rescale_orbit(1, Fraction(1, 3)),
    make_system_from_vectors(
        [(Fraction(1, 2), Fraction(-1, 2), 0), (Fraction(-1, 2), Fraction(1, 2), 0),
         (0, 2, -2), (0, -2, 2), (Fraction(1, 3), 0, Fraction(-1, 3)), (Fraction(-1, 3), 0, Fraction(1, 3))],
        Fraction(5, 7),
    ),
    # a float multiplicity keeps the term-by-term route on rational points
    build_root_system("A", 2, (0.8,)),
]


@pytest.mark.parametrize("system", _LEMMA2_SYSTEMS, ids=lambda s: f"{s.family}{s.rank}")
def test_lemma2_lattice_route_matches_the_term_by_term_sums(system):
    for seed in range(12):
        x = sample_generic_point(system, seed=seed)
        for point in (x, tuple(float(c) for c in x)):
            side = lemma2_check(system, point)
            lhs, rhs = _loop_lemma2(system, point)
            assert _same(side.lhs, lhs) and _same(side.rhs, rhs), (seed, point)


def test_triple_sum_vanishes():
    for n, seed in ((3, 0), (4, 1), (5, 2)):
        system = build_root_system("A", n - 1, (1,))
        x = sample_generic_point(system, seed=seed)
        assert triple_sum_check_a(x) == 0


def test_similarity_identities():
    params = CMParams(build_root_system("B", 2, (1, 2)), omega=1.3)
    fn = _fn("x1^2 x2 - x2^3", 2, lam=0.4)
    zeta = tuple(float(c) for c in sample_generic_point(params.system, seed=5, min_distance=0.2))
    out = similarity_identities_check(params, fn, 0.15, zeta)
    assert set(out) == {"time", "gradient", "laplacian"}
    assert abs(out["time"].residual) < 1e-9 * out["time"].scale
    assert abs(out["gradient"].residual) < 1e-9 * out["gradient"].scale
    assert abs(out["laplacian"].residual) < 1e-7 * out["laplacian"].scale


@pytest.mark.parametrize(
    "family,rank,mults,omega",
    [
        ("A", 2, (Fraction(3, 2),), 1.0),
        ("A", 3, (Fraction(1, 2),), 0.5),
        ("B", 2, (1, 2), 2.0),
        ("B", 3, (Fraction(3, 4), Fraction(5, 4)), 1.0),
        ("D", 4, (2,), 1.7),
        # the trap-free map, one row per family
        ("B", 2, (1, 2), 0.0),
        ("A", 3, (Fraction(1, 2),), 0.0),
        ("D", 4, (2,), 0.0),
    ],
)
def test_theorem1_identity(family, rank, mults, omega):
    system = build_root_system(family, rank, mults)
    params = CMParams(system, omega=omega)
    n = system.dimension
    fn = _fn("x1^2 + x2 x1 - 2 x2", n, lam=-0.3)
    worst = 0.0
    for seed in range(6):
        zeta = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
        side = theorem1_sides(params, fn, 0.21, zeta)
        worst = max(worst, abs(side.residual) / side.scale)
    assert worst < 1e-9


@pytest.mark.parametrize(
    "family,rank,mults",
    [
        ("A", 2, (1,)),
        ("A", 3, (Fraction(1, 2),)),
        ("B", 2, (1, Fraction(1, 2))),
        ("B", 3, (2, 1)),
        ("D", 4, (Fraction(3, 2),)),
        ("I2", 4, (1, 3)),
    ],
)
def test_theorem1_identity_is_exact_at_a_rational_point(family, rank, mults):
    # at tau = 0 both sides are rational in zeta, lam, k and omega: the
    # gauge layer follows the point, so they are equal Fractions
    system = build_root_system(family, rank, mults)
    n = system.dimension
    zeta = sample_generic_point(system, seed=0)
    for omega in (0, Fraction(1, 2), 3):
        params = CMParams(system, omega=omega)
        for exps in itertools.product(range(4), repeat=n):
            if sum(exps) <= 3:
                fn = TestFunction(Fraction(1, 3), MultiPoly(n, {exps: Fraction(1)}))
                side = theorem1_sides(params, fn, 0, zeta)
                assert type(side.lhs) is type(side.rhs) is Fraction, (omega, exps)
                assert side.lhs == side.rhs, (omega, exps)


def _two_call_theorem1(params, fn, tau, zeta):
    # the reference: the generator and the Hamiltonian each read U on their own
    zs = [float(z) for z in zeta]
    u0 = fn.value(tau, zs)
    grad_u = fn.gradient(tau, zs)
    lap_u = fn.laplacian(tau, zs)
    du_tau = fn.lam * u0
    hat_tau = du_tau - params.omega * params.system.dimension * u0
    jet = _GaugedJet(params, zs, lambda z: fn.value(tau, z), u0, grad_u, lap_u, live_dots(params.system, zs))
    lhs = kfe_generator(DunklContext(params.system), jet, zs)
    if params.omega:
        lhs = lhs + params.omega * sum(z * hg for z, hg in zip(zs, jet.grad))
    lhs = lhs - hat_tau
    h_u = float(cm_apply(params, fn.spatial, zs)) * fn.time_factor(tau)
    e0 = float(ground_energy(params))
    return lhs, -(du_tau + h_u - e0 * u0)


@pytest.mark.parametrize("omega", [0, 0.5, 2.0])
@pytest.mark.parametrize(
    "family,rank,mults", [("A", 2, (Fraction(3, 2),)), ("B", 3, (1, 0.7)), ("D", 4, (2,))]
)
def test_theorem1_one_pass_matches_the_two_call_assembly(family, rank, mults, omega, monkeypatch):
    system = build_root_system(family, rank, mults)
    params = CMParams(system, omega=omega)
    fn = _fn("x1^3 x2 - 2 x2^2 + x1 x2 - 3 x2 + 1", system.dimension, lam=-0.4)
    real_eval = MultiPoly.eval
    seen = []

    def counting_eval(poly, point):
        if poly is fn.poly:
            seen.append(tuple(point))
        return real_eval(poly, point)

    for seed in range(5):
        zeta = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.1))
        lhs, rhs = _two_call_theorem1(params, fn, 0.27, zeta)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(MultiPoly, "eval", counting_eval)
            side = theorem1_sides(params, fn, 0.27, zeta)
        assert (side.lhs.hex(), side.rhs.hex()) == (lhs.hex(), rhs.hex())
        # p once at zeta and once at each reflected point, which are distinct
        assert seen[0] == zeta
        assert len(seen) == 1 + len(system.live_positive) == len(set(seen))


def test_theorem1_root_scale_invariance():
    # the identity must not depend on the root representative length
    base = build_root_system("B", 2, (1, Fraction(1, 2)))
    stretched = base.rescale_orbit(0, Fraction(3))
    fn = _fn("x1^3 - x2", 2, lam=0.2)
    zeta = (0.77, 1.91)
    a = theorem1_sides(CMParams(base, omega=1.2), fn, 0.1, zeta)
    b = theorem1_sides(CMParams(stretched, omega=1.2), fn, 0.1, zeta)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_corollary1_matches_general_path():
    # the pair-sum specialization lives at omega = k
    for n, k in ((2, 0.5), (3, 1.0), (4, 2.5)):
        system = build_root_system("A", n - 1, [k])
        params = CMParams(system, omega=k)
        fn = _fn("x1 x2 - x1", n, lam=0.6)
        for seed in range(4):
            zeta = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
            a = corollary1_sides(n, k, fn, 0.33, zeta)
            b = theorem1_sides(params, fn, 0.33, zeta)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=1e-12)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-12, abs=1e-12)
            assert abs(a.residual) < 1e-9 * a.scale


def test_corollary1_rejects_mismatched_sizes():
    with pytest.raises(DimensionError):
        corollary1_sides(3, 1.0, _fn("x1 + x2", 2), 0.0, (1.0, 2.0))
    with pytest.raises(DimensionError):
        corollary1_sides(2, 1.0, _fn("x1 + x2", 2), 0.0, (1.0, 2.0, 3.0))


def test_unconfined_map():
    for family, rank, mults in [("A", 2, (0.8,)), ("B", 2, (1.2, 0.6)), ("D", 4, (1.5,))]:
        system = build_root_system(family, rank, mults)
        f = _fn("x1^2 x2 - x2", system.dimension)
        for seed in range(4):
            x = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
            pair = unconfined_map_check(system, f, x)
            assert abs(pair.residual) < 1e-9 * pair.scale


_A2 = build_root_system("A", 2, (1,))
_ON_WALL = (1.0, 1.0, 0.5)
_WALL_CHECKS = {
    "cm_apply": lambda x: cm_apply(CMParams(_A2, omega=1), PolyFunction(parse_poly("x1", nvars=3)), x),
    "groundstate_residual": lambda x: groundstate_residual(CMParams(_A2, omega=1), x),
    "groundstate_value": lambda x: groundstate_value(CMParams(_A2, omega=1), x),
    "theorem1_sides": lambda x: theorem1_sides(CMParams(_A2, omega=1.0), _fn("x1 x2", 3), 0.1, x),
    "corollary1_sides": lambda x: corollary1_sides(3, 1.0, _fn("x1 x2", 3), 0.1, x),
    "transformed_hamiltonian_check":
        lambda x: transformed_hamiltonian_check(3, 1, parse_poly("x1 x2", nvars=3), x),
    "unconfined_map_check":
        lambda x: unconfined_map_check(_A2, _fn("x1", 3), x),
    "w_laplacian": lambda x: w_laplacian(CMParams(_A2, omega=1), x),
    "lemma2_check": lambda x: lemma2_check(_A2, x),
}
# x1 = x2 lies on the hyperplane of e1 - e2; at x1 - x2 = 1e-170 the square
# underflows to 0; a NaN coordinate would make every closed form NaN.
# groundstate_value never divides, so only the wall point applies to it
_WALL_CASES = [pytest.param(name, _ON_WALL, HyperplaneError, id=name) for name in _WALL_CHECKS] + [
    pytest.param(name, x, error, id=f"{name}-{label}")
    for name in _WALL_CHECKS
    if name != "groundstate_value"
    for label, x, error in (
        ("underflow", (1e-170, 0.0, 1.0), HyperplaneError),
        ("nan", (math.nan, 0.0, 1.0), ValueError),
    )
]


@pytest.mark.parametrize("name, x, error", _WALL_CASES)
def test_gauge_closed_forms_reject_a_wall_point(name, x, error):
    # every closed form refuses the point by raising, not with a bare
    # ZeroDivisionError or a NaN
    with pytest.raises(error):
        _WALL_CHECKS[name](x)


@pytest.mark.parametrize(
    "check",
    [
        lambda x: theorem1_sides(CMParams(_A2, omega=1.0), _fn("x1 x2", 3), 0.1, x),
        lambda x: unconfined_map_check(_A2, _fn("x1", 3), x),
    ],
    ids=["theorem1_sides", "unconfined_map_check"],
)
def test_generator_sides_reject_a_point_near_a_wall(check):
    # 1e-12 off x1 = x2 is inside the hyperplane floor of the forward generator
    with pytest.raises(HyperplaneError, match="within"):
        check((1.0, 1.0 + 1e-12, 0.5))


def test_identity_report_merge_and_json():
    def pair(res):
        return SideBySide(lhs=1.0 + res, rhs=1.0)

    report = report_from_samples(
        "theorem1", "A2", {"omega": 1.0}, [((0.0,), pair(1e-12)), ((1.0,), pair(3e-11))]
    )
    assert report.points == 2
    assert report.max_abs_residual == pytest.approx(3e-11)
    assert report.worst_point == (1.0,)
    data = json.loads(report.to_json())
    assert data == report.as_dict()
    assert data["identity"] == "theorem1"
    assert data["points"] == 2
    # serialization is canonical: repeated calls are byte-identical
    assert report.to_json() == report.to_json()
    assert list(data) == sorted(data)


def test_identity_report_keeps_a_nan_residual():
    # every comparison with NaN is false, so a plain max-fold skips it
    good = SideBySide(lhs=1.0 + 1e-12, rhs=1.0)
    bad = SideBySide(lhs=math.nan, rhs=1.0)
    report = report_from_samples("theorem1", "A2", {}, [((0.0,), good), ((1.0,), bad)])
    assert not math.isfinite(report.max_rel_residual)
    assert not math.isfinite(report.max_abs_residual)
    assert report.worst_point == (1.0,)


def test_identity_report_of_exact_sides_is_written_as_floats():
    # lemma 2 gives Fraction sides at a rational point; the report folds
    # their residuals as floats, so it serializes
    system = build_root_system("B", 2, (1, 2))
    samples = [(x, lemma2_check(system, x)) for x in (sample_generic_point(system, seed=s) for s in range(3))]
    report = report_from_samples("lemma2", "B2", {}, samples)
    assert type(report.max_abs_residual) is type(report.max_rel_residual) is float
    assert json.loads(report.to_json())["max_rel_residual"] == 0.0
