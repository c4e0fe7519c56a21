"""Diffusion scaling map, gauge identities, and the main side-by-side checks."""

import json
import math
from fractions import Fraction

import pytest

from dunkl_lab.cm import SideBySide
from dunkl_lab.dunkl import PolyFunction
from dunkl_lab.errors import DimensionError
from dunkl_lab.polyx import parse_poly
from dunkl_lab.rootsys import build_root_system, sample_generic_point
from dunkl_lab.transform import (
    TestFunction,
    TransformParams,
    corollary1_residual,
    corollary1_sides,
    inverse_substitute,
    lemma2_check,
    report_from_samples,
    similarity_identities_check,
    substitute,
    theorem1_residual,
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
    params = TransformParams(build_root_system("B", 2, (0.7, 1.4), scale="normalized"), omega=1.1)
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


def test_triple_sum_vanishes():
    for n, seed in ((3, 0), (4, 1), (5, 2)):
        system = build_root_system("A", n - 1, (1,))
        x = sample_generic_point(system, seed=seed)
        assert triple_sum_check_a(x) == 0


def test_similarity_identities():
    params = TransformParams(build_root_system("B", 2, (1, 2)), omega=1.3)
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
    ],
)
def test_theorem1_identity(family, rank, mults, omega):
    system = build_root_system(family, rank, mults)
    params = TransformParams(system, omega=omega)
    n = system.dimension
    fn = _fn("x1^2 + x2 x1 - 2 x2", n, lam=-0.3)
    worst = 0.0
    for seed in range(6):
        zeta = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
        worst = max(worst, theorem1_residual(params, fn, 0.21, zeta))
    assert worst < 1e-9


def test_theorem1_root_scale_invariance():
    # the identity must not depend on the root representative length
    base = build_root_system("B", 2, (1, Fraction(1, 2)))
    stretched = base.rescale_orbit(0, Fraction(3))
    fn = _fn("x1^3 - x2", 2, lam=0.2)
    zeta = (0.77, 1.91)
    a = theorem1_sides(TransformParams(base, omega=1.2), fn, 0.1, zeta)
    b = theorem1_sides(TransformParams(stretched, omega=1.2), fn, 0.1, zeta)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_corollary1_matches_general_path():
    # the pair-sum specialization lives at omega = k
    for n, k in ((2, 0.5), (3, 1.0), (4, 2.5)):
        system = build_root_system("A", n - 1, [k])
        params = TransformParams(system, omega=k)
        fn = _fn("x1 x2 - x1", n, lam=0.6)
        for seed in range(4):
            zeta = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
            a = corollary1_sides(n, k, fn, 0.33, zeta)
            b = theorem1_sides(params, fn, 0.33, zeta)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=1e-12)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-12, abs=1e-12)
            assert corollary1_residual(n, k, fn, 0.33, zeta) < 1e-9


def test_corollary1_rejects_mismatched_sizes():
    with pytest.raises(DimensionError):
        corollary1_sides(3, 1.0, _fn("x1 + x2", 2), 0.0, (1.0, 2.0))
    with pytest.raises(DimensionError):
        corollary1_sides(2, 1.0, _fn("x1 + x2", 2), 0.0, (1.0, 2.0, 3.0))


def test_unconfined_map():
    for family, rank, mults in [("A", 2, (0.8,)), ("B", 2, (1.2, 0.6)), ("D", 4, (1.5,))]:
        system = build_root_system(family, rank, mults)
        f = PolyFunction(parse_poly("x1^2 x2 - x2", nvars=system.dimension))
        for seed in range(4):
            x = tuple(float(c) for c in sample_generic_point(system, seed=seed, min_distance=0.15))
            pair = unconfined_map_check(system, f, x)
            assert abs(pair.residual) < 1e-9 * pair.scale


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
    assert data["identity"] == "theorem1"
    assert data["points"] == 2
    # serialization is canonical: repeated calls are byte-identical
    assert report.to_json() == report.to_json()
    assert list(data) == sorted(data)
