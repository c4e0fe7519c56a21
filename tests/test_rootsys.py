"""Root system construction, closure, orbits, sampling."""

import math
import random
from fractions import Fraction

import pytest

from dunkl_lab.errors import ExactModeError, InvalidRootError, SamplingError, UnsupportedFamilyError
from dunkl_lab.polyx import MultiPoly, compose_reflection
from dunkl_lab.rootsys import (
    build_root_system,
    chamber_vector,
    check_closure,
    compute_orbits,
    discriminant,
    dot,
    hyperplane_distance,
    make_system_from_vectors,
    natural_scale,
    positive_indices,
    reflect,
    sample_generic_point,
    sq_norm,
    weight,
)

FAMILIES = [
    ("A", 2, (1,)),
    ("A", 3, (Fraction(3, 2),)),
    ("B", 2, (1, 2)),
    ("B", 3, (Fraction(1, 2), Fraction(5, 3))),
    ("D", 4, (2,)),
    ("I2", 4, (1, 1)),
]


@pytest.mark.parametrize("family,rank,mults", FAMILIES)
def test_closure(family, rank, mults):
    system = build_root_system(family, rank, mults)
    result = check_closure(system)
    assert result, result.detail


@pytest.mark.parametrize(
    "family,rank,mults,count",
    [
        ("A", 2, (1,), 6),  # N(N-1) roots in R^N, N = rank + 1
        ("A", 3, (1,), 12),
        ("B", 2, (1, 1), 8),  # 2N short + 2N(N-1) long
        ("B", 3, (1, 1), 18),
        ("D", 4, (1,), 24),
        ("I2", 4, (1, 1), 8),
    ],
)
def test_root_counts(family, rank, mults, count):
    system = build_root_system(family, rank, mults)
    assert len(system.roots) == count
    assert len(system.positive) == count // 2


@pytest.mark.parametrize(
    "family,rank,mults,n_orbits",
    [
        ("A", 3, (1,), 1),
        ("B", 3, (1, 2), 2),
        ("B", 1, (1,), 1),
        ("D", 4, (1,), 1),
        ("I2", 4, (1, 2), 2),
    ],
)
def test_orbit_detection(family, rank, mults, n_orbits):
    system = build_root_system(family, rank, mults)
    labels = compute_orbits(system)
    assert len(set(labels)) == n_orbits
    # the recomputed partition must agree with the stored orbit tags
    for lab, root in zip(labels, system.roots):
        same = [r.orbit for r, l2 in zip(system.roots, labels) if l2 == lab]
        assert all(o == root.orbit for o in same)


def test_gamma_values():
    # A_{N-1} in R^N: gamma = k * N(N-1)/2
    a3 = build_root_system("A", 3, (Fraction(3, 2),))
    assert a3.gamma == Fraction(3, 2) * 6
    # B_N: gamma = N k1 + N(N-1) k2
    b2 = build_root_system("B", 2, (Fraction(1, 3), Fraction(2, 5)))
    assert b2.gamma == 2 * Fraction(1, 3) + 2 * Fraction(2, 5)
    d4 = build_root_system("D", 4, (2,))
    assert d4.gamma == 24


def test_chamber_vector_is_generic():
    for family, rank, mults in FAMILIES:
        system = build_root_system(family, rank, mults)
        c = chamber_vector(system.dimension)
        for i in system.positive:
            assert float(dot(system.roots[i].vector, c)) > 0


def test_reflection_involution():
    system = build_root_system("D", 4, (1,))
    x = (Fraction(1), Fraction(2), Fraction(-3), Fraction(5, 2))
    for r in system.roots:
        y = reflect(r, x)
        assert reflect(r, y) == tuple(x)
        assert reflect(r, r.vector) == tuple(-c for c in r.vector)


def test_i2_exact_only_square():
    sq = build_root_system("I2", 4, (1, 2))
    assert sq.is_exact
    with pytest.raises(ExactModeError):
        build_root_system("I2", 3, (1,))
    with pytest.raises(ExactModeError):
        build_root_system("I2", 6, (1, 1))
    hexagon = build_root_system("I2", 6, (1, 1), scale="normalized")
    assert not hexagon.is_exact
    assert check_closure(hexagon)
    assert len(hexagon.roots) == 12


def test_natural_scale_is_integer_wherever_the_system_has_one():
    for family, rank, mults in (("A", 3, (1,)), ("B", 2, (1, 2)), ("D", 4, (1,)), ("I2", 4, (1, 2))):
        assert natural_scale(family, rank) == "integer-representatives"
        assert build_root_system(family, rank, mults, natural_scale(family, rank)).is_exact
    for m in (3, 5, 6, 7, 8):
        mults = (1,) if m % 2 else (1, 2)
        assert natural_scale("I2", m) == "normalized"
        assert check_closure(build_root_system("I2", m, mults, natural_scale("I2", m)))


def test_i2_exact_roots_stay_fractions():
    # exact I2(4) computes like the exact A/B/D families: Fraction vectors and
    # norms, so its reflections never fall back to float division
    system = build_root_system("I2", 4, (1, 1))
    for r in system.roots:
        assert all(type(c) is Fraction for c in r.vector)
        assert type(r.sq_norm) is Fraction
    diag = system.roots[1]
    assert diag.vector == (1, 1)
    v = diag.vector
    matrix = tuple(tuple(int(i == j) - 2 * v[i] * v[j] / diag.sq_norm for j in range(2)) for i in range(2))
    assert matrix == ((0, -1), (-1, 0))
    assert all(type(c) is Fraction for row in matrix for c in row)
    image = reflect(diag, (1, 2))
    assert image == (-2, -1)
    assert all(type(c) is Fraction for c in image)


def test_normalized_scale_unit_roots():
    system = build_root_system("B", 3, (1.0, 0.5), scale="normalized")
    assert not system.is_exact
    for r in system.roots:
        assert math.isclose(float(r.sq_norm), 1.0, rel_tol=1e-12)


def test_bad_inputs():
    with pytest.raises(InvalidRootError):
        build_root_system("B", 2, (1,))  # two orbits, one multiplicity
    with pytest.raises(InvalidRootError):
        build_root_system("A", 2, (1, 1))
    with pytest.raises(InvalidRootError):
        build_root_system("A", 2, (-1,))
    with pytest.raises(UnsupportedFamilyError):
        build_root_system("Q", 2, (1,))
    with pytest.raises(UnsupportedFamilyError):
        build_root_system("I2", 2, (1, 1))


_I2_EXACT = (
    "I2(m) has irrational reflection matrices in the plane for m != 4; "
    "use normalized scale (or family A/B for the crystallographic cases)"
)


@pytest.mark.parametrize(
    "family,rank,mults,scale,error,message",
    [
        ("Q", 2, (1,), "integer-representatives", UnsupportedFamilyError, "unknown family 'Q'"),
        ("A", 2, (1,), "weird", UnsupportedFamilyError, "unknown scale 'weird'"),
        ("A", 0, (1,), "integer-representatives", UnsupportedFamilyError, "family A needs rank >= 1"),
        ("B", 0, (1,), "integer-representatives", UnsupportedFamilyError, "family B needs rank >= 1"),
        ("D", 1, (1,), "integer-representatives", UnsupportedFamilyError, "family D needs rank >= 2"),
        ("I2", 2, (1, 1), "normalized", UnsupportedFamilyError, "I2(m) needs m >= 3"),
        ("I2", 3, (1,), "integer-representatives", ExactModeError, _I2_EXACT),
        ("I2", 5, (1,), "integer-representatives", ExactModeError, _I2_EXACT),
        ("A", 2, (-1,), "integer-representatives", InvalidRootError, "multiplicities must be nonnegative"),
        ("A", 2, (-0.5,), "normalized", InvalidRootError, "multiplicities must be nonnegative"),
        ("B", 2, (1, Fraction(-1, 2)), "integer-representatives", InvalidRootError,
         "multiplicities must be nonnegative"),
        ("A", 2, (1, 1), "integer-representatives", InvalidRootError,
         "family A rank 2 has 1 orbit(s), got 2 multiplicities"),
        ("B", 1, (1, 1), "integer-representatives", InvalidRootError,
         "family B rank 1 has 1 orbit(s), got 2 multiplicities"),
        ("B", 2, (1,), "integer-representatives", InvalidRootError,
         "family B rank 2 has 2 orbit(s), got 1 multiplicities"),
        ("I2", 5, (1, 1), "normalized", InvalidRootError,
         "family I2 rank 5 has 1 orbit(s), got 2 multiplicities"),
        ("I2", 6, (1,), "normalized", InvalidRootError,
         "family I2 rank 6 has 2 orbit(s), got 1 multiplicities"),
    ],
)
def test_builder_rejections(family, rank, mults, scale, error, message):
    with pytest.raises(error) as info:
        build_root_system(family, rank, mults, scale=scale)
    assert type(info.value) is error
    assert str(info.value) == message


def test_closure_detects_broken_sets():
    # missing the reflection images of (1,1): not a root system
    broken = make_system_from_vectors([(1, 0), (-1, 0), (1, 1), (-1, -1)])
    assert not check_closure(broken)
    # non-reduced: (2,0) parallel to (1,0)
    doubled = make_system_from_vectors([(1, 0), (-1, 0), (2, 0), (-2, 0)])
    assert not check_closure(doubled)
    ok = make_system_from_vectors([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert check_closure(ok)


def test_custom_sets_reject_float_coordinates():
    with pytest.raises(ExactModeError):
        make_system_from_vectors([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    with pytest.raises(ExactModeError):
        make_system_from_vectors([(1, 0), (-1, 0), (0, 0.5), (0, -0.5)])


def test_closure_of_float_and_rational_custom_sets():
    # a missing negative
    assert not check_closure(make_system_from_vectors([(1, 0), (-1, 0), (0, 1)]))
    # rational coordinates are matched exactly after scaling to integers
    halves = make_system_from_vectors(
        [(Fraction(1, 2), 0), (Fraction(-1, 2), 0), (0, Fraction(1, 3)), (0, Fraction(-1, 3))]
    )
    assert check_closure(halves)


def _brute_force_table(system):
    """sigma_a(beta_b) by reflecting every root and scanning the root list:
    exact equality for exact systems, within 1e-12 otherwise."""
    tol = 1e-12
    table = []
    for a in system.roots:
        row = []
        for b in system.roots:
            image = reflect(a, b.vector)
            hits = [
                i
                for i, r in enumerate(system.roots)
                if (r.vector == image if system.is_exact
                    else all(abs(float(p) - float(q)) <= tol
                             for p, q in zip(r.vector, image)))
            ]
            assert len(hits) <= 1
            row.append(hits[0] if hits else -1)
        table.append(tuple(row))
    return tuple(table)


def _brute_force_orbits(table):
    labels = list(range(len(table)))
    changed = True
    while changed:
        changed = False
        for row in table:
            for b, image in enumerate(row):
                low = min(labels[b], labels[image])
                if labels[b] != low or labels[image] != low:
                    labels[b] = labels[image] = low
                    changed = True
    names = {}
    return tuple(names.setdefault(lab, len(names)) for lab in labels)


TABLE_CASES = (
    [("A", r, (1,), "integer-representatives") for r in range(1, 6)]
    + [("B", 1, (1,), "integer-representatives")]
    + [("B", r, (1, 2), "integer-representatives") for r in range(2, 6)]
    + [("D", r, (1,), "integer-representatives") for r in range(2, 6)]
    + [("I2", 4, (1, 2), "integer-representatives")]
    + [("I2", m, (1,) if m % 2 else (1, 2), "normalized") for m in range(3, 9)]
    + [("A", 3, (1.0,), "normalized"), ("B", 3, (1.0, 0.5), "normalized")]
)


@pytest.mark.parametrize("family,rank,mults,scale", TABLE_CASES)
def test_reflection_table_matches_brute_force(family, rank, mults, scale):
    system = build_root_system(family, rank, mults, scale=scale)
    table = _brute_force_table(system)
    assert system.reflection_table == table
    assert all(i >= 0 for row in table for i in row)
    assert check_closure(system)
    assert compute_orbits(system) == _brute_force_orbits(table)
    # the table survives multiplicity scaling and orbit rescaling
    assert system.with_multiplicity_scale(2).reflection_table == table
    if system.is_exact:
        # a custom copy of the same vectors derives its own table
        custom = make_system_from_vectors([r.vector for r in system.roots])
        assert custom.reflection_table == table
        assert check_closure(custom)
        stretched = system.rescale_orbit(system.roots[-1].orbit, Fraction(3))
        assert stretched.reflection_table == _brute_force_table(stretched)
        assert check_closure(stretched)


NORM_CASES = (
    [("A", r, (1,)) for r in range(1, 7)]
    + [("B", r, (1,) if r == 1 else (1, 2)) for r in range(1, 7)]
    + [("D", r, (1,)) for r in range(2, 7)]
    + [("I2", 4, (1, 2))]
)


def test_built_norms_and_positives_match_module_functions():
    """Family builds take norms and signs from integer vectors; they must
    equal what sq_norm and positive_indices give on the stored vectors, in
    value and in type."""
    for family, rank, mults in NORM_CASES:
        for scale in ("integer-representatives", "normalized"):
            system = build_root_system(family, rank, mults, scale=scale)
            case = (family, rank, scale)
            for r in system.roots:
                want = sq_norm(r.vector)
                assert r.sq_norm == want and type(r.sq_norm) is type(want), case
            want_pos = positive_indices(
                [r.vector for r in system.roots], chamber_vector(system.dimension)
            )
            assert system.positive == want_pos, case
            assert [type(i) for i in system.positive] == [type(i) for i in want_pos], case


def test_multiplicity_scale():
    system = build_root_system("B", 2, (Fraction(1, 2), Fraction(3, 2)))
    doubled = system.with_multiplicity_scale(2)
    assert doubled.gamma == 2 * system.gamma
    zeroed = system.with_multiplicity_scale(0)
    assert zeroed.gamma == 0
    assert [r.vector for r in zeroed.roots] == [r.vector for r in system.roots]
    with pytest.raises(ValueError):
        system.with_multiplicity_scale(-1)


def test_build_cache_keeps_scalar_types_distinct():
    exact = build_root_system("A", 2, (1,))
    approx = build_root_system("A", 2, (1.0,))
    assert isinstance(exact.multiplicities[0], Fraction)
    assert isinstance(approx.multiplicities[0], float)
    assert build_root_system("A", 2, (1,)) is exact


def test_build_cache_takes_ints_too_long_for_a_string():
    # the cache keys the multiplicity itself, which needs no decimal form
    big = build_root_system("A", 2, [10**5000])
    assert big.multiplicities == (Fraction(10**5000),)
    assert build_root_system("A", 2, [10**5000]) is big


@pytest.mark.parametrize("family,rank,mults", NORM_CASES)
def test_custom_copy_of_family_vectors_is_stored_like_the_family(family, rank, mults):
    system = build_root_system(family, rank, mults)
    ints = [tuple(int(c) for c in r.vector) for r in system.roots]
    assert all(type(c) is int for v in ints for c in v)
    custom = make_system_from_vectors(ints)
    for got, want in zip(custom.roots, system.roots, strict=True):
        assert got.vector == want.vector and got.sq_norm == want.sq_norm
        assert [type(c) for c in got.vector] == [type(c) for c in want.vector]
        assert type(got.sq_norm) is type(want.sq_norm) is Fraction
        assert got.support == want.support
        assert got.integer_support == want.integer_support
    assert custom.positive == system.positive
    assert custom.reflection_table == system.reflection_table


def test_reflect_on_an_int_custom_set_is_exact():
    vecs = [(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1)]
    ints = make_system_from_vectors(vecs)
    fracs = make_system_from_vectors([tuple(map(Fraction, v)) for v in vecs])
    for x in [(3, 1, 2), (Fraction(1, 3), 2, -5)]:
        for a, b in zip(ints.roots, fracs.roots):
            got, want = reflect(a, x), reflect(b, x)
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]
    assert reflect(ints.roots[0], (3, 1, 2)) == (1, 3, 2)
    assert [type(c) for c in reflect(ints.roots[0], (3, 1, 2))] == [Fraction, Fraction, int]
    # the closure detail prints the exact image, as the roots were given
    broken = make_system_from_vectors(vecs[:4])
    assert check_closure(broken).detail == (
        "reflect((1, -1, 0)) maps (0, 1, -1) to (1, 0, -1), not a root"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scales_and_margins_refuse_nan_and_infinity(bad):
    exact = build_root_system("B", 2, (1, 2))
    floats = build_root_system("B", 2, (1.0, 2.0), scale="normalized")
    calls = [
        ("min_distance", lambda: sample_generic_point(floats, 0, min_distance=bad)),
        ("min_distance", lambda: sample_generic_point(exact, 0, min_distance=bad)),
        ("multiplicity scale", lambda: exact.with_multiplicity_scale(bad)),
        ("multiplicity scale", lambda: floats.with_multiplicity_scale(bad)),
        ("root scale", lambda: exact.rescale_orbit(1, bad)),
        ("root scale", lambda: floats.rescale_orbit(1, bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value).startswith(name) and str(info.value).endswith(f"got {bad!r}")


def test_weight_and_discriminant():
    a2 = build_root_system("A", 2, (2,))
    x = (Fraction(0), Fraction(1), Fraction(3))
    # positive roots are e_j - e_i for j > i, so factors are 1-0, 3-0, 3-1
    assert discriminant(a2, x) == Fraction(6)
    # w_k over all roots doubles each positive factor
    assert weight(a2, x) == (1 * 3 * 2) ** (2 * 2)
    b1 = build_root_system("B", 1, (3,))
    assert weight(b1, (Fraction(2),)) == 2**6


def test_discriminant_alternates():
    system = build_root_system("A", 3, (1,))
    x = (Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(4))
    base = discriminant(system, x)
    for i in system.positive:
        assert discriminant(system, reflect(system.roots[i], x)) == -base


def test_sample_generic_point():
    system = build_root_system("B", 3, (1, 1))
    x = sample_generic_point(system, seed=7, min_distance=0.1)
    assert all(isinstance(c, Fraction) for c in x)
    assert hyperplane_distance(system, x) >= 0.1
    assert sample_generic_point(system, seed=7, min_distance=0.1) == x
    assert sample_generic_point(system, seed=8, min_distance=0.1) != x
    # an impossible margin must fail loudly, not spin forever
    with pytest.raises(SamplingError):
        sample_generic_point(system, seed=0, min_distance=50.0, max_tries=50)


def _loop_sample(system, seed, min_distance=0.05, max_tries=1000):
    # the reference: the margin tested in Fraction arithmetic on every draw
    if min_distance <= 0:
        raise ValueError("min_distance must be positive")
    rng = random.Random(seed)
    exact = system.is_exact
    d2 = Fraction(min_distance) ** 2 if exact else min_distance * min_distance
    q = 64
    for _ in range(max_tries):
        if exact:
            x = tuple(Fraction(rng.randint(-2 * q, 2 * q), q) for _ in range(system.dimension))
        else:
            x = tuple(rng.uniform(-2.0, 2.0) for _ in range(system.dimension))
        for i in system.positive:
            r = system.roots[i]
            dd = r.dot(x)
            if dd * dd < d2 * r.sq_norm:
                break
        else:
            return x
    raise SamplingError(
        f"no point with hyperplane margin {min_distance} found in {max_tries} draws"
    )


def _sample_outcome(sampler, *args, **kwargs):
    try:
        x = sampler(*args, **kwargs)
    except SamplingError as exc:
        return "SamplingError", str(exc)
    return x, tuple(type(c) for c in x)


_ORACLE_SYSTEMS = {
    **{f"A{n}": build_root_system("A", n, (1,)) for n in range(1, 6)},
    **{f"B{n}": build_root_system("B", n, (1, 2)) for n in range(2, 5)},
    "D4": build_root_system("D", 4, (1,)),
    # Fraction coordinates: the margin is scaled to integers root by root
    "custom": make_system_from_vectors(
        [(Fraction(1, 2), 0), (Fraction(-1, 2), 0), (0, Fraction(1, 2)), (0, Fraction(-1, 2)),
         (Fraction(2, 3), Fraction(2, 3)), (Fraction(-2, 3), Fraction(-2, 3)),
         (Fraction(2, 3), Fraction(-2, 3)), (Fraction(-2, 3), Fraction(2, 3))],
        [Fraction(3, 2)] * 4 + [1] * 4,
    ),
    "B3/3": build_root_system("B", 3, (1, 2)).rescale_orbit(1, Fraction(1, 3)),
}


@pytest.mark.parametrize("min_distance", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("name", list(_ORACLE_SYSTEMS))
def test_lattice_sampling_matches_the_fraction_loop(name, min_distance):
    system = _ORACLE_SYSTEMS[name]
    for seed in range(200):
        assert _sample_outcome(sample_generic_point, system, seed, min_distance) == _sample_outcome(
            _loop_sample, system, seed, min_distance
        ), seed


@pytest.mark.parametrize("name", ["A3", "custom", "B3/3"])
def test_lattice_sampling_fails_as_the_fraction_loop_does(name):
    system = _ORACLE_SYSTEMS[name]
    for seed, margin, tries in ((0, 50.0, 50), (3, 0.9, 7), (5, 1.2, 1)):
        new = _sample_outcome(sample_generic_point, system, seed, margin, tries)
        assert new == _sample_outcome(_loop_sample, system, seed, margin, tries)
    assert new[0] == "SamplingError"
    for margin in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            sample_generic_point(system, 0, margin)


def test_float_system_sampling():
    system = build_root_system("I2", 6, (1.0, 1.0), scale="normalized")
    x = sample_generic_point(system, seed=3, min_distance=0.05)
    assert all(isinstance(c, float) for c in x)
    assert hyperplane_distance(system, x) >= 0.05


SPARSE_DOT_CASES = (
    [("A", n, (1,), "integer-representatives") for n in range(1, 6)]
    + [("B", n, (1,) if n == 1 else (1, 2), "integer-representatives") for n in range(1, 6)]
    + [("D", n, (1,), "integer-representatives") for n in range(2, 6)]
    + [("I2", 4, (1, 2), "integer-representatives"), ("I2", 5, (1,), "normalized")]
)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("family,rank,mults,scale", SPARSE_DOT_CASES)
def test_root_dot_matches_full_dot(family, rank, mults, scale):
    system = build_root_system(family, rank, mults, scale=scale)
    rng = random.Random(f"{family}{rank}{scale}")
    n = system.dimension
    for _ in range(25):
        xq = tuple(Fraction(rng.randint(-200, 200), rng.randint(1, 64)) for _ in range(n))
        # signed zeros among the coordinates exercise the skipped +-0.0 terms
        xf = tuple(rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(n))
        for r in system.roots:
            assert r.dot(xq) == dot(r.vector, xq)
            assert _same_float(r.dot(xf), dot(r.vector, xf))
            if system.is_exact:
                assert isinstance(r.dot(xq), Fraction)
                c = 2 * dot(r.vector, xq) / sq_norm(r.vector)
                assert reflect(r, xq) == tuple(xi - c * ai for xi, ai in zip(xq, r.vector))


def _fraction_dot(v, x):
    return sum((Fraction(c) * xi for c, xi in zip(v, x)), Fraction(0))


@pytest.mark.parametrize(
    "system",
    [
        build_root_system("A", 3, (2,)),
        build_root_system("B", 3, (1, 3)),
        build_root_system("D", 4, (1,)),
        build_root_system("I2", 4, (2, 1)),
        # non-integral coordinates keep Fraction coefficients on the lattice
        make_system_from_vectors(
            [tuple(Fraction(c, 2) for c in r.vector) for r in build_root_system("B", 2, (1, 1)).roots],
            multiplicities=2,
        ),
    ],
    ids=["A3", "B3", "D4", "I2(4)", "half-B2"],
)
def test_lattice_weight_and_discriminant_match_fraction_products(system):
    rng = random.Random(system.family + str(system.rank))
    for _ in range(10):
        x = tuple(
            Fraction(rng.randint(-99, 99), rng.choice((1, 3, 8, 35, 64)))
            for _ in range(system.dimension)
        )
        want_w = Fraction(1)
        for r in system.roots:
            want_w *= abs(_fraction_dot(r.vector, x)) ** int(r.multiplicity)
        want_d = Fraction(1)
        for r in system.positive_roots():
            want_d *= _fraction_dot(r.vector, x)
        got_w, got_d = weight(system, x), discriminant(system, x)
        assert got_w == want_w and isinstance(got_w, Fraction)
        assert got_d == want_d and isinstance(got_d, Fraction)
    ints = tuple(range(1, system.dimension + 1))
    assert weight(system, ints) == weight(system, tuple(map(Fraction, ints)))
    assert discriminant(system, ints) == discriminant(system, tuple(map(Fraction, ints)))


G2_VECTORS = [
    v
    for a, b, c in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    for v in ((a, b, c), (-a, -b, -c))
]
CUSTOM_SETS = {
    "G2": G2_VECTORS,
    "half-B2": [
        tuple(Fraction(c, 2) for c in r.vector) for r in build_root_system("B", 2, (1, 1)).roots
    ],
    "slanted": [(1, 3), (-1, -3), (3, -1), (-3, 1)],
}


def _matrix_scan(root):
    """(perm, signs) read off the dense matrix I - 2 a a^T / |a|^2 of the
    root's vector, or None when some row is not one signed unit."""
    v = [Fraction(c) for c in root.vector]
    nrm = sum(c * c for c in v)
    perm, signs = [], []
    for i in range(len(v)):
        row = [int(i == j) - 2 * v[i] * v[j] / nrm for j in range(len(v))]
        nz = [(j, c) for j, c in enumerate(row) if c != 0]
        if len(nz) != 1 or nz[0][1] not in (1, -1):
            return None
        perm.append(nz[0][0])
        signs.append(int(nz[0][1]))
    return tuple(perm), tuple(signs)


@pytest.mark.parametrize(
    "system",
    [
        build_root_system(family, rank, mults, scale=scale)
        for family, rank, mults, scale in TABLE_CASES
        if scale == "integer-representatives"
    ]
    + [make_system_from_vectors(vecs) for vecs in CUSTOM_SETS.values()],
    ids=[f"{f}{r}" for f, r, _, s in TABLE_CASES if s == "integer-representatives"]
    + list(CUSTOM_SETS),
)
def test_signed_permutation_matches_matrix_scan(system):
    # compose_reflection sends each variable (and so each monomial) to one
    # signed variable exactly on the roots whose dense matrix is a signed
    # permutation, and to the one that matrix names
    n = system.dimension
    xs = [MultiPoly.variable(n, i) for i in range(n)]
    for r in system.roots:
        images = [compose_reflection(x, r) for x in xs]
        scan = _matrix_scan(r)
        assert all(len(q.terms) == 1 for q in images) == (scan is not None), r.vector
        if scan is not None:
            perm, signs = scan
            assert images == [signs[i] * xs[perm[i]] for i in range(n)], r.vector


@pytest.mark.parametrize("family,rank,mults,scale", TABLE_CASES)
def test_float_reflect_matches_dense_formula(family, rank, mults, scale):
    system = build_root_system(family, rank, mults, scale=scale)
    rng = random.Random(f"{family}{rank}{scale}")
    for _ in range(10):
        x = tuple(rng.choice((-1, 1)) * rng.uniform(1e-3, 3) for _ in range(system.dimension))
        for r in system.roots:
            c = 2 * r.dot(x) / r.fsq_norm
            want = tuple(xi - c * float(ai) for xi, ai in zip(x, r.vector))
            got = reflect(r, x)
            assert all(_same_float(g, w) for g, w in zip(got, want)), (r.vector, x)


def test_float_reflect_keeps_negative_zero_off_support():
    system = build_root_system("A", 2, (1,))
    x = (1.0, 2.0, -0.0)
    for r in system.roots:
        support = {i for i, _ in r.support}
        y = reflect(r, x)
        for i in set(range(3)) - support:
            assert _same_float(y[i], x[i]), (r.vector, y)
