"""Root system construction, closure, orbits, sampling."""

import math
import random
from fractions import Fraction

import pytest

from dunkl_lab.errors import ExactModeError, InvalidRootError, SamplingError, UnsupportedFamilyError
from dunkl_lab.rootsys import (
    build_root_system,
    chamber_vector,
    check_closure,
    compute_orbits,
    discriminant,
    dot,
    hyperplane_distance,
    make_system_from_vectors,
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


def test_reflection_matrices_match_reflect():
    system = build_root_system("B", 2, (1, 1))
    x = (Fraction(3), Fraction(-7))
    for r in system.roots:
        mat = r.reflection_matrix
        via_mat = tuple(sum(row[j] * x[j] for j in range(2)) for row in mat)
        assert via_mat == reflect(r, x)


def test_signed_permutations_cover_integer_families():
    for family, rank, mults in [("A", 3, (1,)), ("B", 3, (1, 1)), ("D", 4, (1,))]:
        system = build_root_system(family, rank, mults)
        x = tuple(Fraction(i + 1, 3) for i in range(system.dimension))
        for r in system.roots:
            sp = r.signed_permutation
            assert sp is not None
            perm, signs = sp
            image = tuple(signs[j] * x[perm[j]] for j in range(len(x)))
            assert image == reflect(r, x)


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
                assert reflect(r, xq) == reflect(r.vector, xq)


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
