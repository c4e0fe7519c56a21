"""Finite reflection groups through their root systems.

A root system here is a finite set R of nonzero vectors in R^N, closed under
the reflections it generates and containing -alpha (but no other multiple)
for each alpha in R.  The reflection in the hyperplane orthogonal to alpha is

    sigma_alpha(x) = x - 2 (alpha . x / alpha . alpha) alpha.

Each root carries a multiplicity k(alpha) >= 0, constant on orbits of the
group action.  The derived quantities used throughout the package are

    gamma        = sum of k(alpha) over a positive subsystem R+,
    weight       w_k(x) = prod over ALL of R of |alpha . x|^{k(alpha)},
    discriminant a_R(x) = prod over R+ of (alpha . x),

where R+ is carved out by a fixed generic chamber vector.  Note the weight
convention runs over the full set R, so each +/- pair contributes its factor
twice; for type A this makes w_k the squared Vandermonde raised to k.

Supported families and coordinate scalings:

* A_{N-1} in R^N: roots e_i - e_j (i != j), one orbit.
* B_N: short roots +/- e_i and long roots +/- e_i +/- e_j, two orbits with
  independent multiplicities (short first).  Rank 1 degenerates to {+/- e_1}
  with a single multiplicity.
* D_N (N >= 2): roots +/- e_i +/- e_j, a single multiplicity.
* I2(m) (m >= 3): the dihedral system of 2m unit roots in the plane, two
  multiplicities for even m (orbit of angle 0 first), one for odd m.

``integer-representatives`` scale stores the integer root vectors above as
exact rationals, so reflections, weights with integer multiplicities and
discriminants evaluate without rounding.  ``normalized`` scale stores
unit-norm float roots.  All downstream generator formulas are invariant
under rescaling roots, so the scalings are interchangeable for identity
checks.  I2(m) is float-only except m = 4, whose reflection matrices are
rational; for m in {3, 6} no rational 2-dimensional model exists (the
reflection matrices contain sin/cos of pi/3), so exact mode rejects them.

Every system carries a reflection index table: entry [a][b] is the index of
sigma_a(beta_b) in the root list.  Closure, reducedness and orbits are read
from it.  A system of one of the four families reads its table from its
family and rank: one table, from the integer representatives for A/B/D and
the dihedral rule for I2, serves both scalings and every system derived by
rescaling multiplicities or an orbit.  Custom sets always carry family
"custom" and are exact-only: make_system_from_vectors rejects float
coordinates, and the table of a custom set is computed in integers after
scaling its vectors by their common denominator.

Both builders hand their root vectors to one assembly, ``_assemble``, which
picks the positive subsystem and, on the integer scale, stores every
coordinate and every |alpha|^2 as a Fraction.  A custom set is thus stored
like a family system whether its vectors came as ints or Fractions.

Exact work on a rational point x runs on the integer lattice X = q x, q the
common denominator of x, with each rational root written as alpha = A / c
for an integer vector A (``Root.integer_support``).  Sampling, lemma 1 and
lemma 2 read it: ``sample_generic_point`` tests its margin on X = 64 x in
ints and builds Fractions only for the point it returns,
``suites._alternation_gap`` reflects on the lattice, and
``lattice_pair_products`` feeds the lattice route of
``transform.lemma2_check``.  ``weight`` and ``discriminant`` stay plain
products of Fraction dots, the reference lemma 1's lattice gap is tested
against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence, Union

from .errors import (
    DimensionError,
    ExactModeError,
    InvalidRootError,
    SamplingError,
    UnsupportedFamilyError,
)

Scalar = Union[Fraction, float]
Vector = tuple[Scalar, ...]

SCALE_INTEGER = "integer-representatives"
SCALE_NORMALIZED = "normalized"
# the supported families and their least rank (the dihedral order m for I2)
FAMILIES = {"A": 1, "B": 1, "D": 2, "I2": 3}


def dot(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    if len(x) != len(y):
        raise DimensionError(f"dot of length {len(x)} with length {len(y)}")
    return sum(a * b for a, b in zip(x, y))


def sq_norm(x: Sequence[Scalar]) -> Scalar:
    return sum(a * a for a in x)


@dataclass(frozen=True)
class Root:
    """A single root: vector, its squared norm and its multiplicity."""

    vector: Vector
    sq_norm: Scalar
    multiplicity: Scalar
    orbit: int = 0

    def __post_init__(self):
        if all(c == 0 for c in self.vector):
            raise InvalidRootError("zero vector is not a root")

    @cached_property
    def fsq_norm(self) -> float:
        return float(self.sq_norm)

    @cached_property
    def fmultiplicity(self) -> float:
        return float(self.multiplicity)

    @cached_property
    def fweight(self) -> float:
        """k |alpha|^2 rounded once, as Fraction * Fraction then * float rounds it."""
        return float(self.multiplicity * self.sq_norm)

    @cached_property
    def support(self) -> tuple[tuple[int, Scalar], ...]:
        """(i, c) for each nonzero coordinate, with c an int when it is
        integral.  Every reflection in the package reads it."""
        return tuple(
            (i, int(c) if isinstance(c, Fraction) and c.denominator == 1 else c)
            for i, c in enumerate(self.vector)
            if c
        )

    @cached_property
    def integer_support(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(c, ((i, a), ...)) with alpha = A / c for the integer vector A over
        the support; exact roots only.  The lattice routes read A . X."""
        c = math.lcm(*(Fraction(a).denominator for _, a in self.support))
        return c, tuple((i, int(a * c)) for i, a in self.support)

    def dot(self, x: Sequence[Scalar]) -> Scalar:
        """alpha . x summed over the support.

        Equal to dot(vector, x) on rational points, and bit for bit on float
        points: the skipped terms are +-0.0, which leave a float sum as it is,
        and an integral c times x gives float(c) * x as a Fraction would.
        """
        if len(x) != len(self.vector):
            raise DimensionError(f"dot of length {len(self.vector)} with length {len(x)}")
        acc = 0
        for i, c in self.support:
            acc = acc + c * x[i]
        return acc


def reflect(alpha: Root, x: Sequence[Scalar]) -> Vector:
    """Reflect x in the hyperplane orthogonal to the root alpha.

    Exact inputs give an exact result.  Raises DimensionError on a length
    mismatch.  Only the coordinates on the root's support move, so the others
    keep their bits (a -0.0 stays -0.0).
    """
    return _reflect(alpha, x, alpha.dot(x))


def _reflect(alpha: Root, x: Sequence[Scalar], d: Scalar) -> Vector:
    """``reflect`` with d = alpha . x already known."""
    # a float dot over the float norm: the bits of the Fraction/float mix
    c = 2 * d / (alpha.fsq_norm if type(d) is float else alpha.sq_norm)
    y = list(x)
    for i, a in alpha.support:
        y[i] = y[i] - c * a
    return tuple(y)


class ClosureResult:
    """Boolean verdict of a closure/reducedness check plus a diagnostic."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str = ""):
        self.ok = ok
        self.detail = detail

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"ClosureResult(ok={self.ok}, detail={self.detail!r})"


@dataclass(frozen=True)
class RootSystem:
    """A root system with multiplicities and a chosen positive subsystem.

    ``roots`` lists the full set R; ``positive`` holds indices into it.
    Instances are immutable; derived data (the reflection table, gamma,
    pair products) is computed lazily and cached.
    """

    dimension: int
    roots: tuple[Root, ...]
    positive: tuple[int, ...]
    family: str
    rank: int
    multiplicities: tuple[Scalar, ...]
    scale: str

    # -- basic views ---------------------------------------------------

    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(self.roots[i] for i in self.positive)

    @cached_property
    def gamma(self) -> Scalar:
        """Sum of multiplicities over the positive subsystem."""
        return sum(self.roots[i].multiplicity for i in self.positive)

    @cached_property
    def is_exact(self) -> bool:
        """True when root coordinates are stored as exact rationals."""
        return all(
            isinstance(c, (Fraction, int)) for r in self.roots for c in r.vector
        )

    @cached_property
    def live_positive(self) -> tuple[Root, ...]:
        """The positive roots with nonzero multiplicity."""
        return tuple(r for r in self.positive_roots() if r.multiplicity)

    @cached_property
    def pair_products(self) -> tuple[tuple[tuple[Scalar, ...], ...], tuple[Scalar, ...]]:
        """Over ``live_positive``: k(a) k(b) (a . b) for every pair and
        k(a)^2 |a|^2 for every root, in the arithmetic of the system."""
        live = self.live_positive
        pairs = tuple(
            tuple(a.multiplicity * b.multiplicity * dot(a.vector, b.vector) for b in live)
            for a in live
        )
        return pairs, tuple(a.multiplicity * a.multiplicity * a.sq_norm for a in live)

    @cached_property
    def float_pair_products(self) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """``pair_products`` as floats; q / y for a float y divides float(q) by y."""
        pairs, diag = self.pair_products
        return tuple(tuple(map(float, row)) for row in pairs), tuple(map(float, diag))

    @cached_property
    def lattice_pair_products(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
        """``pair_products`` in integers for the lattice route of lemma 2:
        (m, pairs, diag) with k(a) k(b) (a . b) c_a c_b = pairs[a][b] / m and
        k(a)^2 |a|^2 c_a^2 = diag[a] / m, where alpha_a = A_a / c_a
        (``Root.integer_support``); None unless the roots and multiplicities
        are all rational."""
        live = self.live_positive
        if not self.is_exact or any(isinstance(r.multiplicity, float) for r in live):
            return None
        pairs, diag = self.pair_products
        cs = [r.integer_support[0] for r in live]
        scaled = [[Fraction(v) * ca * cb for v, cb in zip(row, cs)] for row, ca in zip(pairs, cs)]
        scaled_diag = [Fraction(v) * c * c for v, c in zip(diag, cs)]
        m = math.lcm(*(v.denominator for row in scaled for v in row),
                     *(v.denominator for v in scaled_diag))
        return (
            m,
            tuple(tuple(int(v * m) for v in row) for row in scaled),
            tuple(int(v * m) for v in scaled_diag),
        )

    @cached_property
    def integer_multiplicities(self) -> tuple[int, ...] | None:
        """Each root's multiplicity as an int when all are integral rationals,
        else None; the weight is exact exactly in that case."""
        if all(
            isinstance(r.multiplicity, (int, Fraction))
            and Fraction(r.multiplicity).denominator == 1
            for r in self.roots
        ):
            return tuple(int(r.multiplicity) for r in self.roots)
        return None

    # -- reflections ----------------------------------------------------

    @cached_property
    def reflection_table(self) -> tuple[tuple[int, ...], ...]:
        """Entry [a][b] is the index of sigma_a(beta_b) in ``roots``, or -1
        when that image is not a root.  Built once per system: the four
        families read the table shared by both scalings, and custom sets
        compute theirs in integers."""
        if self.family in FAMILIES:
            return _family_table(self.family, self.rank)
        return _integer_table(_integer_vectors(self.roots))

    @cached_property
    def closure(self) -> ClosureResult:
        """The verdict of check_closure, computed once per system."""
        return check_closure(self)

    # -- derived systems -------------------------------------------------

    def with_multiplicity_scale(self, c: Scalar) -> "RootSystem":
        """Same geometry with every multiplicity scaled by c >= 0."""
        _check_range("multiplicity scale", c, positive=False)
        new_roots = tuple(replace(r, multiplicity=r.multiplicity * c) for r in self.roots)
        new_mults = tuple(m * c for m in self.multiplicities)
        return replace(self, roots=new_roots, multiplicities=new_mults)

    def rescale_orbit(self, orbit: int, c: Scalar) -> "RootSystem":
        """Scale the vectors of one orbit by c > 0 (multiplicities kept)."""
        _check_range("root scale", c, positive=True)
        new_roots = tuple(
            Root(
                vector=tuple(c * v for v in r.vector),
                sq_norm=r.sq_norm * c * c,
                multiplicity=r.multiplicity,
                orbit=r.orbit,
            )
            if r.orbit == orbit
            else r
            for r in self.roots
        )
        return replace(self, roots=new_roots)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def enc(c: Scalar):
            return str(c) if isinstance(c, Fraction) else c

        return {
            "family": self.family,
            "rank": self.rank,
            "multiplicities": [enc(m) for m in self.multiplicities],
            "mode": self.scale,
            "roots": [[enc(c) for c in r.vector] for r in self.roots],
            "positive": list(self.positive),
        }


def _check_range(name: str, value: Scalar, positive: bool) -> None:
    """Refuse a scale or margin below its range, NaN or infinite."""
    if not (value > 0 if positive else value >= 0) or value == math.inf:
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


# ---------------------------------------------------------------------------
# construction


def chamber_vector(dimension: int) -> tuple[int, ...]:
    """The generic chamber vector (1, 2, 4, ..., 2^(N-1))."""
    return tuple(2**i for i in range(dimension))


def positive_indices(
    vectors: Sequence[Vector], chamber: Sequence[Scalar]
) -> tuple[int, ...]:
    """Indices of vectors on the positive side of the chamber vector."""
    out = []
    for i, v in enumerate(vectors):
        d = dot(v, chamber)
        if d == 0:
            raise InvalidRootError(
                f"chamber vector {tuple(chamber)} is not generic: root {v} is orthogonal"
            )
        if d > 0:
            out.append(i)
    return tuple(out)


def natural_scale(family: str, rank: int) -> str:
    """Integer representatives where the system has them: all but I2(m != 4)."""
    return SCALE_NORMALIZED if family == "I2" and rank != 4 else SCALE_INTEGER


def _family_vectors(
    family: str, rank: int, exact: bool
) -> tuple[list[tuple[Scalar, ...]], list[int]]:
    """Root vectors (the integer representatives when ``exact``, else unit
    floats) and orbit labels in the order of build_root_system's
    multiplicities."""
    if family not in FAMILIES:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    if rank < FAMILIES[family]:
        raise UnsupportedFamilyError(
            "I2(m) needs m >= 3" if family == "I2"
            else f"family {family} needs rank >= {FAMILIES[family]}"
        )
    if family == "I2":
        if not exact:
            # root ell at angle pi ell / m; for even m the root lines split
            # into two orbits by the parity of ell, odd m is one orbit
            thetas = [math.pi * ell / rank for ell in range(2 * rank)]
            orbits = [ell % 2 if rank % 2 == 0 else 0 for ell in range(2 * rank)]
            return [(math.cos(t), math.sin(t)) for t in thetas], orbits
        if rank != 4:
            raise ExactModeError(
                "I2(m) has irrational reflection matrices in the plane for m != 4; "
                "use normalized scale (or family A/B for the crystallographic cases)"
            )
        square = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        return square, [0, 1] * 4
    n = rank + 1 if family == "A" else rank
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    if family == "A":
        vecs = [
            tuple(a - b for a, b in zip(e[i], e[j]))
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        orbits = [0] * len(vecs)
    else:
        # B's short roots +-e_i, then the +-e_i +-e_j of B (second orbit) and D
        short = []
        if family == "B":
            short = [tuple(s * a for a in e[i]) for i in range(n) for s in (1, -1)]
        long_ = [
            tuple(si * a + sj * b for a, b in zip(e[i], e[j]))
            for i in range(n)
            for j in range(i + 1, n)
            for si in (1, -1)
            for sj in (1, -1)
        ]
        vecs = short + long_
        orbits = [0] * len(short) + [int(family == "B")] * len(long_)
    if not exact:
        norms = [math.sqrt(sq_norm(v)) for v in vecs]
        vecs = [tuple(c / nrm for c in v) for v, nrm in zip(vecs, norms)]
    return vecs, orbits


def _assemble(
    vectors: Sequence[Vector], root_mults: Sequence[Scalar], orbits: Sequence[int],
    family: str, rank: int, multiplicities: Sequence[Scalar], scale: str,
) -> RootSystem:
    """The one construction step of both builders: one Root per vector, with
    its multiplicity and orbit, and the positive subsystem.  On the integer
    scale every coordinate and every |alpha|^2 is stored as a Fraction (the
    norm summed in ints for an int vector); the normalized scale is floats."""
    cast = Fraction if scale == SCALE_INTEGER else float
    roots = tuple(
        Root(vector=tuple(map(cast, v)), sq_norm=cast(sq_norm(v)), multiplicity=m, orbit=orb)
        for v, m, orb in zip(vectors, root_mults, orbits)
    )
    dimension = len(vectors[0])
    positive = positive_indices(vectors, chamber_vector(dimension))
    return RootSystem(dimension, roots, positive, family, rank, tuple(multiplicities), scale)


def build_root_system(
    family: str,
    rank: int,
    multiplicities: Sequence[Scalar],
    scale: str = SCALE_INTEGER,
) -> RootSystem:
    """Construct a root system of the given family.

    ``rank`` is the Coxeter rank for A/B/D and the dihedral order m for I2.
    ``multiplicities``: one value for A/D (and B_1, I2 with odd m), two for
    B_N (short orbit first) and I2 with even m (orbit of e_1 first).
    ``scale`` selects integer-representative (exact) or normalized (float,
    unit-norm) root vectors.

    Systems are immutable, so repeated builds with equal arguments return
    one shared, already-validated instance.  Each multiplicity is keyed with
    its type, as 1, 1.0 and Fraction(1) are equal but build different systems.
    """
    return _build_cached(family, rank, tuple((type(m), m) for m in multiplicities), scale)


@lru_cache(maxsize=128)
def _build_cached(family, rank, key, scale) -> RootSystem:
    if scale not in (SCALE_INTEGER, SCALE_NORMALIZED):
        raise UnsupportedFamilyError(f"unknown scale {scale!r}")
    mults = [m for _, m in key]
    if any(m < 0 for m in mults):
        raise InvalidRootError("multiplicities must be nonnegative")
    exact = scale == SCALE_INTEGER
    vecs, orbits = _family_vectors(family, rank, exact)
    n_orbits = max(orbits) + 1
    if len(mults) != n_orbits:
        raise InvalidRootError(
            f"family {family} rank {rank} has {n_orbits} orbit(s), "
            f"got {len(mults)} multiplicities"
        )
    # float multiplicities stay floats on the integer scale
    if exact:
        mults = [m if isinstance(m, float) else Fraction(m) for m in mults]
    else:
        mults = [float(m) for m in mults]
    system = _assemble(vecs, [mults[orb] for orb in orbits], orbits, family, rank, mults, scale)
    if not system.closure:
        raise InvalidRootError(f"built system failed closure: {system.closure.detail}")
    return system


def make_system_from_vectors(
    vectors: Sequence[Sequence[Scalar]],
    multiplicities: Union[Scalar, Sequence[Scalar]] = 1,
) -> RootSystem:
    """Wrap exact (int or Fraction) vectors as a "custom" RootSystem, unvalidated.

    Intended for tests and counterexamples; run check_closure yourself.
    A single multiplicity is broadcast to every vector.  Float coordinates
    raise ExactModeError: the float families come from build_root_system.
    The roots are stored as a family system's are, in Fractions.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise InvalidRootError("need at least one vector")
    if not all(isinstance(c, (int, Fraction)) for v in vecs for c in v):
        raise ExactModeError("custom root sets need int or Fraction coordinates")
    if isinstance(multiplicities, (int, float, Fraction)):
        ms: list[Scalar] = [multiplicities] * len(vecs)
    else:
        ms = list(multiplicities)
        if len(ms) != len(vecs):
            raise InvalidRootError("one multiplicity per vector required")
    return _assemble(
        vecs, ms, [0] * len(vecs), "custom", len(vecs[0]), dict.fromkeys(ms), SCALE_INTEGER
    )


# ---------------------------------------------------------------------------
# verification


@lru_cache(maxsize=128)
def _family_table(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Reflection index table of a family, shared by both scalings.

    I2(m) root l sits at angle pi l / m, so sigma_j sends root l to root
    (2j + m - l) mod 2m.  A/B/D tables come from the integer representatives,
    whose index order the normalized scale shares.
    """
    if family == "I2":
        m2 = 2 * rank
        return tuple(
            tuple((2 * j + rank - ell) % m2 for ell in range(m2)) for j in range(m2)
        )
    return _integer_table(_family_vectors(family, rank, exact=True)[0])


def _integer_vectors(roots: Sequence[Root]) -> list[tuple[int, ...]]:
    """Exact root vectors scaled by their common denominator to integers."""
    den = math.lcm(*(Fraction(c).denominator for r in roots for c in r.vector))
    return [tuple(int(c * den) for c in r.vector) for r in roots]


def _integer_table(vectors: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Reflection index table of integer vectors, in integer arithmetic.

    sigma_a(b) = b - (2 a.b / a.a) a is b itself unless b shares a nonzero
    coordinate with a, and differs from b only on the support of a (at most
    two coordinates for A/B/D).
    """
    index = {v: i for i, v in enumerate(vectors)}
    touching = [[] for _ in vectors[0]]
    for j, b in enumerate(vectors):
        for i, c in enumerate(b):
            if c:
                touching[i].append(j)
    table = []
    for a in vectors:
        support = [(i, c) for i, c in enumerate(a) if c]
        norm = sum(c * c for _, c in support)
        row = list(range(len(vectors)))
        for j in {j for i, _ in support for j in touching[i]}:
            b = vectors[j]
            twice = 2 * sum(c * b[i] for i, c in support)
            if not twice:
                continue
            image = list(b)
            for i, c in support:
                q, rem = divmod(twice * c, norm)
                if rem:
                    image = None
                    break
                image[i] -= q
            row[j] = -1 if image is None else index.get(tuple(image), -1)
        table.append(tuple(row))
    return tuple(table)


def _non_reduced_pair(system: RootSystem) -> tuple[int, int] | None:
    """Two parallel roots a, b with b != -a, or None.

    sigma_a(b) = -b exactly when b is parallel to a, so the table names the
    candidates.  Cauchy-Schwarz (a.b)^2 = |a|^2 |b|^2, an equality exactly
    for parallel vectors, confirms them in integers.
    """
    table = system.reflection_table
    negs = [row[b] for b, row in enumerate(table)]
    candidates = [
        (a, b)
        for a, row in enumerate(table)
        for b in range(a + 1, len(row))
        if row[b] == negs[b] and b != negs[a]
    ]
    if not candidates:
        return None
    vecs = _integer_vectors(system.roots)
    for a, b in candidates:
        ab = sum(p * q for p, q in zip(vecs[a], vecs[b]))
        if ab * ab == sum(p * p for p in vecs[a]) * sum(q * q for q in vecs[b]):
            return a, b
    return None


def check_closure(system: RootSystem) -> ClosureResult:
    """Verify reflection closure, reducedness and presence of negatives.

    Reads the system's reflection table; sigma_a(a) = -a, so entry [a][a]
    is the index of the negative.  Returns a truthy ClosureResult on
    success; on failure the result is falsy and ``detail`` names the
    offending pair.
    """
    roots = system.roots
    table = system.reflection_table

    def show(v: Vector) -> str:
        return "(" + ", ".join(map(str, v)) + ")"

    for a, row in enumerate(table):
        if row[a] < 0:
            return ClosureResult(False, f"missing negative of {show(roots[a].vector)}")
    pair = _non_reduced_pair(system)
    if pair is not None:
        a, b = pair
        return ClosureResult(
            False, f"non-reduced pair {show(roots[a].vector)} and {show(roots[b].vector)}"
        )
    for a, row in enumerate(table):
        if -1 in row:
            b = roots[row.index(-1)].vector
            return ClosureResult(
                False,
                f"reflect({show(roots[a].vector)}) maps {show(b)} "
                f"to {show(reflect(roots[a], b))}, not a root",
            )
    return ClosureResult(True, "closed and reduced")


def compute_orbits(system: RootSystem) -> tuple[int, ...]:
    """Orbit label of each root under the generated reflection group."""
    n = len(system.roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for row in system.reflection_table:
        for j, idx in enumerate(row):
            if idx < 0:
                raise InvalidRootError("orbit computation requires a closed system")
            union(j, idx)
    labels = {}
    out = []
    for i in range(n):
        r = find(i)
        if r not in labels:
            labels[r] = len(labels)
        out.append(labels[r])
    return tuple(out)


# ---------------------------------------------------------------------------
# weight, discriminant, sampling


def _lattice(x: Sequence[Union[int, Fraction]]) -> tuple[int, list[int]]:
    """(q, X): q is the common denominator of the rational point x, X = q x."""
    q = math.lcm(*(c.denominator for c in x))
    return q, [c.numerator * (q // c.denominator) for c in x]


def _lattice_dot(alpha: Root, lattice: Sequence[int]) -> int:
    """A . X for alpha = A / c (``Root.integer_support``) at an integer point X."""
    acc = 0
    for i, a in alpha.integer_support[1]:
        acc += a * lattice[i]
    return acc


def _is_rational(x: Sequence[Scalar]) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in x)


def weight(system: RootSystem, x: Sequence[Scalar]) -> Scalar:
    """w_k(x), the product over all of R of |alpha . x|^k(alpha).

    Exact when coordinates are rational and every multiplicity is a
    nonnegative integer; otherwise evaluated in floating point.
    """
    ks = system.integer_multiplicities
    if system.is_exact and ks is not None and _is_rational(x):
        acc = Fraction(1)
        for r, k in zip(system.roots, ks):
            if k:
                acc *= abs(r.dot(x)) ** k
        return acc
    acc_f = 1.0
    for r in system.roots:
        k = float(r.multiplicity)
        if k:
            acc_f *= abs(float(r.dot(x))) ** k
    return acc_f


def discriminant(system: RootSystem, x: Sequence[Scalar]) -> Scalar:
    """a_R(x) = product over the positive subsystem of (alpha . x).

    A Fraction on an exact system at a rational point.
    """
    acc: Scalar = Fraction(1) if system.is_exact else 1.0
    for r in system.positive_roots():
        acc = acc * r.dot(x)
    return acc


def hyperplane_distance(system: RootSystem, x: Sequence[Scalar]) -> float:
    """min over roots of |alpha . x| / |alpha| (float)."""
    best = math.inf
    for i in system.positive:
        r = system.roots[i]
        d = abs(float(r.dot(x))) / math.sqrt(float(r.sq_norm))
        best = min(best, d)
    return best


def sample_generic_point(
    system: RootSystem,
    seed: int,
    min_distance: float = 0.05,
    max_tries: int = 1000,
) -> Vector:
    """Deterministic point with normalized hyperplane distance >= min_distance.

    Coordinates lie in [-2, 2]: rationals of denominator 64 on exact systems,
    uniform floats otherwise.  Raises SamplingError when the margin cannot be
    met within ``max_tries`` draws.

    An exact draw is tested on the lattice X = 64 x.  The margin
    (alpha . x)^2 >= min_distance^2 |alpha|^2 is homogeneous in alpha, so
    with alpha = A / c and min_distance = m_n / m_d exactly it reads
    (A . X)^2 m_d^2 >= (64 m_n)^2 |A|^2 in integers, and only the accepted
    draw becomes Fractions.
    """
    _check_range("min_distance", min_distance, positive=True)
    rng = random.Random(seed)
    q = 64
    if system.is_exact:
        m = Fraction(min_distance)
        scale, bound = m.denominator**2, (q * m.numerator) ** 2
        margins = []
        for i in system.positive:
            support = system.roots[i].integer_support[1]
            margins.append((support, bound * sum(a * a for _, a in support)))
        for _ in range(max_tries):
            lattice = [rng.randint(-2 * q, 2 * q) for _ in range(system.dimension)]
            for support, root_bound in margins:
                d = 0
                for i, a in support:
                    d += a * lattice[i]
                if d * d * scale < root_bound:
                    break
            else:
                return tuple(Fraction(c, q) for c in lattice)
    else:
        d2 = min_distance * min_distance
        for _ in range(max_tries):
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
