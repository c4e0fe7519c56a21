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
from it.  Family systems get it from exact data shared by both scalings (the
integer representatives for A/B/D, the dihedral rule for I2).  Custom sets
are exact-only: make_system_from_vectors rejects float coordinates, and the
table of a custom set is computed in integers after scaling its vectors by
their common denominator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
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
FAMILIES = ("A", "B", "D", "I2")


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
    def fvector(self) -> tuple[float, ...]:
        """The coordinates as floats; float(q) * x is what Fraction * float computes."""
        return tuple(float(c) for c in self.vector)

    @cached_property
    def fsq_norm(self) -> float:
        return float(self.sq_norm)

    @cached_property
    def support(self) -> tuple[tuple[int, Scalar], ...]:
        """(i, c) for each nonzero coordinate, with c an int when it is integral."""
        return tuple(
            (i, int(c) if isinstance(c, Fraction) and c.denominator == 1 else c)
            for i, c in enumerate(self.vector)
            if c
        )

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

    @cached_property
    def reflection_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        """Matrix of sigma_alpha = I - 2 a a^T / (a . a), rows acting on columns."""
        v, nrm = self.vector, self.sq_norm
        n = len(v)
        return tuple(
            tuple((1 if i == j else 0) - 2 * v[i] * v[j] / nrm for j in range(n))
            for i in range(n)
        )

    @cached_property
    def signed_permutation(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(perm, signs) when sigma_alpha maps x to y with
        y_i = signs[i] * x[perm[i]], else None."""
        perm, signs = [], []
        for row in self.reflection_matrix:
            nz = [(j, c) for j, c in enumerate(row) if c != 0]
            if len(nz) != 1 or nz[0][1] not in (1, -1):
                return None
            perm.append(nz[0][0])
            signs.append(int(nz[0][1]))
        return tuple(perm), tuple(signs)


def reflect(alpha: Union[Root, Sequence[Scalar]], x: Sequence[Scalar]) -> Vector:
    """Reflect x in the hyperplane orthogonal to alpha.

    Accepts a Root or a raw coordinate sequence.  Exact inputs give an exact
    result.  Raises InvalidRootError for a zero alpha and DimensionError on a
    length mismatch.
    """
    if isinstance(alpha, Root):
        if all(type(c) is float for c in x):
            # same bits as the Fraction/float mix, without its dispatch
            c = 2 * alpha.dot(x) / alpha.fsq_norm
            return tuple(xi - c * ai for xi, ai in zip(x, alpha.fvector))
        # exact: only the support moves
        c = 2 * alpha.dot(x) / alpha.sq_norm
        y = list(x)
        for i, a in alpha.support:
            y[i] = y[i] - c * a
        return tuple(y)
    vec = tuple(alpha)
    nrm = sq_norm(vec)
    if nrm == 0:
        raise InvalidRootError("cannot reflect in a zero vector")
    c = 2 * dot(vec, x) / nrm
    return tuple(xi - c * ai for xi, ai in zip(x, vec))


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
    # Reflection index table from exact family data (build_root_system);
    # None for custom systems, which derive it from their vectors.
    family_table: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False
    )

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
        when that image is not a root.  Built once per system."""
        if self.family_table is not None:
            return self.family_table
        return _integer_table(_integer_vectors(self.roots))

    @cached_property
    def closure(self) -> ClosureResult:
        """The verdict of check_closure, computed once per system."""
        return check_closure(self)

    # -- derived systems -------------------------------------------------

    def with_multiplicity_scale(self, c: Scalar) -> "RootSystem":
        """Same geometry with every multiplicity scaled by c >= 0."""
        if c < 0:
            raise ValueError("multiplicity scale must be nonnegative")
        new_roots = tuple(replace(r, multiplicity=r.multiplicity * c) for r in self.roots)
        new_mults = tuple(m * c for m in self.multiplicities)
        return replace(self, roots=new_roots, multiplicities=new_mults)

    def rescale_orbit(self, orbit: int, c: Scalar) -> "RootSystem":
        """Scale the vectors of one orbit by c > 0 (multiplicities kept)."""
        if c <= 0:
            raise ValueError("root scale must be positive")
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


def _unit(vec: Sequence[float]) -> tuple[float, ...]:
    n = math.sqrt(sum(c * c for c in vec))
    return tuple(c / n for c in vec)


def _family_vectors(family: str, rank: int) -> tuple[list[tuple[int, ...]], list[int], int]:
    """Integer root vectors, orbit labels and the ambient dimension."""
    if family == "A":
        if rank < 1:
            raise UnsupportedFamilyError("family A needs rank >= 1")
        n = rank + 1
        vecs, orbits = [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i], v[j] = 1, -1
                    vecs.append(tuple(v))
                    orbits.append(0)
        return vecs, orbits, n
    if family == "B":
        if rank < 1:
            raise UnsupportedFamilyError("family B needs rank >= 1")
        n = rank
        vecs, orbits = [], []
        for i in range(n):
            for s in (1, -1):
                v = [0] * n
                v[i] = s
                vecs.append(tuple(v))
                orbits.append(0)
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * n
                        v[i], v[j] = si, sj
                        vecs.append(tuple(v))
                        orbits.append(1)
        return vecs, orbits, n
    if family == "D":
        if rank < 2:
            raise UnsupportedFamilyError("family D needs rank >= 2")
        n = rank
        vecs, orbits = [], []
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * n
                        v[i], v[j] = si, sj
                        vecs.append(tuple(v))
                        orbits.append(0)
        return vecs, orbits, n
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _i2_vectors(m: int) -> tuple[list[tuple[float, float]], list[int]]:
    vecs, orbits = [], []
    for ell in range(2 * m):
        theta = math.pi * ell / m
        vecs.append((math.cos(theta), math.sin(theta)))
        # For even m the root lines split into two orbits by parity of ell;
        # odd m is a single orbit.
        orbits.append(ell % 2 if m % 2 == 0 else 0)
    return vecs, orbits


def _i2_integer_vectors(m: int) -> tuple[list[tuple[int, int]], list[int]]:
    if m != 4:
        raise ExactModeError(
            "I2(m) has irrational reflection matrices in the plane for m != 4; "
            "use normalized scale (or family A/B for the crystallographic cases)"
        )
    vecs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    orbits = [0, 1, 0, 1, 0, 1, 0, 1]
    return vecs, orbits


_MULT_REBUILD = {"int": int, "float": float, "Fraction": Fraction}


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
    one shared, already-validated instance.
    """
    key = tuple((type(m).__name__, str(m)) for m in multiplicities)
    if all(t in _MULT_REBUILD for t, _ in key):
        return _build_cached(family, rank, key, scale)
    return _build_root_system(family, rank, list(multiplicities), scale)


@lru_cache(maxsize=128)
def _build_cached(family, rank, key, scale):
    mults = [_MULT_REBUILD[t](s) for t, s in key]
    return _build_root_system(family, rank, mults, scale)


def _build_root_system(
    family: str,
    rank: int,
    multiplicities: Sequence[Scalar],
    scale: str = SCALE_INTEGER,
) -> RootSystem:
    if scale not in (SCALE_INTEGER, SCALE_NORMALIZED):
        raise UnsupportedFamilyError(f"unknown scale {scale!r}")
    mults = list(multiplicities)
    if any((isinstance(m, float) and m < 0) or m < 0 for m in mults):
        raise InvalidRootError("multiplicities must be nonnegative")

    if family == "I2":
        m = rank
        if m < 3:
            raise UnsupportedFamilyError("I2(m) needs m >= 3")
        n_orbits = 2 if m % 2 == 0 else 1
        if scale == SCALE_INTEGER:
            raw, orbits = _i2_integer_vectors(m)
            exact = True
        else:
            raw, orbits = _i2_vectors(m)
            exact = False
        dimension = 2
        norms = [sq_norm(v) for v in raw]
        pos = positive_indices(raw, chamber_vector(dimension))
    else:
        ints, orbits, dimension = _family_vectors(family, rank)
        if family == "A" or family == "D":
            n_orbits = 1
        else:  # B
            n_orbits = 1 if rank == 1 else 2
        # norms and signs in int arithmetic; unit vectors keep their float norms
        if scale == SCALE_INTEGER:
            raw = [tuple(Fraction(c) for c in v) for v in ints]
            norms = [Fraction(sum(c * c for c in v)) for v in ints]
            exact = True
        else:
            raw = [_unit(v) for v in ints]
            norms = [sq_norm(v) for v in raw]
            exact = False
        pos = positive_indices(ints, chamber_vector(dimension))

    if len(mults) != n_orbits:
        raise InvalidRootError(
            f"family {family} rank {rank} has {n_orbits} orbit(s), "
            f"got {len(mults)} multiplicities"
        )
    if exact:
        mults = [Fraction(m) if not isinstance(m, float) else m for m in mults]
    else:
        mults = [float(m) for m in mults]

    roots = tuple(
        Root(vector=tuple(v), sq_norm=nrm, multiplicity=mults[orb], orbit=orb)
        for v, nrm, orb in zip(raw, norms, orbits)
    )
    system = RootSystem(
        dimension=dimension,
        roots=roots,
        positive=pos,
        family=family,
        rank=rank,
        multiplicities=tuple(mults),
        scale=scale,
        family_table=_family_table(family, rank),
    )
    closure = system.closure
    if not closure:
        raise InvalidRootError(f"built system failed closure: {closure.detail}")
    return system


def make_system_from_vectors(
    vectors: Sequence[Sequence[Scalar]],
    multiplicities: Union[Scalar, Sequence[Scalar]] = 1,
    family: str = "custom",
) -> RootSystem:
    """Wrap exact (int or Fraction) vectors as a RootSystem without
    validating closure.

    Intended for tests and counterexamples; run check_closure yourself.
    A single multiplicity is broadcast to every vector.  Float coordinates
    raise ExactModeError: a custom table is computed in integers, and the
    float families come from build_root_system.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise InvalidRootError("need at least one vector")
    if not all(isinstance(c, (int, Fraction)) for v in vecs for c in v):
        raise ExactModeError("custom root sets need int or Fraction coordinates")
    dim = len(vecs[0])
    if isinstance(multiplicities, (int, float, Fraction)):
        ms: list[Scalar] = [multiplicities] * len(vecs)
    else:
        ms = list(multiplicities)
        if len(ms) != len(vecs):
            raise InvalidRootError("one multiplicity per vector required")
    roots = tuple(
        Root(vector=v, sq_norm=sq_norm(v), multiplicity=m, orbit=0)
        for v, m in zip(vecs, ms)
    )
    pos = positive_indices(vecs, chamber_vector(dim))
    return RootSystem(
        dimension=dim,
        roots=roots,
        positive=pos,
        family=family,
        rank=dim,
        multiplicities=tuple(dict.fromkeys(ms)),
        scale=SCALE_INTEGER,
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
    return _integer_table(_family_vectors(family, rank)[0])


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
    for a, row in enumerate(table):
        if row[a] < 0:
            return ClosureResult(False, f"missing negative of {roots[a].vector}")
    pair = _non_reduced_pair(system)
    if pair is not None:
        a, b = pair
        return ClosureResult(
            False, f"non-reduced pair {roots[a].vector} and {roots[b].vector}"
        )
    for a, row in enumerate(table):
        if -1 in row:
            b = roots[row.index(-1)].vector
            image = reflect(roots[a], b)
            return ClosureResult(
                False,
                f"reflect({roots[a].vector}) maps {b} to {image}, not a root",
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


def _is_rational(x: Sequence[Scalar]) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in x)


def weight(system: RootSystem, x: Sequence[Scalar]) -> Scalar:
    """w_k(x), the product over all of R of |alpha . x|^k(alpha).

    Exact when coordinates are rational and every multiplicity is a
    nonnegative integer; otherwise evaluated in floating point.  The exact
    product runs in integers on the lattice point X = q x and is divided by
    q^(sum of k) once at the end.
    """
    ks = system.integer_multiplicities
    if system.is_exact and ks is not None and _is_rational(x):
        q, lattice = _lattice(x)
        acc, deg = 1, 0
        for r, k in zip(system.roots, ks):
            if k:
                acc *= abs(r.dot(lattice)) ** k
                deg += k
        return Fraction(acc, q**deg)
    acc_f = 1.0
    for r in system.roots:
        k = float(r.multiplicity)
        if k:
            acc_f *= abs(float(r.dot(x))) ** k
    return acc_f


def discriminant(system: RootSystem, x: Sequence[Scalar]) -> Scalar:
    """a_R(x) = product over the positive subsystem of (alpha . x).

    Rational points on exact systems multiply in integers on the lattice
    point X = q x and divide by q^|R+| once.
    """
    if system.is_exact and _is_rational(x):
        q, lattice = _lattice(x)
        acc = 1
        for i in system.positive:
            acc *= system.roots[i].dot(lattice)
        return Fraction(acc, q ** len(system.positive))
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
    box: float = 2.0,
    max_tries: int = 1000,
) -> Vector:
    """Deterministic point with normalized hyperplane distance >= min_distance.

    Exact systems get rational coordinates (denominator 64); float systems
    get uniform floats in [-box, box].  Raises SamplingError when the margin
    cannot be met within ``max_tries`` draws.
    """
    if min_distance <= 0:
        raise ValueError("min_distance must be positive")
    rng = random.Random(seed)
    exact = system.is_exact
    d2 = Fraction(min_distance) ** 2 if exact else min_distance * min_distance
    q = 64
    lim = int(box * q)
    for _ in range(max_tries):
        if exact:
            x: Vector = tuple(
                Fraction(rng.randint(-lim, lim), q) for _ in range(system.dimension)
            )
            ok = True
            for i in system.positive:
                r = system.roots[i]
                dd = r.dot(x)
                if dd * dd < d2 * r.sq_norm:
                    ok = False
                    break
        else:
            x = tuple(rng.uniform(-box, box) for _ in range(system.dimension))
            ok = True
            for i in system.positive:
                r = system.roots[i]
                dd = float(r.dot(x))
                if dd * dd < d2 * float(r.sq_norm):
                    ok = False
                    break
        if ok:
            return x
    raise SamplingError(
        f"no point with hyperplane margin {min_distance} found in {max_tries} draws"
    )

