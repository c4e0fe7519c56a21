"""Batched verification runs over the identities, with pass/fail outcomes.

Each suite samples generic points, evaluates one family of identities
through code paths that are as independent as the package allows, and
folds the residuals into IdentityReports.  Suites are pure functions of
their seed, so two runs with the same seed give the same outcome; sizes
and tolerances are fixed where each suite is defined.  ``run_suites`` runs
them in forked worker processes, one per usable CPU, and since each is a
pure function of its seed the results, and every output byte, do not
depend on the CPU count.

One shell, ``_suite``, times every suite and applies the one pass rule,
``ok and worst <= tol``: ``ok`` carries the suite's exact checks and
``worst`` its largest residual.  Every fold of residuals keeps a value
that is not finite (``report_from_samples`` and ``_worst``, where the
builtin ``max`` drops a NaN), and ``NaN <= tol`` is false, so a
non-finite residual fails its suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._forkmap import fork_map
from .cm import (
    CMParams,
    ground_energy,
    groundstate_residual,
    groundstate_value,
    transformed_hamiltonian_check,
)
from .dunkl import DunklContext, PolyFunction, commutator
from .errors import ConfigError
from .polyx import MultiPoly, compose_reflection, discriminant_poly, weight_poly
from .rootsys import (
    RootSystem,
    build_root_system,
    discriminant,
    reflect,
    sample_generic_point,
    weight,
)
from .transform import (
    IdentityReport,
    TestFunction,
    TransformParams,
    corollary1_sides,
    lemma2_check,
    report_from_samples,
    similarity_identities_check,
    theorem1_sides,
    triple_sum_check_a,
    unconfined_map_check,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    tolerance: float
    max_residual: float
    reports: tuple
    elapsed: float
    notes: tuple = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: max residual {self.max_residual:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.elapsed:.2f}s)"
        )


def _suite(name: str, tol: float):
    """The one suite shell: ``@_suite(name, tol)`` over a body ``(seed) ->
    (reports, worst, notes, ok)`` binds the timed ``(seed) -> SuiteResult``
    that passes when ``ok and worst <= tol``, under the body's own name.
    """

    def shell(body):
        @functools.wraps(body)
        def suite(seed: int = 0) -> SuiteResult:
            start = time.perf_counter()
            reports, worst, notes, ok = body(seed)
            return SuiteResult(
                name=name,
                passed=ok and worst <= tol,
                tolerance=tol,
                max_residual=worst,
                reports=tuple(reports),
                elapsed=time.perf_counter() - start,
                notes=tuple(notes),
            )

        return suite

    return shell


def _worst(values) -> float:
    """The largest residual, or NaN if any residual is NaN."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


class _Gap(NamedTuple):
    """A residual with its own scale, for ``report_from_samples``."""

    residual: float
    scale: float


def _float_point(system: RootSystem, seed: int):
    return tuple(float(c) for c in sample_generic_point(system, seed=seed))


def _random_poly(nvars: int, max_degree: int, rng: random.Random) -> MultiPoly:
    p = MultiPoly.zero(nvars)
    for _ in range(6):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = p + MultiPoly(nvars, {tuple(exps): coeff})
    if not p.terms:
        p = MultiPoly.constant(nvars, Fraction(1))
    return p


# ---------------------------------------------------------------------------
# exact polynomial identities


_ALTERNATION_FAMILIES = (
    ("A", 2, (1,)),
    ("A", 3, (1,)),
    ("B", 2, (1, 1)),
    ("B", 3, (2, 1)),
    ("D", 4, (1,)),
)


@_suite("lemma1", tol=0.0)
def suite_lemma1(seed: int = 0):
    """Alternating discriminant: sign flip under every reflection, harmonic
    as a polynomial, with the reflection weight invariant at sample points.
    """
    reports = []
    notes = []
    ok = True
    for family, rank, mults in _ALTERNATION_FAMILIES:
        system = build_root_system(family, rank, mults)
        disc = discriminant_poly(system)
        if disc.laplacian() != MultiPoly.zero(system.dimension):
            ok = False
            notes.append(f"{family}{rank}: discriminant is not harmonic")
        for idx in system.positive:
            if compose_reflection(disc, system.roots[idx]) != -disc:
                ok = False
                notes.append(f"{family}{rank}: reflection {idx} does not alternate")
        lap_w = weight_poly(system).laplacian()
        points = [sample_generic_point(system, seed=seed * 1000 + j) for j in range(100)]
        bad = Fraction(0)
        for pt in points:
            base = discriminant(system, pt)
            wbase = weight(system, pt)
            for idx in system.positive:
                spt = reflect(system.roots[idx], pt)
                bad = max(bad, abs(discriminant(system, spt) + base))
                bad = max(bad, abs(weight(system, spt) - wbase))
        if bad != 0:
            ok = False
        notes.append(
            f"{family}{rank}: weight laplacian has {len(lap_w.terms)} terms, "
            f"value {float(lap_w.eval(points[0])):.6g} at the first sample point"
        )
        reports.append(
            IdentityReport(
                identity="discriminant-alternation",
                family=f"{family}{rank}",
                params={"multiplicities": list(map(str, mults))},
                points=len(points),
                max_abs_residual=float(bad),
                max_rel_residual=float(bad),
            )
        )
    return reports, _worst(r.max_abs_residual for r in reports), notes, ok


_DOUBLE_SUM_FAMILIES = (
    ("A", 2, (Fraction(3, 2),)),
    ("A", 3, (Fraction(3, 2),)),
    ("A", 4, (Fraction(3, 2),)),
    ("A", 5, (Fraction(3, 2),)),
    ("B", 2, (Fraction(2), Fraction(1, 2))),
    ("B", 3, (Fraction(2), Fraction(1, 2))),
    ("B", 4, (Fraction(2), Fraction(1, 2))),
    ("D", 4, (Fraction(5, 4),)),
)


@_suite("lemma2", tol=1e-10)
def suite_lemma2(seed: int = 0):
    """Double-sum collapse: exact rational equality, then float agreement."""
    reports = []
    rels = []
    ok = True
    for family, rank, mults in _DOUBLE_SUM_FAMILIES:
        system = build_root_system(family, rank, mults)
        points = [sample_generic_point(system, seed=seed * 917 + j) for j in range(25)]
        if any(lemma2_check(system, pt).residual != 0 for pt in points):
            ok = False
        sides = [(pt, lemma2_check(system, tuple(float(c) for c in pt))) for pt in points]
        rels.extend(abs(side.residual) / side.scale for _, side in sides)
        reports.append(
            report_from_samples(
                "double-sum-collapse",
                f"{family}{rank}",
                {"multiplicities": list(map(str, mults))},
                sides[:5],
            )
        )
    # type-A triple sums vanish identically as well
    rng = random.Random(seed + 11)
    for n in (3, 4, 5):
        pts = [
            tuple(Fraction(rng.randint(-64, 64), 16) for _ in range(n))
            for _ in range(5)
        ]
        for pt in pts:
            if len(set(pt)) < n:
                continue
            if triple_sum_check_a(pt) != 0:
                ok = False
    return reports, _worst(rels), (), ok


# ---------------------------------------------------------------------------
# gauge and scaling identities


@_suite("similarity", tol=1e-7)
def suite_similarity(seed: int = 0):
    """Closed-form gauge derivatives versus complex-step differentiation."""
    rng = random.Random(seed)
    samples = []
    for family, rank, mults in (("A", 2, (1,)), ("B", 2, (1, 2)), ("D", 4, (1,))):
        system = build_root_system(family, rank, mults)
        for omega in (0.7, 1.3):
            params = TransformParams(system=system, omega=omega)
            fn = TestFunction(
                lam=rng.uniform(-1, 1), poly=_random_poly(system.dimension, 3, rng)
            )
            for j in range(10):
                pt = _float_point(system, seed=seed * 31 + 7 * j + rank)
                tau = rng.uniform(-0.3, 0.4)
                sides = similarity_identities_check(params, fn, tau, pt)
                samples.extend((pt, side) for side in sides.values())
    report = report_from_samples(
        "gauge-derivatives-vs-complex-step", "mixed", {"omegas": [0.7, 1.3]}, samples
    )
    return [report], report.max_rel_residual, (), True


_SCALING_FAMILIES = (
    ("A", 2, (1,)),
    ("A", 3, (1,)),
    ("B", 2, (1, 1)),
    ("B", 3, (1, 1)),
    ("D", 4, (1,)),
)

K_SCALES = (0.3, 0.85, 1.4, 1.95, 2.5)
OMEGAS = (0.5, 1.0, 2.0)


@_suite("theorem1", tol=1e-8)
def suite_theorem1(seed: int = 0):
    """Full scaling identity across families, frequencies, multiplicities."""
    rng = random.Random(seed)
    reports = []
    for family, rank, mults in _SCALING_FAMILIES:
        base = build_root_system(family, rank, mults)
        pts = [_float_point(base, seed=seed * 101 + 13 * j + rank) for j in range(50)]
        samples = []
        for omega in OMEGAS:
            for scale in K_SCALES:
                system = base.with_multiplicity_scale(scale)
                params = TransformParams(system=system, omega=omega)
                fn = TestFunction(
                    lam=rng.uniform(-1, 1), poly=_random_poly(system.dimension, 4, rng)
                )
                tau = rng.uniform(-0.3, 0.4)
                samples.extend((pt, theorem1_sides(params, fn, tau, pt)) for pt in pts)
        reports.append(
            report_from_samples(
                "diffusion-scaling-identity",
                f"{family}{rank}",
                {"omegas": list(OMEGAS), "k_scales": list(K_SCALES)},
                samples,
            )
        )
    return reports, _worst(r.max_rel_residual for r in reports), (), True


@_suite("corollary1", tol=1e-8)
def suite_corollary1(seed: int = 0):
    """Pair-sum specialization: equals the general machinery and holds.

    The pair-sum sides must agree with the general path's to 1e-12 of the
    general scale; the largest disagreement is the one note.
    """
    rng = random.Random(seed)
    reports = []
    gaps = []
    for n in (2, 3, 4):
        samples = []
        for k in (0.5, 1.0, 2.5):
            system = build_root_system("A", n - 1, [k])
            params = TransformParams(system=system, omega=k)
            fn = TestFunction(lam=rng.uniform(-1, 1), poly=_random_poly(n, 4, rng))
            tau = rng.uniform(-0.3, 0.4)
            for j in range(20):
                pt = _float_point(system, seed=seed * 211 + 17 * j + n)
                narrow = corollary1_sides(n, k, fn, tau, pt)
                gen = theorem1_sides(params, fn, tau, pt)
                gaps.append(abs(narrow.lhs - gen.lhs) / gen.scale)
                gaps.append(abs(narrow.rhs - gen.rhs) / gen.scale)
                samples.append((pt, narrow))
        reports.append(
            report_from_samples(
                "pair-sum-specialization", f"A{n - 1}", {"k": [0.5, 1.0, 2.5]}, samples
            )
        )
    gap = _worst(gaps)
    note = f"max disagreement with the general path {gap:.3e}"
    return reports, _worst(r.max_rel_residual for r in reports), (note,), gap <= 1e-12


@_suite("unconfined", tol=1e-8)
def suite_unconfined(seed: int = 0):
    """Trap-free gauge map against the Hamiltonian with omega = 0."""
    rng = random.Random(seed)
    reports = []
    for family, rank, mults in (("A", 2, (0.8,)), ("B", 2, (1.2, 0.6)), ("D", 4, (1.5,))):
        system = build_root_system(family, rank, mults)
        fn = PolyFunction(_random_poly(system.dimension, 4, rng))
        samples = []
        for j in range(20):
            pt = _float_point(system, seed=seed * 387 + 19 * j + rank)
            samples.append((pt, unconfined_map_check(system, fn, pt)))
        reports.append(
            report_from_samples(
                "trap-free-gauge-map",
                f"{family}{rank}",
                {"multiplicities": [str(m) for m in mults]},
                samples,
            )
        )
    return reports, _worst(r.max_rel_residual for r in reports), (), True


# ---------------------------------------------------------------------------
# Hamiltonian structure


def _monomials_up_to(nvars: int, degree: int):
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            yield MultiPoly(nvars, {tuple(exps): Fraction(1)})


@_suite("transformed-hamiltonian", tol=1e-8)
def suite_transformed_hamiltonian(seed: int = 0):
    """Type-A conjugation identity on every monomial of degree <= 4, plus
    exact commutativity of the deformed directional derivatives.
    """
    notes = []
    ok = True
    reports = []
    for n in (2, 3):
        samples = []
        system = build_root_system("A", n - 1, [1])
        pts = [_float_point(system, seed=seed * 53 + j + n) for j in range(5)]
        for k in (1, 2):
            for mono in _monomials_up_to(n, 4):
                for pt in pts:
                    side = transformed_hamiltonian_check(n, Fraction(k), mono, pt)
                    samples.append((pt, side))
        reports.append(
            report_from_samples(
                "conjugated-hamiltonian",
                f"A{n - 1}",
                {"k": [1, 2], "max_degree": 4},
                samples,
            )
        )
    rng = random.Random(seed + 5)
    for family, rank, mults in (
        ("A", 2, (Fraction(3, 2),)),
        ("A", 3, (Fraction(2),)),
        ("B", 2, (Fraction(1), Fraction(2))),
    ):
        system = build_root_system(family, rank, mults)
        ctx = DunklContext(system)
        p = _random_poly(system.dimension, 3, rng)
        for i in range(system.dimension):
            for j in range(i + 1, system.dimension):
                if commutator(ctx, i, j, p) != MultiPoly.zero(system.dimension):
                    ok = False
                    notes.append(f"{family}{rank}: directions {i},{j} fail to commute")
    return reports, _worst(r.max_rel_residual for r in reports), notes, ok


_ENERGY_CASES = []
for _n in range(2, 11):
    _ENERGY_CASES.append(("A", _n - 1, (Fraction(7, 3),)))
for _n in range(1, 11):
    _ENERGY_CASES.append(("B", _n, (Fraction(5, 2),) if _n == 1 else (Fraction(5, 2), Fraction(4, 3))))
for _n in range(3, 11):
    _ENERGY_CASES.append(("D", _n, (Fraction(7, 4),)))


def _energy_closed_form(family: str, rank: int, mults, omega: Fraction) -> Fraction:
    if family == "A":
        n = rank + 1
        gamma = mults[0] * Fraction(n * (n - 1), 2)
    elif family == "B":
        n = rank
        if n == 1:
            gamma = mults[0]
        else:
            gamma = n * mults[0] + n * (n - 1) * mults[1]
    elif family == "D":
        n = rank
        gamma = n * (n - 1) * mults[0]
    else:
        raise ValueError(family)
    dim = rank + 1 if family == "A" else rank
    return omega * (gamma + Fraction(dim, 2))


@_suite("ground-state", tol=1e-8)
def suite_ground_state(seed: int = 0):
    """Ground energy against closed-form counts, then the eigenrelation."""
    ok = True
    notes = []
    omega = Fraction(3, 2)
    for family, rank, mults in _ENERGY_CASES:
        system = build_root_system(family, rank, mults)
        params = CMParams(system=system, omega=omega)
        if ground_energy(params) != _energy_closed_form(family, rank, mults, omega):
            ok = False
            notes.append(f"{family}{rank}: ground energy mismatch")
    reports = []
    for family, rank, mults, om in (
        ("A", 2, (1.3,), 0.8),
        ("B", 2, (0.9, 1.7), 1.1),
    ):
        system = build_root_system(family, rank, mults)
        params = CMParams(system=system, omega=om)
        e0 = float(ground_energy(params))
        samples = []
        for j in range(50):
            pt = _float_point(system, seed=seed * 631 + j + rank)
            res = groundstate_residual(params, pt)
            samples.append((pt, _Gap(res, abs(e0 * groundstate_value(params, pt)))))
        reports.append(
            report_from_samples(
                "groundstate-eigenrelation",
                f"{family}{rank}",
                {"omega": om, "multiplicities": list(map(str, mults))},
                samples,
            )
        )
    return reports, _worst(r.max_rel_residual for r in reports), notes, ok


@_suite("oscillator", tol=1e-10)
def suite_oscillator(seed: int = 0):
    """Degenerate one-dimensional case with no reflections: the scaling
    identity collapses to the classical harmonic-oscillator conjugation.
    """
    rng = random.Random(seed)
    system = build_root_system("B", 1, [0])
    params = TransformParams(system=system, omega=1.0)
    ok = ground_energy(CMParams(system=system, omega=1)) == Fraction(1, 2)
    samples = []
    for j in range(30):
        fn = TestFunction(lam=rng.uniform(-1, 1), poly=_random_poly(1, 4, rng))
        tau = rng.uniform(-0.5, 0.5)
        pt = (rng.uniform(0.1, 2.0) * rng.choice([-1, 1]),)
        samples.append((pt, theorem1_sides(params, fn, tau, pt)))
    report = report_from_samples(
        "oscillator-reduction", "B1", {"k": 0, "omega": 1.0}, samples
    )
    return [report], report.max_rel_residual, (), ok


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "similarity": suite_similarity,
    "theorem1": suite_theorem1,
    "corollary1": suite_corollary1,
    "unconfined": suite_unconfined,
    "transformed-hamiltonian": suite_transformed_hamiltonian,
    "ground-state": suite_ground_state,
    "oscillator": suite_oscillator,
}


def _run_suite(name: str, seed: int) -> SuiteResult:
    # looked up at call time, in the worker, so a patched entry carries over
    return SUITES[name](seed=seed)


def run_suites(names=None, seed: int = 0) -> list:
    """Run the named suites (all of them by default) after checking every
    name, so an unknown one stops the run before any suite or process starts.

    The suites run in forked worker processes, one per usable CPU and at
    most one per suite, each sent by name; with one CPU, one suite, or no
    ``fork`` start method they run here.  Suites are pure functions of the
    seed, so the results, and every output byte, do not depend on the CPU
    count.  They come back in the given order; if several suites raise, the
    earliest in that order is re-raised, as a serial loop would, and suites
    not started by then never start.  A worker that dies raises
    ``BrokenProcessPool`` rather than waiting for it.
    """
    chosen = list(names or SUITES)
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suite {', '.join(map(repr, unknown))}; known: {', '.join(SUITES)}"
        )
    return list(fork_map(_run_suite, [(name, seed) for name in chosen]))
