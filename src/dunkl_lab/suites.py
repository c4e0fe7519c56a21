"""Batched verification runs over the identities, with pass/fail outcomes.

Each suite samples generic points, evaluates one family of identities
through code paths that are as independent as the package allows, and
folds the residuals into IdentityReports.  Suites are pure functions of
their seed, so two runs with the same arguments give the same outcome.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .cm import (
    CMParams,
    ground_energy,
    groundstate_residual,
    groundstate_value,
    transformed_hamiltonian_check,
)
from .dunkl import DunklContext, PolyFunction, commutator
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


def _float_point(system: RootSystem, seed: int, min_distance: float = 0.05):
    pt = sample_generic_point(system, seed=seed, min_distance=min_distance)
    return tuple(float(c) for c in pt)


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


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# exact polynomial identities


_ALTERNATION_FAMILIES = (
    ("A", 2, (1,)),
    ("A", 3, (1,)),
    ("B", 2, (1, 1)),
    ("B", 3, (2, 1)),
    ("D", 4, (1,)),
)


def suite_lemma1(seed: int = 0, n_points: int = 100) -> SuiteResult:
    """Alternating discriminant: sign flip under every reflection, harmonic
    as a polynomial, with the reflection weight invariant at sample points.
    """

    def run():
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
            wpoly = weight_poly(system)
            lap_w = wpoly.laplacian()
            points = [
                sample_generic_point(system, seed=seed * 1000 + j)
                for j in range(n_points)
            ]

            def check(pt):
                worst = Fraction(0)
                base = discriminant(system, pt)
                wbase = weight(system, pt)
                for idx in system.positive:
                    spt = reflect(system.roots[idx], pt)
                    worst = max(worst, abs(discriminant(system, spt) + base))
                    worst = max(worst, abs(weight(system, spt) - wbase))
                return worst

            residuals = [check(pt) for pt in points]
            bad = max(residuals)
            if bad != 0:
                ok = False
            sample = points[0]
            notes.append(
                f"{family}{rank}: weight laplacian has {len(lap_w.terms)} terms, "
                f"value {float(lap_w.eval(sample)):.6g} at the first sample point"
            )
            reports.append(
                IdentityReport(
                    identity="discriminant-alternation",
                    family=f"{family}{rank}",
                    params={"multiplicities": list(map(str, mults))},
                    points=n_points,
                    max_abs_residual=float(bad),
                    max_rel_residual=float(bad),
                )
            )
        return reports, notes, ok

    (reports, notes, ok), elapsed = _timed(run)
    worst = max(r.max_abs_residual for r in reports)
    return SuiteResult(
        name="lemma1",
        passed=ok,
        tolerance=0.0,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
        notes=tuple(notes),
    )


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


def suite_lemma2(seed: int = 0, n_points: int = 25, float_tol: float = 1e-10) -> SuiteResult:
    """Double-sum collapse: exact rational equality, then float agreement."""

    def run():
        reports = []
        ok = True
        worst_rel = 0.0
        for family, rank, mults in _DOUBLE_SUM_FAMILIES:
            system = build_root_system(family, rank, mults)
            points = [
                sample_generic_point(system, seed=seed * 917 + j) for j in range(n_points)
            ]

            def exact_gap(pt):
                side = lemma2_check(system, pt)
                return abs(side.residual)

            gaps = [exact_gap(pt) for pt in points]
            exact_bad = max(gaps)
            if exact_bad != 0:
                ok = False

            def float_gap(pt):
                side = lemma2_check(system, tuple(float(c) for c in pt))
                return abs(side.residual) / side.scale

            rels = [float_gap(pt) for pt in points]
            worst_rel = max(worst_rel, max(rels))
            reports.append(
                report_from_samples(
                    "double-sum-collapse",
                    f"{family}{rank}",
                    {"multiplicities": list(map(str, mults))},
                    [
                        (pt, lemma2_check(system, tuple(float(c) for c in pt)))
                        for pt in points[:5]
                    ],
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
        if worst_rel > float_tol:
            ok = False
        return reports, ok, worst_rel

    (reports, ok, worst_rel), elapsed = _timed(run)
    return SuiteResult(
        name="lemma2",
        passed=ok,
        tolerance=float_tol,
        max_residual=worst_rel,
        reports=tuple(reports),
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# gauge and scaling identities


def suite_similarity(seed: int = 0, n_points: int = 10, tol: float = 1e-7) -> SuiteResult:
    """Closed-form gauge derivatives versus complex-step differentiation."""

    def run():
        rng = random.Random(seed)
        samples = []
        for family, rank, mults in (("A", 2, (1,)), ("B", 2, (1, 2)), ("D", 4, (1,))):
            system = build_root_system(family, rank, mults)
            for omega in (0.7, 1.3):
                params = TransformParams(system=system, omega=omega)
                fn = TestFunction(
                    lam=rng.uniform(-1, 1), poly=_random_poly(system.dimension, 3, rng)
                )
                for j in range(n_points):
                    pt = _float_point(system, seed=seed * 31 + 7 * j + rank)
                    tau = rng.uniform(-0.3, 0.4)
                    sides = similarity_identities_check(params, fn, tau, pt)
                    for name, side in sides.items():
                        samples.append(((family, rank, omega, name, pt), side))
        worst = max(abs(s.residual) / s.scale for _, s in samples)
        report = report_from_samples(
            "gauge-derivatives-vs-complex-step",
            "mixed",
            {"omegas": [0.7, 1.3]},
            [(key[4], side) for key, side in samples],
        )
        return [report], worst

    (reports, worst), elapsed = _timed(run)
    return SuiteResult(
        name="similarity",
        passed=worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
    )


_SCALING_FAMILIES = (
    ("A", 2, (1,)),
    ("A", 3, (1,)),
    ("B", 2, (1, 1)),
    ("B", 3, (1, 1)),
    ("D", 4, (1,)),
)

K_SCALES = (0.3, 0.85, 1.4, 1.95, 2.5)
OMEGAS = (0.5, 1.0, 2.0)


def suite_theorem1(
    seed: int = 0, n_points: int = 50, max_degree: int = 4, tol: float = 1e-8
) -> SuiteResult:
    """Full scaling identity across families, frequencies, multiplicities."""

    def run():
        rng = random.Random(seed)
        reports = []
        worst = 0.0
        for family, rank, mults in _SCALING_FAMILIES:
            base = build_root_system(family, rank, mults)
            pts = [
                _float_point(base, seed=seed * 101 + 13 * j + rank)
                for j in range(n_points)
            ]
            samples = []
            for omega in OMEGAS:
                for scale in K_SCALES:
                    system = base.with_multiplicity_scale(scale)
                    params = TransformParams(system=system, omega=omega)
                    fn = TestFunction(
                        lam=rng.uniform(-1, 1),
                        poly=_random_poly(system.dimension, max_degree, rng),
                    )
                    tau = rng.uniform(-0.3, 0.4)
                    samples.extend(
                        (pt, theorem1_sides(params, fn, tau, pt)) for pt in pts
                    )
            report = report_from_samples(
                "diffusion-scaling-identity",
                f"{family}{rank}",
                {"omegas": list(OMEGAS), "k_scales": list(K_SCALES)},
                samples,
            )
            worst = max(worst, report.max_rel_residual)
            reports.append(report)
        return reports, worst

    (reports, worst), elapsed = _timed(run)
    return SuiteResult(
        name="theorem1",
        passed=worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
    )


def suite_corollary1(
    seed: int = 0,
    n_points: int = 20,
    agree_tol: float = 1e-12,
    tol: float = 1e-8,
) -> SuiteResult:
    """Pair-sum specialization: equals the general machinery and holds."""

    def run():
        rng = random.Random(seed)
        reports = []
        worst_rel = 0.0
        worst_gap = 0.0
        for n in (2, 3, 4):
            samples = []
            for k in (0.5, 1.0, 2.5):
                system = build_root_system("A", n - 1, [k])
                params = TransformParams(system=system, omega=k)
                fn = TestFunction(
                    lam=rng.uniform(-1, 1), poly=_random_poly(n, 4, rng)
                )
                tau = rng.uniform(-0.3, 0.4)
                for j in range(n_points):
                    pt = _float_point(system, seed=seed * 211 + 17 * j + n)
                    narrow = corollary1_sides(n, k, fn, tau, pt)
                    gen = theorem1_sides(params, fn, tau, pt)
                    gap = max(abs(narrow.lhs - gen.lhs), abs(narrow.rhs - gen.rhs))
                    worst_gap = max(worst_gap, gap / gen.scale)
                    samples.append((pt, narrow))
            report = report_from_samples(
                "pair-sum-specialization",
                f"A{n - 1}",
                {"k": [0.5, 1.0, 2.5]},
                samples,
            )
            worst_rel = max(worst_rel, report.max_rel_residual)
            reports.append(report)
        return reports, worst_rel, worst_gap

    (reports, worst_rel, worst_gap), elapsed = _timed(run)
    passed = worst_rel <= tol and worst_gap <= agree_tol
    return SuiteResult(
        name="corollary1",
        passed=passed,
        tolerance=tol,
        max_residual=worst_rel,
        reports=tuple(reports),
        elapsed=elapsed,
        notes=(f"max disagreement with the general path {worst_gap:.3e}",),
    )


def suite_unconfined(seed: int = 0, n_points: int = 20, tol: float = 1e-8) -> SuiteResult:
    """Trap-free gauge map against the Hamiltonian with omega = 0."""

    def run():
        rng = random.Random(seed)
        reports = []
        worst = 0.0
        for family, rank, mults in (("A", 2, (0.8,)), ("B", 2, (1.2, 0.6)), ("D", 4, (1.5,))):
            system = build_root_system(family, rank, mults)
            fn = PolyFunction(_random_poly(system.dimension, 4, rng))
            samples = []
            for j in range(n_points):
                pt = _float_point(system, seed=seed * 387 + 19 * j + rank)
                samples.append((pt, unconfined_map_check(system, fn, pt)))
            report = report_from_samples(
                "trap-free-gauge-map",
                f"{family}{rank}",
                {"multiplicities": [str(m) for m in mults]},
                samples,
            )
            worst = max(worst, report.max_rel_residual)
            reports.append(report)
        return reports, worst

    (reports, worst), elapsed = _timed(run)
    return SuiteResult(
        name="unconfined",
        passed=worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Hamiltonian structure


def _monomials_up_to(nvars: int, degree: int):
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            yield MultiPoly(nvars, {tuple(exps): Fraction(1)})


def suite_transformed_hamiltonian(seed: int = 0, tol: float = 1e-8) -> SuiteResult:
    """Type-A conjugation identity on every monomial of degree <= 4, plus
    exact commutativity of the deformed directional derivatives.
    """

    def run():
        notes = []
        ok = True
        worst = 0.0
        reports = []
        for n in (2, 3):
            samples = []
            for k in (1, 2):
                pts = [
                    _float_point(build_root_system("A", n - 1, [1]), seed=seed * 53 + j + n)
                    for j in range(5)
                ]
                for mono in _monomials_up_to(n, 4):
                    for pt in pts:
                        side = transformed_hamiltonian_check(n, Fraction(k), mono, pt)
                        samples.append((pt, side))
            report = report_from_samples(
                "conjugated-hamiltonian",
                f"A{n - 1}",
                {"k": [1, 2], "max_degree": 4},
                samples,
            )
            worst = max(worst, report.max_rel_residual)
            reports.append(report)
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
        return reports, notes, ok, worst

    (reports, notes, ok, worst), elapsed = _timed(run)
    return SuiteResult(
        name="transformed-hamiltonian",
        passed=ok and worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
        notes=tuple(notes),
    )


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


def suite_ground_state(seed: int = 0, n_points: int = 50, tol: float = 1e-8) -> SuiteResult:
    """Ground energy against closed-form counts, then the eigenrelation."""

    def run():
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
        worst = 0.0
        for family, rank, mults, om in (
            ("A", 2, (1.3,), 0.8),
            ("B", 2, (0.9, 1.7), 1.1),
        ):
            system = build_root_system(family, rank, mults)
            params = CMParams(system=system, omega=om)
            e0 = float(ground_energy(params))
            max_rel = 0.0
            max_abs = 0.0
            worst_pt = None
            for j in range(n_points):
                pt = _float_point(system, seed=seed * 631 + j + rank)
                res = groundstate_residual(params, pt)
                scale = abs(e0 * groundstate_value(params, pt))
                rel = abs(res) / scale
                if rel >= max_rel:
                    max_rel, worst_pt = rel, pt
                max_abs = max(max_abs, abs(res))
            worst = max(worst, max_rel)
            reports.append(
                IdentityReport(
                    identity="groundstate-eigenrelation",
                    family=f"{family}{rank}",
                    params={"omega": om, "multiplicities": list(map(str, mults))},
                    points=n_points,
                    max_abs_residual=max_abs,
                    max_rel_residual=max_rel,
                    worst_point=worst_pt,
                )
            )
        return reports, notes, ok, worst

    (reports, notes, ok, worst), elapsed = _timed(run)
    return SuiteResult(
        name="ground-state",
        passed=ok and worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
        notes=tuple(notes),
    )


def suite_oscillator(seed: int = 0, n_points: int = 30, tol: float = 1e-10) -> SuiteResult:
    """Degenerate one-dimensional case with no reflections: the scaling
    identity collapses to the classical harmonic-oscillator conjugation.
    """

    def run():
        rng = random.Random(seed)
        system = build_root_system("B", 1, [0])
        params = TransformParams(system=system, omega=1.0)
        cm = CMParams(system=system, omega=1)
        samples = []
        checks_ok = ground_energy(cm) == Fraction(1, 2)
        for j in range(n_points):
            fn = TestFunction(lam=rng.uniform(-1, 1), poly=_random_poly(1, 4, rng))
            tau = rng.uniform(-0.5, 0.5)
            pt = (rng.uniform(0.1, 2.0) * rng.choice([-1, 1]),)
            samples.append((pt, theorem1_sides(params, fn, tau, pt)))
        report = report_from_samples(
            "oscillator-reduction", "B1", {"k": 0, "omega": 1.0}, samples
        )
        return [report], checks_ok, report.max_rel_residual

    (reports, ok, worst), elapsed = _timed(run)
    return SuiteResult(
        name="oscillator",
        passed=ok and worst <= tol,
        tolerance=tol,
        max_residual=worst,
        reports=tuple(reports),
        elapsed=elapsed,
    )


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


def run_suites(names=None, seed: int = 0) -> list:
    chosen = list(SUITES) if not names else list(names)
    out = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        out.append(SUITES[name](seed=seed))
    return out
