"""End-to-end acceptance checklist.

Eleven numbered criteria, one test each, covering the exact polynomial
identities, the scaling identity and its specializations, the Hamiltonian
structure, the stochastic moment law, the freezing limit, and the classical
root oracles.  Each test prints a single PASS/FAIL line; tolerances and
runtime budgets are asserted, not just reported.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from dunkl_lab.cm import CMParams, ground_energy, ground_energy_a_type, pf_matrix
from dunkl_lab.dunkl import DunklContext, commutator
from dunkl_lab.polyx import MultiPoly
from dunkl_lab.rootsys import build_root_system
from dunkl_lab.sde import (
    SimConfig,
    deterministic_freeze_ode,
    freezing_experiment,
    hermite_electrostatic_residual,
    hermite_roots,
    simulate,
)
from dunkl_lab.suites import (
    suite_corollary1,
    suite_ground_state,
    suite_lemma1,
    suite_lemma2,
    suite_oscillator,
    suite_theorem1,
    suite_transformed_hamiltonian,
)

SEED = 0


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, detail


def test_criterion_01_alternating_discriminant():
    res = suite_lemma1(seed=SEED)
    ok = res.passed and res.max_residual == 0.0 and res.elapsed < 10.0
    _report(1, ok, f"exact sign flip on 5 systems x 100 points, {res.elapsed:.2f}s")


def test_criterion_02_double_sum_collapse():
    res = suite_lemma2(seed=SEED)
    ok = res.passed and res.max_residual < 1e-10 and res.elapsed < 30.0
    _report(
        2,
        ok,
        f"rational residual 0, float residual {res.max_residual:.2e}, {res.elapsed:.2f}s",
    )


def test_criterion_03_scaling_identity():
    res = suite_theorem1(seed=SEED)
    ok = res.passed and res.max_residual < 1e-8 and res.elapsed < 120.0
    _report(
        3,
        ok,
        f"5 systems x 3 frequencies x 5 multiplicity scales, "
        f"max rel {res.max_residual:.2e}, {res.elapsed:.2f}s",
    )


def test_criterion_04_pair_sum_specialization():
    res = suite_corollary1(seed=SEED)
    # the suite's one note: "max disagreement with the general path <gap>"
    gap = float(res.notes[0].rsplit(" ", 1)[1])
    ok = res.passed and res.max_residual < 1e-8 and gap <= 1e-12
    _report(
        4,
        ok,
        f"pair-sum form agrees with the general path to 1e-12 and holds, "
        f"max rel {res.max_residual:.2e}",
    )


def test_criterion_05_conjugated_hamiltonian_and_commutativity():
    res = suite_transformed_hamiltonian(seed=SEED)
    commute_ok = True
    for n, k in product((2, 3), (1, 2)):
        system = build_root_system("A", n - 1, [Fraction(k)])
        ctx = DunklContext(system)
        monos = [
            MultiPoly(n, {exps: Fraction(1)})
            for exps in product(range(5), repeat=n)
            if sum(exps) <= 4
        ]
        zero = MultiPoly.zero(n)
        for p in monos:
            for i in range(n):
                for j in range(i + 1, n):
                    if commutator(ctx, i, j, p) != zero:
                        commute_ok = False
    ok = res.passed and res.max_residual < 1e-8 and commute_ok
    _report(
        5,
        ok,
        f"monomial identity max rel {res.max_residual:.2e}; "
        f"deformed derivatives commute exactly on the same grid",
    )


def test_criterion_06_ground_state_energy():
    exact_ok = True
    for n in range(2, 11):
        for k in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
            system = build_root_system("A", n - 1, [k])
            params = CMParams(system=system, omega=k)
            if ground_energy(params) != ground_energy_a_type(n, k):
                exact_ok = False
    res = suite_ground_state(seed=SEED)
    ok = exact_ok and res.passed and res.max_residual < 1e-8
    _report(
        6,
        ok,
        f"closed-form energy exact for N <= 10; eigenrelation max rel "
        f"{res.max_residual:.2e} over 50 points",
    )


def test_criterion_07_moment_law():
    a2 = build_root_system("A", 2, (1.0,), scale="normalized")
    b2 = build_root_system("B", 2, (1.0, 1.0), scale="normalized")
    start = time.perf_counter()
    worst = 0.0
    for (system, x0), k_scale, jumps in product(
        ((a2, (-1.0, 0.1, 1.2)), (b2, (0.6, 1.7))),
        (0.0, 0.5, 1.0),
        (False, True),
    ):
        cfg = SimConfig(
            system=system,
            x0=x0,
            horizon=1.0,
            obs_times=(0.25, 0.5),
            k_scale=k_scale,
            dt_base=1e-3,
            ensemble=10_000,
            master_seed=SEED + 1,
            jumps=jumps,
        )
        res = simulate(cfg)
        gamma = float(cfg.effective_system().gamma)
        base = sum(v * v for v in x0)
        for oi, t_obs in enumerate(res.obs_times):
            sq = (res.states[:, oi, :] ** 2).sum(axis=1)
            predicted = (system.dimension + 2.0 * gamma) * t_obs
            se = sq.std(ddof=1) / math.sqrt(len(sq))
            worst = max(worst, abs((sq.mean() - base - predicted) / se))
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 300.0
    _report(
        7,
        ok,
        f"quadratic moment within 3 SE on 12 ensembles x 3 times "
        f"(worst |z| = {worst:.2f}), {elapsed:.0f}s",
    )


def test_criterion_08_freezing():
    start = time.perf_counter()
    samples = freezing_experiment(4, (1e2, 1e4), t=1.0, n_paths=200, seed=SEED)
    elapsed = time.perf_counter() - start
    rough, frozen = samples
    ode_worst = 0.0
    for n in range(2, 9):
        ode_worst = max(ode_worst, deterministic_freeze_ode(n, t_end=1e3)["sup_error"])
    ok = (
        frozen.mean_sup < 0.05
        and frozen.mean_sup < rough.mean_sup
        and ode_worst < 1e-6
        and elapsed < 300.0
    )
    _report(
        8,
        ok,
        f"scaled ensemble within {frozen.mean_sup:.3f} of the Hermite roots "
        f"(k=1e2 gives {rough.mean_sup:.3f}); zero-noise flow within "
        f"{ode_worst:.1e} for N <= 8; {elapsed:.0f}s",
    )


def test_criterion_09_hermite_oracle():
    worst = max(
        hermite_electrostatic_residual(hermite_roots(n)) for n in range(2, 21)
    )
    z2 = hermite_roots(2)
    pin = max(abs(z2[0] + 1 / math.sqrt(2)), abs(z2[1] - 1 / math.sqrt(2)))
    ok = worst < 1e-10 and pin < 1e-14
    _report(
        9,
        ok,
        f"electrostatic residual {worst:.1e} for N <= 20; "
        f"two-point roots off by {pin:.1e}",
    )


def test_criterion_10_spin_chain_matrix():
    sym_ok = True
    trace_worst = 0.0
    for n in range(2, 7):
        chain = pf_matrix(hermite_roots(n))
        if not np.array_equal(chain.matrix, chain.matrix.T):
            sym_ok = False
        z = chain.positions
        pair_sum = sum(
            1.0 / (z[i] - z[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        expected = 2.0 ** (n - 1) * pair_sum
        trace_worst = max(
            trace_worst, abs(chain.trace() - expected) / abs(expected)
        )
    spectrum = np.sort(pf_matrix(hermite_roots(2)).eigenvalues())
    spectrum_ok = np.allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-12, rtol=0.0)
    ok = sym_ok and spectrum_ok and trace_worst < 1e-10
    _report(
        10,
        ok,
        f"exact symmetry for N <= 6, two-site spectrum (-1/2, 1/2, 1/2, 1/2), "
        f"trace identity off by {trace_worst:.1e}",
    )


def test_criterion_11_oscillator_reduction():
    res = suite_oscillator(seed=SEED)
    ok = res.passed and res.max_residual < 1e-10
    _report(
        11,
        ok,
        f"one-dimensional reflectionless case, max rel {res.max_residual:.2e}",
    )
