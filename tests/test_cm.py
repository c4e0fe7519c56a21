"""Confined many-body Hamiltonian, ground state, transformed form, spin matrix."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import dunkl_lab
from dunkl_lab.cm import (
    CMParams,
    SPIN_SITE_CAP,
    cm_apply,
    conjugation_sides,
    ground_energy,
    ground_energy_a_type,
    groundstate_residual,
    groundstate_value,
    pair_gauge,
    pf_matrix,
    transformed_hamiltonian_check,
)
from dunkl_lab.dunkl import PolyFunction
from dunkl_lab.errors import DimensionError, ExactModeError, HyperplaneError
from dunkl_lab.polyx import MultiPoly, parse_poly
from dunkl_lab.rootsys import build_root_system, sample_generic_point
from dunkl_lab.sde import hermite_roots


def test_ground_energy_closed_forms():
    # omega (gamma + N/2) for a few exact cases
    b2 = CMParams(build_root_system("B", 2, (Fraction(1, 2), Fraction(5, 3))), omega=Fraction(3, 2))
    gamma = 2 * Fraction(1, 2) + 2 * Fraction(5, 3)
    assert ground_energy(b2) == Fraction(3, 2) * (gamma + 1)

    # A_{N-1} with omega = k matches [kN + k^2 N(N-1)]/2
    for n in range(2, 11):
        k = Fraction(7, 3)
        params = CMParams(build_root_system("A", n - 1, (k,)), omega=k)
        assert ground_energy(params) == ground_energy_a_type(n, k)


def test_ground_energy_rejects_negative_omega():
    with pytest.raises(ValueError):
        CMParams(build_root_system("A", 2, (1,)), omega=-1)


@pytest.mark.parametrize("omega", [math.nan, math.inf], ids=["nan", "inf"])
def test_cm_params_rejects_nan_omega(omega):
    with pytest.raises(ValueError, match="omega"):
        CMParams(build_root_system("A", 2, (1,)), omega=omega)


def test_cm_apply_harmonic_oscillator():
    # k = 0, N = 1: H f = -f''/2 + omega^2 x^2 f / 2 on f = x
    params = CMParams(build_root_system("B", 1, (0,)), omega=Fraction(2))
    f = PolyFunction(parse_poly("x1", nvars=1))
    x = (Fraction(1, 3),)
    assert cm_apply(params, f, x) == Fraction(2) ** 2 * Fraction(1, 3) ** 2 / 2 * Fraction(1, 3)


def test_cm_apply_exchange_term():
    # rank 1, f = x (odd): inversion term reads (|a|^2/2) k (k f - f o sigma)/x^2
    k = Fraction(3, 2)
    params = CMParams(build_root_system("B", 1, (k,)), omega=Fraction(0))
    f = PolyFunction(parse_poly("x1", nvars=1))
    x = (Fraction(2),)
    want = Fraction(1, 2) * k * (k * 2 - (-2)) / Fraction(4)
    assert cm_apply(params, f, x) == want


def test_groundstate_value_and_residual():
    params = CMParams(build_root_system("A", 2, (Fraction(13, 10),)), omega=0.8)
    x = sample_generic_point(params.system, seed=0)
    xf = tuple(float(c) for c in x)
    phi = groundstate_value(params, xf)
    prod = 1.0
    for r in params.system.positive_roots():
        prod *= abs(sum(float(a) * b for a, b in zip(r.vector, xf))) ** 1.3
    want = math.exp(-0.8 * sum(c * c for c in xf) / 2) * prod
    assert phi == pytest.approx(want, rel=1e-12)
    # (H - E0) Phi0 = 0 up to roundoff
    assert abs(groundstate_residual(params, xf)) < 1e-12 * abs(float(ground_energy(params)) * phi)


@pytest.mark.parametrize("family,rank,mults,omega", [
    ("A", 2, ((Fraction(13, 10)),), 0.8),
    ("B", 2, (Fraction(9, 10), Fraction(17, 10)), 1.1),
    ("D", 4, (Fraction(3, 4),), 1.7),
])
def test_groundstate_residual_many_points(family, rank, mults, omega):
    mlist = mults if isinstance(mults, tuple) else (mults,)
    params = CMParams(build_root_system(family, rank, mlist), omega=omega)
    e0 = float(ground_energy(params))
    for seed in range(10):
        x = tuple(float(c) for c in sample_generic_point(params.system, seed=seed, min_distance=0.1))
        phi = groundstate_value(params, x)
        scale = max(abs(e0 * phi), 1e-30)
        assert abs(groundstate_residual(params, x)) < 1e-9 * scale


def test_transformed_hamiltonian_identity():
    x = (0.37, -1.21)
    for k in (1, 2, Fraction(5, 2)):
        for text in ("x1", "x1 x2", "x1^3 - x2^2"):
            p = parse_poly(text, nvars=2)
            pair = transformed_hamiltonian_check(2, k, p, x)
            assert abs(pair.residual) < 1e-10 * pair.scale


def test_transformed_hamiltonian_n3():
    p = parse_poly("x1^2 x3 - 2 x2", nvars=3)
    pair = transformed_hamiltonian_check(3, 2, p, (0.9, -0.4, 1.7))
    assert abs(pair.residual) < 1e-10 * pair.scale


@pytest.mark.parametrize("family,rank,mults", [
    ("B", 3, (Fraction(1), Fraction(2))),
    ("D", 4, (Fraction(1, 2),)),
])
def test_conjugation_sides_beyond_type_a(family, rank, mults):
    # -e^{W0}(H - E0)e^{-W0} p = (1/2 Delta_k - omega E) p on every monomial
    # of degree <= 3, at omega off and on the type-A choice omega = k
    system = build_root_system(family, rank, mults)
    points = [tuple(float(c) for c in sample_generic_point(system, seed=s, min_distance=0.1))
              for s in range(3)]
    for omega in (Fraction(1, 2), Fraction(2)):
        params = CMParams(system, omega=omega)
        for exps in itertools.product(range(4), repeat=system.dimension):
            if sum(exps) <= 3:
                mono = MultiPoly(system.dimension, {exps: Fraction(1)})
                for pair in conjugation_sides(params, mono, points):
                    assert abs(pair.residual) <= 1e-10 * pair.scale, (omega, exps)


@pytest.mark.parametrize("system", [
    build_root_system("A", 2, (0.5,)),
    build_root_system("I2", 5, (1,), scale="normalized"),
], ids=["float-multiplicity", "I2(5)-normalized"])
def test_conjugation_sides_need_an_exact_system(system):
    n = system.dimension
    with pytest.raises(ExactModeError):
        conjugation_sides(CMParams(system, omega=1), MultiPoly.variable(n, 0), [(0.3, 1.1, 2.0)[:n]])


def test_side_by_side_scale_floor():
    pair = transformed_hamiltonian_check(2, 1, MultiPoly.zero(2), (1.0, 2.0))
    assert pair.lhs == pair.rhs == 0.0
    assert pair.scale == 1.0


# -- exchange-operator spin matrix -------------------------------------------


def test_pf_matrix_two_sites():
    # sites at the two-point Hermite configuration, spacing sqrt(2)
    s = 1.0 / math.sqrt(2.0)
    mat = pf_matrix((-s, s))
    assert mat.n_sites == 2
    m = mat.matrix
    assert np.array_equal(m, m.T)
    vals = sorted(mat.eigenvalues())
    assert vals == pytest.approx([-0.5, 0.5, 0.5, 0.5])


def test_pf_matrix_trace_identity():
    # tr H = 2^(N-1) * sum_{i<j} 1/(z_i - z_j)^2
    for n in range(2, 7):
        z = np.arange(n, dtype=float) * 0.7 + 0.1 * np.arange(n) ** 2
        mat = pf_matrix(tuple(z))
        want = 2 ** (n - 1) * sum(
            1.0 / (z[i] - z[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        assert mat.trace() == pytest.approx(want, rel=1e-12)


def test_pf_matrix_symmetry_exactness():
    z = (0.2, 1.1, 2.9, 4.0)
    m = pf_matrix(z).matrix
    assert np.array_equal(m, m.T)  # exact, not approximate


def test_pf_matrix_rejects_bad_input():
    with pytest.raises(DimensionError):
        pf_matrix((1.0,))
    with pytest.raises(ValueError):
        pf_matrix((1.0, 1.0))
    with pytest.raises(DimensionError):
        pf_matrix(tuple(float(i) for i in range(SPIN_SITE_CAP + 1)))


@pytest.mark.parametrize(
    "z, names",
    [
        ((math.nan, 1.0), "site 0 "),
        ((0.0, 1e-160), "sites 0 and 1 "),  # the weight overflows to inf
        ((0.0, math.inf), "site 1 "),  # the weight would be 0.0
        ((0.0, 1.0, 1e-170), "sites 0 and 2 "),  # the square underflows to 0.0
        ((0.0, 1e200), "sites 0 and 1 "),  # the square overflows
        ((-1e308, 1e308), "sites 0 and 1 "),  # the difference overflows
    ],
)
def test_pf_matrix_rejects_non_finite_sites_and_weights(z, names):
    with pytest.raises(ValueError, match=names):
        pf_matrix(z)


@pytest.mark.parametrize(
    "x, error, names",
    [
        ((math.nan, 1.0), ValueError, "coordinate 0 "),  # gave NaN
        ((0.0, 1e-160), HyperplaneError, "particles 0 and 1 "),  # the square gave inf
        ((0.0, 1e-170), HyperplaneError, "particles 0 and 1 "),  # ZeroDivisionError
    ],
)
def test_pair_gauge_rejects_non_finite_coordinates_and_pair_terms(x, error, names):
    with pytest.raises(error, match=names):
        pair_gauge(x)


def test_spin_chain_compares_and_hashes_by_identity():
    a, b = pf_matrix((0.0, 1.0)), pf_matrix((0.0, 1.0))
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_pf_matrix_magnetization_commutes():
    # total z-magnetization is conserved: H is block diagonal over bit count
    z = (0.0, 1.0, 2.5)
    mat = pf_matrix(z)
    m = mat.matrix
    bits = [bin(b).count("1") for b in range(m.shape[0])]
    for a in range(m.shape[0]):
        for b in range(m.shape[0]):
            if m[a, b] != 0:
                assert bits[a] == bits[b]


def test_pf_matrix_matches_polychronakos_frahm_spectrum():
    # at the Hermite zeros the spectrum is sum_{i<j} (z_i - z_j)^-2 minus the
    # sum of the descent positions i (s_i > s_{i+1}, 1-based) of s in {1,2}^N
    # (Polychronakos, PRL 70, 1993; Frahm, J. Phys. A 26, 1993)
    for n in range(2, 13):
        z = hermite_roots(n)
        pair = sum(1.0 / (z[i] - z[j]) ** 2 for i in range(n) for j in range(i + 1, n))
        exact = np.sort([
            pair - sum(i + 1 for i in range(n - 1) if s[i] > s[i + 1])
            for s in itertools.product((1, 2), repeat=n)
        ])
        got = pf_matrix(z).eigenvalues()
        bound = 1e-9 * max(1.0, float(np.abs(exact).max()))
        assert np.abs(got - exact).max() <= bound, n


def _pf_matrix_loop(z):
    # the state-by-state construction, kept as the reference for pf_matrix
    n = len(z)
    dim = 1 << n
    h = np.zeros((dim, dim))
    for i in range(n):
        for j in range(i + 1, n):
            w = 1.0 / (z[i] - z[j]) ** 2
            for b in range(dim):
                if (b >> i) & 1 == (b >> j) & 1:
                    h[b, b] += w
                else:
                    h[b ^ ((1 << i) | (1 << j)), b] += w
    return h


def test_pf_matrix_equals_state_loop():
    for n in range(2, 9):
        z = [float(v) for v in hermite_roots(n)]
        assert np.array_equal(pf_matrix(z).matrix, _pf_matrix_loop(z)), n


# LAPACK's bits depend on the BLAS thread count from 10 sites on, so the pin
# runs in a fresh process with one BLAS thread, as the benchmark workers do
SPECTRUM_PIN = (
    "import hashlib\n"
    "from dunkl_lab.cm import SPIN_SITE_CAP, pf_matrix\n"
    "from dunkl_lab.sde import hermite_roots\n"
    "digest = hashlib.sha256()\n"
    "for n in range(2, SPIN_SITE_CAP + 1):\n"
    "    chain = pf_matrix(hermite_roots(n))\n"
    "    digest.update(chain.eigenvalues().tobytes())\n"
    "    digest.update(float.hex(chain.trace()).encode())\n"
    "print(digest.hexdigest())\n"
)


def test_pf_matrix_spectrum_and_trace_golden_digest():
    # sha256 of the spectrum bytes and the trace's float.hex at the Hermite
    # zeros for every site count up to the cap: pins the bits of the block
    # construction, of each block's row order and of the trace's b-order sum
    src = os.path.dirname(os.path.dirname(dunkl_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, "-c", SPECTRUM_PIN], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "96ab0ee9df908d50b496f1aa416020e58414706d11232844078b9678a44d24bb"


def test_pf_matrix_spectrum_memory_is_blockwise():
    # the dense 2^12 x 2^12 matrix alone is 128 MiB; the blocks need a quarter
    z = hermite_roots(SPIN_SITE_CAP)
    tracemalloc.start()
    try:
        pf_matrix(z).eigenvalues()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak
