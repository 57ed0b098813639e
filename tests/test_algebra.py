import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from padelab import algebra
from padelab.algebra import (
    Poly,
    kernel_vector,
    nullspace_solve,
    parse_complex,
    poly_derivative_at,
    poly_eval,
    poly_roots,
)
from padelab.errors import RootFailure, SolveFailure
from padelab.oracles import gram_schmidt_monic, monic_chebyshev


def test_poly_eval_examples():
    assert poly_eval(Poly([-1, 0, 1]), 2) == 3
    assert poly_eval(Poly(), mp.mpc(5, 1)) == 0
    assert poly_eval(Poly([1, 1]), mp.mpc(0, 1)) == mp.mpc(1, 1)


def test_poly_derivative_examples():
    sq = Poly([0, 0, 1])
    assert poly_derivative_at(sq, 3, 1) == 6
    assert poly_derivative_at(sq, 3, 3) == 0
    assert poly_derivative_at(Poly([0, 0, 0, 1]), 1, 2) == 6


def test_zero_poly_degree_convention():
    assert Poly().degree == -1
    assert Poly([0, 0]).degree == -1
    # trailing noise below the drop tolerance is trimmed
    assert Poly([1, mp.mpf("1e-60")]).degree == 0


def test_parse_complex_literals():
    assert parse_complex("-3/7+4i/7") == (Fraction(-3, 7), Fraction(4, 7))
    assert parse_complex("5/9+3i/4") == (Fraction(5, 9), Fraction(3, 4))
    assert parse_complex("0.53") == (Fraction(53, 100), Fraction(0))
    assert parse_complex("-j") == (Fraction(0), Fraction(-1))
    assert parse_complex("1.5e-2") == (Fraction(3, 200), Fraction(0))


def test_nullspace_trivial_kernels():
    v = nullspace_solve([[mp.mpc(1), mp.mpc(0)]], rows=1, cols=2)
    assert v[0] == 0 and v[1] == 1
    v = nullspace_solve([[mp.mpc(0), mp.mpc(1)]])
    assert v[0] == 1 and v[1] == 0


def test_nullspace_arcsine_hankel_matches_gram_schmidt_oracle():
    # oracle first: orthogonalize monomials against the moment pairing
    moms = [mp.mpc(1), mp.mpc(0), mp.mpc(0.5), mp.mpc(0)]
    oracle = gram_schmidt_monic(moms, 2)
    assert max(
        abs(a - b) for a, b in zip(oracle.coeffs, [mp.mpc(-0.5), mp.mpc(0), mp.mpc(1)])
    ) < mp.mpf("1e-70")
    M = [[moms[i + j] for i in range(3)] for j in range(2)]
    v = nullspace_solve(M)
    assert max(abs(a - b) for a, b in zip(v, oracle.coeffs)) < mp.mpf("1e-70")


def test_poly_roots_quadratics():
    r = poly_roots(Poly([mp.mpf(-0.5), 0, 1]))
    s = 1 / mp.sqrt(2)
    assert abs(r[0] + s) < mp.mpf("1e-70") and abs(r[1] - s) < mp.mpf("1e-70")
    r = poly_roots(Poly([1, 0, 1]))
    assert abs(r[0] + mp.mpc(0, 1)) < mp.mpf("1e-70")
    assert abs(r[1] - mp.mpc(0, 1)) < mp.mpf("1e-70")


def test_poly_roots_chebyshev5_from_oracle():
    moms = [mp.mpc(x) for x in
            [1, 0, mp.mpf(1) / 2, 0, mp.mpf(3) / 8, 0, mp.mpf(5) / 16,
             0, mp.mpf(35) / 128, 0, mp.mpf(63) / 256, 0]]
    q5 = gram_schmidt_monic(moms, 5)
    roots = poly_roots(q5)
    expected = sorted(mp.cos((2 * k - 1) * mp.pi / 10) for k in range(1, 6))
    for got, want in zip(roots, expected):
        assert abs(got - want) < mp.mpf("1e-60")


def test_poly_roots_chebyshev40_at_512_bits():
    algebra.set_precision(512)
    roots = poly_roots(monic_chebyshev(40))
    exact = sorted(mp.cos((2 * k + 1) * mp.pi / 80) for k in range(40))
    assert len(roots) == 40
    assert max(abs(a - b) for a, b in zip(roots, exact)) < mp.mpf("1e-120")


def test_poly_roots_triple_root_cluster():
    # (x-1)^3 (x+2): the float64 seeds crowd the triple root
    p = Poly.from_roots([1, 1, 1, -2])
    roots = poly_roots(p)
    maxc = max(abs(c) for c in p.coeffs)
    for r in roots:
        bound = algebra.root_tolerance() * maxc * (1 + abs(r)) ** 4
        assert abs(poly_eval(p, r)) <= bound
    assert abs(roots[0] + 2) < mp.mpf("1e-60")
    assert max(abs(r - 1) for r in roots[1:]) < mp.mpf("1e-30")


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_poly_roots_fallback_start_matches_seeded(monkeypatch, failure):
    p = monic_chebyshev(5)
    seeded = poly_roots(p)

    def broken_roots(coeffs):
        if failure == "raise":
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return np.full(len(coeffs) - 1, np.nan, dtype=complex)

    monkeypatch.setattr(algebra.np, "roots", broken_roots)
    assert poly_roots(p) == seeded


@pytest.mark.filterwarnings("error")
def test_poly_roots_coefficient_beyond_float64_range():
    # -10^400 is -inf in float64: numpy.roots would warn and raise
    # LinAlgError, so it is not called; the default start then fails to
    # converge within the step ladder
    p = Poly([-(10**400), 0, 1], trim=False)
    with pytest.raises(RootFailure):
        poly_roots(p)


def test_poly_roots_repeatable_and_independent_of_seed_order(monkeypatch):
    rng = random.Random(314)
    p = Poly(
        [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)] + [1]
    )
    first = poly_roots(p)
    assert poly_roots(p) == first
    numpy_roots = np.roots

    def shuffled_roots(coeffs):
        seeds = list(numpy_roots(coeffs))
        rng.shuffle(seeds)
        return np.array(seeds)

    monkeypatch.setattr(algebra.np, "roots", shuffled_roots)
    for _ in range(3):
        assert poly_roots(p) == first


def test_roots_reconstruction_property():
    rng = random.Random(20260811)
    for deg in (3, 8, 14, 20):
        coeffs = [
            mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg)
        ] + [mp.mpc(1)]
        p = Poly(coeffs)
        roots = poly_roots(p)
        rebuilt = Poly.from_roots(roots)
        tol = mp.mpf(2) ** (-(mp.mp.prec // 8))
        assert max(abs(a - b) for a, b in zip(rebuilt.coeffs, p.coeffs)) < tol


def test_nullspace_residual_property():
    rng = random.Random(7)
    for rows, cols in ((3, 5), (5, 6), (8, 12)):
        M = [
            [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(cols)]
            for _ in range(rows)
        ]
        info = kernel_vector(M)
        norm_m = max(mp.fsum(abs(a) for a in row) for row in M)
        norm_v = max(abs(x) for x in info.vector)
        res = max(
            abs(mp.fsum(row[j] * info.vector[j] for j in range(cols))) for row in M
        )
        assert res <= algebra.solve_tolerance() * norm_m * norm_v


def test_monic_pivot_stable_under_precision_doubling():
    rng = random.Random(99)
    for _ in range(3):
        rowsf = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(4)]
        algebra.set_precision(256)
        v_lo = nullspace_solve([[mp.mpf(x) for x in row] for row in rowsf])
        pivot_lo = max(i for i, x in enumerate(v_lo) if abs(x) > mp.mpf("1e-30"))
        algebra.set_precision(512)
        v_hi = nullspace_solve([[mp.mpf(x) for x in row] for row in rowsf])
        pivot_hi = max(i for i, x in enumerate(v_hi) if abs(x) > mp.mpf("1e-30"))
        assert pivot_lo == pivot_hi
        algebra.set_precision(256)


def test_kernel_dimension_reported():
    info = kernel_vector([[mp.mpc(1), mp.mpc(0), mp.mpc(0)]])
    assert info.nullity == 2
    assert info.vector[2] == 1  # highest-index free column carries the vector


def test_kernel_vector_requires_underdetermined():
    with pytest.raises(ValueError):
        kernel_vector([[mp.mpc(1)]])


def test_kernel_residual_bound_enforced():
    # irrational entries guarantee a nonzero rounding residual against a 0 bound
    M = [
        [mp.mpc(1), mp.pi, mp.e, mp.mpc(1)],
        [mp.sqrt(2), mp.mpc(1), mp.log(2), mp.pi],
    ]
    with pytest.raises(SolveFailure):
        kernel_vector(M, residual_bound=mp.mpf(0))


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        algebra.set_precision(64)
