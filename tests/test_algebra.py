import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from padelab import algebra
from padelab.algebra import (
    Poly,
    kernel_vector,
    parse_complex,
    poly_eval,
    poly_roots,
    solve_linear,
    support_distance,
    trend_slope,
)
from padelab.errors import RootFailure, SolveFailure
from padelab.oracles import gram_schmidt_monic, monic_chebyshev


def test_poly_eval_examples():
    assert poly_eval(Poly([-1, 0, 1]), 2) == 3
    assert poly_eval(Poly(), mp.mpc(5, 1)) == 0
    assert poly_eval(Poly([1, 1]), mp.mpc(0, 1)) == mp.mpc(1, 1)


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
    # i may stand before or after the slash, or alone over a denominator
    assert parse_complex("3/7i") == (Fraction(0), Fraction(3, 7))
    assert parse_complex("i/7") == (Fraction(0), Fraction(1, 7))
    assert parse_complex("1e3i") == (Fraction(0), Fraction(1000))
    assert parse_complex(".5") == (Fraction(1, 2), Fraction(0))
    assert parse_complex(" 1 - 2.5e+1j + 3/4 ") == (Fraction(7, 4), Fraction(-25))


@pytest.mark.parametrize("text", ["3+", "1/2/3", "--1", "1--2", "4i/7/2", "2ii", "1/0",
                                  "i/0", "", "+", "1/-2", "4 i", "1 2", "/7i", "2*i", "nan"])
def test_parse_complex_rejects_what_is_not_a_sum_of_terms(text):
    # each was once read as some other number ("3+" as 4, "1/2/3" as 3/2,
    # "4i/7/2" as 8i/7) or escaped as ZeroDivisionError
    with pytest.raises(ValueError, match="malformed complex literal"):
        parse_complex(text)


def test_real_literal_rejects_an_imaginary_part():
    assert algebra.real_literal("-6/7") == Fraction(-6, 7)
    assert algebra.real_literal(Fraction(1, 8)) == Fraction(1, 8)
    with pytest.raises(ValueError, match="expected a real literal"):
        algebra.real_literal("1+i")
    with pytest.raises(ValueError, match="expected a real literal"):
        algebra.to_mpf("2j")


def test_nullspace_trivial_kernels():
    v = kernel_vector([[mp.mpc(1), mp.mpc(0)]]).vector
    assert v[0] == 0 and v[1] == 1
    v = kernel_vector([[mp.mpc(0), mp.mpc(1)]]).vector
    assert v[0] == 1 and v[1] == 0


def test_nullspace_arcsine_hankel_matches_gram_schmidt_oracle():
    # oracle first: orthogonalize monomials against the moment pairing
    moms = [mp.mpc(1), mp.mpc(0), mp.mpc(0.5), mp.mpc(0)]
    oracle = gram_schmidt_monic(moms, 2)
    assert max(
        abs(a - b) for a, b in zip(oracle.coeffs, [mp.mpc(-0.5), mp.mpc(0), mp.mpc(1)])
    ) < mp.mpf("1e-70")
    M = [[moms[i + j] for i in range(3)] for j in range(2)]
    v = kernel_vector(M).vector
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


def _ladder_roots(p):
    """The roots as the Durand-Kerner ladder alone gives them: mp.polyroots
    from the float64 seeds at 1.5x precision, sorted by (Re, Im)."""
    desc = list(reversed(p.coeffs))
    seeds = algebra._float_seeds([c / desc[0] for c in desc])
    roots = mp.polyroots(desc, maxsteps=algebra.ROOT_MAXSTEPS,
                         extraprec=mp.mp.prec // 2, roots_init=seeds)
    return sorted((mp.mpc(r) for r in roots), key=lambda z: (z.real, z.imag))


def _counting_polyroots(monkeypatch):
    calls = []
    polyroots = mp.polyroots

    def counting(*args, **kwargs):
        calls.append(1)
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(algebra.mp, "polyroots", counting)
    return calls


@pytest.mark.parametrize("bits", [256, 384, 512])
def test_poly_roots_newton_matches_ladder_bit_for_bit(monkeypatch, bits):
    algebra.set_precision(bits)
    rng = random.Random(bits)
    polys = [Poly([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)])
             for deg in (3, 8, 14, 20, 24)]
    if bits == 512:
        polys.append(monic_chebyshev(40))
    for p in polys:
        assert _assert_newton_is_reference(p) == p.degree
        expected = _ladder_roots(p)
        calls = _counting_polyroots(monkeypatch)
        assert poly_roots(p) == expected
        assert not calls  # the Newton polish was certified


@pytest.mark.parametrize("poly", ["random", "chebyshev"])
def test_poly_roots_duplicate_seeds_fall_back(monkeypatch, poly):
    # two seeds polished to the same root give overlapping discs
    rng = random.Random(314)
    p = (Poly([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)] + [1])
         if poly == "random" else monic_chebyshev(8))
    first = poly_roots(p)
    numpy_roots = np.roots

    def repeated_roots(coeffs):
        seeds = numpy_roots(coeffs)
        seeds[1] = seeds[0]
        return seeds

    monkeypatch.setattr(algebra.np, "roots", repeated_roots)
    calls = _counting_polyroots(monkeypatch)
    assert poly_roots(p) == first
    assert calls


def test_poly_roots_triple_root_takes_the_fallback(monkeypatch):
    # Newton converges only linearly to the triple root of (x-1)^3 (x+2)
    # (test_poly_roots_triple_root_cluster checks the roots' bounds)
    calls = _counting_polyroots(monkeypatch)
    poly_roots(Poly.from_roots([1, 1, 1, -2]))
    assert calls


def test_poly_roots_tiny_roots_under_large_coefficients_fall_back(monkeypatch):
    # the Horner floors are absolute, on the grid of the largest coefficient
    # (4e23 here), so Newton pins the roots near 1e-6 only to ~1e-74
    # relative; their discs are too wide to certify, and the ladder runs
    rng = random.Random(0)
    p = Poly.from_roots([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.mpf(10) ** e
                         for e in (-6, -6, -5, -4, 0, 3, 4, 5, 6, 6)])
    expected = _ladder_roots(p)
    calls = _counting_polyroots(monkeypatch)
    assert poly_roots(p) == expected
    assert calls


def test_solves_take_the_newton_path(monkeypatch):
    from padelab import cli, measure as ms, pade, scheme as sch
    from padelab.oracles import arcsine_measure

    def no_ladder(*args, **kwargs):
        raise AssertionError("mp.polyroots called")

    monkeypatch.setattr(algebra.mp, "polyroots", no_ladder)
    family = pade.solve_family(arcsine_measure(), ms.RationalPart.empty(),
                               sch.ClassicalScheme(), range(1, 11), mp.mpf("1e-40"))
    assert sorted(family.approximants) == list(range(1, 11))
    config = cli.load_config("paper_section4")
    algebra.set_precision(config.precision_bits)
    family = pade.solve_family(config.build_measure(), config.build_rational(),
                               config.build_scheme(), [10], config.quad_tol())
    assert not family.failures and len(family.approximants[10].poles) == 10


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
        v_lo = kernel_vector([[mp.mpf(x) for x in row] for row in rowsf]).vector
        pivot_lo = max(i for i, x in enumerate(v_lo) if abs(x) > mp.mpf("1e-30"))
        algebra.set_precision(512)
        v_hi = kernel_vector([[mp.mpf(x) for x in row] for row in rowsf]).vector
        pivot_hi = max(i for i, x in enumerate(v_hi) if abs(x) > mp.mpf("1e-30"))
        assert pivot_lo == pivot_hi
        algebra.set_precision(256)



def _random_complex(rng, rows, cols):
    return [
        [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_solve_linear_random_system_residual():
    rng = random.Random(606)
    A = _random_complex(rng, 6, 6)
    b = [row[0] for row in _random_complex(rng, 6, 1)]
    x = solve_linear(A, b)
    res = max(abs(mp.fsum(a * v for a, v in zip(row, x)) - bi) for row, bi in zip(A, b))
    norm_a = max(mp.fsum(abs(a) for a in row) for row in A)
    assert res <= algebra.solve_tolerance() * norm_a * max(abs(v) for v in x)


def test_solve_linear_singular_system_raises():
    with pytest.raises(SolveFailure):
        solve_linear([[mp.mpc(1), mp.mpc(2)], [mp.mpc(2), mp.mpc(4)]], [1, 2])
    A = _random_complex(random.Random(5), 2, 3)
    A.append([A[0][j] - 3 * A[1][j] for j in range(3)])
    with pytest.raises(SolveFailure):
        solve_linear(A, [1, 0, 0])


def test_solve_linear_normal_equations_match_kernel_vector():
    # the numerator's least-squares step: a Hermitian system A^H A x = A^H r
    rng = random.Random(42)
    rows = _random_complex(rng, 9, 4)
    rhs = [row[0] for row in _random_complex(rng, 9, 1)]
    ata = [[mp.fsum(mp.conj(r[a]) * r[b] for r in rows) for b in range(4)]
           for a in range(4)]
    atb = [mp.fsum(mp.conj(r[a]) * y for r, y in zip(rows, rhs)) for a in range(4)]
    x = solve_linear(ata, atb)
    v = kernel_vector([row + [-y] for row, y in zip(ata, atb)]).vector
    assert v[4] == 1
    tol = mp.mpf(2) ** (-(mp.mp.prec // 2))
    assert max(abs(a - b) for a, b in zip(x, v)) <= tol * max(abs(a) for a in x)

def test_kernel_dimension_reported():
    info = kernel_vector([[mp.mpc(1), mp.mpc(0), mp.mpc(0)]])
    assert info.nullity == 2
    assert info.vector[2] == 1  # highest-index free column carries the vector


def test_kernel_vector_requires_underdetermined():
    with pytest.raises(ValueError):
        kernel_vector([[mp.mpc(1)]])


def test_kernel_residual_bound_enforced(monkeypatch):
    # irrational entries guarantee a nonzero rounding residual against a 0 bound
    M = [
        [mp.mpc(1), mp.pi, mp.e, mp.mpc(1)],
        [mp.sqrt(2), mp.mpc(1), mp.log(2), mp.pi],
    ]
    kernel_vector(M)
    monkeypatch.setattr(algebra, "solve_tolerance", lambda: mp.mpf(0))
    with pytest.raises(SolveFailure):
        kernel_vector(M)


def test_coincidence_bound_scales_with_the_point():
    # |d| <= 10 eps max(1, |x|): the scale is 1 up to |x| = 1, then |x|
    for x in (mp.mpc(0), mp.mpc("0.3", "0.4"), mp.mpc(30, 40)):
        bound = 10 * mp.eps * max(1, abs(x))
        assert algebra.coincident(bound, x)
        assert algebra.coincident(mp.mpc(0, bound / 2), x)
        assert not algebra.coincident(2 * bound, x)
    assert algebra.coincident(mp.mpf(40) * mp.eps, mp.mpc(3, 4))
    assert not algebra.coincident(mp.mpf(40) * mp.eps, mp.mpc("0.3", "0.4"))


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        algebra.set_precision(64)


def _reference_support_distance(z, intervals):
    """``algebra.support_distance`` in mpf/mpc arithmetic, as it was."""
    z = mp.mpc(z)
    return min((mp.hypot(max(mp.mpf(0), a - z.real, z.real - b), z.imag)
                for a, b in intervals), default=mp.inf)


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_support_distance_is_the_mpc_reference_bit_for_bit(bits):
    rng = random.Random(3203)
    with algebra.working_precision(2 * bits):
        fine = [mp.mpc(5, 9) / 7, mp.mpc(-1, 1) / 3, mp.mpf(2) / 3]
    with algebra.working_precision(bits):
        tiny = mp.mpf(2) ** (2 - bits)
        systems = [
            [(-1, 1)], [(-2, -1), (1, 2)], [(mp.mpf(-6) / 7, mp.mpf(-1) / 8), (mp.mpf(2) / 5,
                                                                                mp.mpf(1) / 2)],
            # gaps 1 + 2^(2 - bits) and 1: distinct gaps whose distances from
            # a point 2^bits above round alike, the smaller one second
            [(-2, -1 - tiny), (1, 2)],
        ]
        far = mp.mpf(2) ** bits
        for system in systems:
            ends = [mp.mpf(x) for ab in system for x in ab]
            points = [*ends, mp.mpc(0, 1), mp.mpc(0, far), mp.mpc(0, 0), mp.mpc(0, -3), *fine,
                      *(mp.mpc(rng.uniform(-3, 3), rng.choice([0, rng.uniform(-2, 2)]))
                        for _ in range(40))]
            for z in points:
                got = support_distance(z, system)
                assert got._mpf_ == _reference_support_distance(z, system)._mpf_, (z, system)
        # a tie, and no intervals at all
        assert support_distance(mp.mpc(0, 1), [(-2, -1), (1, 2)]) == mp.sqrt(2)
        assert support_distance(mp.mpc(0, far), systems[3]) == mp.hypot(1 + tiny, far) == far
        assert support_distance(mp.mpc(1, 1), []) is _reference_support_distance(1, []) is mp.inf


def test_workload_support_distances_are_the_mpc_reference_bit_for_bit(workload_samples):
    calls = workload_samples["support_distance"]
    for bits, (z, intervals), got in calls:
        with algebra.working_precision(bits):
            assert got._mpf_ == _reference_support_distance(z, intervals)._mpf_
    assert len(calls) > 500


def test_segment_distance_and_trend_slope():
    # the distance to one segment, and to none
    assert support_distance(mp.mpc("0.5", 3), [(-1, 1)]) == 3
    assert support_distance(mp.mpc(4, 4), [(-1, 1)]) == 5
    assert support_distance(mp.mpf(-2), [(-1, 1)]) == 1
    assert support_distance(0, []) == mp.inf
    assert trend_slope([1, 2, 3, 4], [5, 3, 1, -1]) == -2
    assert trend_slope([1], [1]) == 0
    assert trend_slope([2, 2], [1, 3]) == 0


# ---------------------------------------------------------------------------
# the integer elimination against the mpmath reference it replaced
# ---------------------------------------------------------------------------


def _reference_eliminate(A):
    """Full-pivot elimination in mpc arithmetic: the reference of the integer
    ``algebra._eliminate``, with the same contract, scan order and stop."""
    nrows, npiv = len(A), len(A[0])
    scale = max((abs(a) for row in A for a in row[:npiv]), default=mp.mpf(0))
    rank_tol = algebra.drop_tolerance() * scale
    pivots = []
    used = [False] * npiv
    for step in range(nrows):
        best = mp.mpf(0)
        best_rc = None
        for r in range(step, nrows):
            for c in range(npiv):
                if not used[c] and abs(A[r][c]) > best:
                    best, best_rc = abs(A[r][c]), (r, c)
        if best_rc is None or best <= rank_tol:
            break
        r0, c0 = best_rc
        A[step], A[r0] = A[r0], A[step]
        used[c0] = True
        pivots.append((step, c0))
        prow = A[step]
        for r in range(step + 1, nrows):
            f = A[r][c0] / prow[c0]
            if f != 0:
                for c in range(len(prow)):
                    if c != c0 and prow[c] != 0:
                        A[r][c] = A[r][c] - f * prow[c]
                A[r][c0] = mp.mpc(0)
    return pivots


def _parts(M):
    """The rows of ``M`` as ``_mpc_`` tuples, as ``kernel_vector`` reads them."""
    return [[mp.mpc(a)._mpc_ for a in row] for row in M]


def _mpc_rows(rows):
    return [[mp.mp.make_mpc(x) for x in row] for row in rows]


def _eliminate_in_place(A):
    """``algebra._eliminate`` in the reference's contract: the pivot rows of
    the mpc rows ``A`` replaced by the rounded rows it returns; the pivots."""
    pivots, rows, _ = algebra._eliminate(_parts(A))
    A[: len(rows)] = _mpc_rows(rows)
    return pivots


def _reference_elimination(A):
    """``_reference_eliminate`` in ``algebra._eliminate``'s contract, for the
    tests that patch it in: ``_mpc_`` rows in; the pivots, the pivot rows as
    ``_mpc_`` tuples and the spread log2 |first pivot| / |last pivot| out."""
    B = _mpc_rows(A)
    pivots = _reference_eliminate(B)
    if not pivots:
        return pivots, [], 0.0
    (r0, c0), (r1, c1) = pivots[0], pivots[-1]
    spread = float(mp.log(abs(B[r0][c0]) / abs(B[r1][c1]), 2))
    return pivots, [[x._mpc_ for x in B[r]] for r, _ in pivots], spread


def _row_scaled(rng, rows, cols, lo=-300, hi=300):
    """Random complex rows, each scaled by 2^k with k drawn from [lo, hi]."""
    return [
        [a * mp.mpf(2) ** k for a in row]
        for row, k in zip(_random_complex(rng, rows, cols),
                          [rng.randint(lo, hi) for _ in range(rows)])
    ]


def _rel_diff(got, want):
    return max(abs(a - b) for a, b in zip(got, want)) / max(abs(b) for b in want)


def _systems(rng, sizes):
    """Row-scaled systems: rows spread over 2^-300..2^300, which the rank
    tolerance partly reads as zero, and full-rank systems whose rows spread
    over 2^+-50 around a scale 2^k, k in [-300, 300]."""
    out = []
    for rows, cols in sizes:
        out.append(_row_scaled(rng, rows, cols))
        k = rng.randint(-300, 300)
        out.append(_row_scaled(rng, rows, cols, k - 50, k + 50))
    return out


def test_eliminate_pivot_order_matches_reference():
    rng = random.Random(1201)
    for M in _systems(rng, ((3, 4), (6, 7), (12, 13), (20, 21), (8, 8))):
        A, B = [list(r) for r in M], [list(r) for r in M]
        pivots = _eliminate_in_place(A)
        assert pivots == _reference_eliminate(B)
        # the pivot rows agree; the rows past them hold rounding noise
        for a, b in zip(A[: len(pivots)], B):
            assert _rel_diff(a, b) < mp.mpf("1e-60")


def test_eliminate_breaks_exact_ties_like_reference():
    # per row two nonzeros of magnitude 1 or 2 in columns no other row uses:
    # no update changes an entry, so ties are exact and the scan order,
    # rows then columns, must decide them
    rng = random.Random(1206)
    units = [mp.mpc(1), mp.mpc(-1), mp.mpc(0, 1), mp.mpc(0, -2), mp.mpc(2)]
    for rows, cols in ((2, 5), (3, 6), (4, 9)):
        M = [[mp.mpc(0)] * cols for _ in range(rows)]
        picks = rng.sample(range(cols), 2 * rows)
        for r in range(rows):
            for c in picks[2 * r: 2 * r + 2]:
                M[r][c] = rng.choice(units)
        A, B = [list(r) for r in M], [list(r) for r in M]
        assert _eliminate_in_place(A) == _reference_eliminate(B)


def test_kernel_vector_nearly_dependent_rows_match_reference(monkeypatch):
    # row 1 is row 0 plus 2^-100 times a random row (above the 2^-128 rank
    # tolerance); the first pivot, 4 in column 0, cancels it exactly, and the
    # later updates of the small row keep their bits relative to it only if
    # the row is renormalised
    rng = random.Random(1207)
    M = _random_complex(rng, 6, 7)
    M[0][0] = mp.mpc(4)
    M[1] = [M[0][0]] + [a + b * mp.mpf(2) ** -100
                        for a, b in zip(M[0][1:], _random_complex(rng, 1, 6)[0])]
    info = kernel_vector(M)
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    want = kernel_vector(M)
    assert info.nullity == want.nullity == 1
    assert _rel_diff(info.vector, want.vector) < mp.mpf("1e-70")


def test_kernel_vector_ill_conditioned_hankel_beats_reference(monkeypatch):
    # the arcsine moment Hankel system at n = 30 loses about 1.4 digits per n;
    # the renormalised integer rows keep q within 1e-70 of monic Chebyshev,
    # where the mpc reference drifts to about 1e-57
    n = 30
    moms = [mp.mpc(mp.binomial(k, k // 2) / mp.mpf(2) ** k) if k % 2 == 0 else mp.mpc(0)
            for k in range(2 * n)]
    M = [[moms[i + j] for i in range(n + 1)] for j in range(n)]
    exact = monic_chebyshev(n).coeffs
    err = max(abs(a - b) for a, b in zip(kernel_vector(M).vector, exact))
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    ref = max(abs(a - b) for a, b in zip(kernel_vector(M).vector, exact))
    assert err < mp.mpf("1e-70") and err < ref


def test_kernel_vector_matches_reference_across_row_scales(monkeypatch):
    rng = random.Random(1202)
    systems = _systems(rng, [(rows, rows + 1) for rows in (2, 5, 10, 20)])
    got = [_assert_kernel_is_reference(M) for M in systems]
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    for k, (M, info) in enumerate(zip(systems, got)):
        want = kernel_vector(M)
        assert info.nullity == want.nullity
        assert k % 2 == 0 or info.nullity == 1
        assert _rel_diff(info.vector, want.vector) < mp.mpf("1e-60")


def test_kernel_vector_rank_deficient_matches_reference(monkeypatch):
    rng = random.Random(1203)
    M = _row_scaled(rng, 3, 5, -40, 40)
    # a fourth row dependent on the first two, at its own scale
    M.append([(M[0][j] * 2**-30 - 3 * M[1][j] * 2**-10) * mp.mpf(2) ** 20
              for j in range(5)])
    M = [[a * mp.mpf(2) ** 250 for a in row] for row in M]
    info = _assert_kernel_is_reference(M)
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    want = kernel_vector(M)
    assert info.nullity == want.nullity == 2
    assert _rel_diff(info.vector, want.vector) < mp.mpf("1e-60")


def test_solve_linear_matches_reference_across_row_scales(monkeypatch):
    rng = random.Random(1204)
    systems = []
    for n in (1, 4, 9, 16):
        k = rng.randint(-300, 300)
        A = _row_scaled(rng, n, n, k - 50, k + 50)
        # zeros in b leave entries of the last column of [A | -b] empty
        b = [row[0] * mp.mpc(rng.uniform(-1, 1), 1) if i % 3 != 1 else mp.mpc(0)
             for i, row in enumerate(A)]
        systems.append((A, b))
    got = [solve_linear(A, b) for A, b in systems]
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    for (A, b), x in zip(systems, got):
        assert _rel_diff(x, solve_linear(A, b)) < mp.mpf("1e-60")


def test_singular_scaled_system_raises_like_reference(monkeypatch):
    rng = random.Random(1205)
    A = _row_scaled(rng, 2, 3, -40, 40)
    A.append([(A[0][j] + A[1][j] * 2**37) * 2**-20 for j in range(3)])
    A = [[a * mp.mpf(2) ** -280 for a in row] for row in A]
    b = [1, 2, 3]
    with pytest.raises(SolveFailure):
        solve_linear(A, b)
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    with pytest.raises(SolveFailure):
        solve_linear(A, b)


def test_fixed_vector_grid():
    re, im, e = algebra._fixed_vector([mp.mpc(3, -1), mp.mpc(0), mp.mpc("0.5", 0)], 100)
    assert e == 1 - 100 and max(map(abs, re + im)).bit_length() == 101
    assert (re[0] + 1j * im[0]) * 2.0**e == 3 - 1j and re[1] == im[1] == 0
    assert algebra._fixed_vector([mp.mpc(0)], 100) == ([0], [0], 0)


def test_poly_roots_cluster_gives_up_newton_early(monkeypatch):
    # the oracle row's polynomial: the float64 seeds miss four roots 1e-4
    # apart by 4e-3, where Newton's steps shrink only about 0.8x per step;
    # the first such seed gives up at its third step, not after
    # NEWTON_MAXSTEPS, and the ladder finds the roots
    algebra.set_precision(384)
    cluster = [1 + k * mp.mpf("1e-4") for k in range(4)]
    p = Poly.from_roots(cluster) * monic_chebyshev(16)
    steps = []
    ratio, newton = algebra.fixed_ratio, algebra._newton
    monkeypatch.setattr(algebra, "_newton", lambda *args: steps.append(0) or newton(*args))

    def counted_ratio(*args):
        steps[-1] += 1
        return ratio(*args)

    monkeypatch.setattr(algebra, "fixed_ratio", counted_ratio)
    calls = _counting_polyroots(monkeypatch)
    roots = poly_roots(p)
    assert calls
    # _polished stops at the first seed that does not converge
    assert steps[-1] <= 4
    exact = sorted(cluster + [mp.cos((2 * k + 1) * mp.pi / 32) for k in range(16)])
    assert max(abs(a - b) for a, b in zip(roots, exact)) < mp.mpf("1e-60")


# ---------------------------------------------------------------------------
# the tuple arithmetic of the kernel solve and the Newton polish against the
# mpc code it replaced, bit for bit
# ---------------------------------------------------------------------------


def _reference_matrix_scale(M):
    best = mp.mpf(0)
    for row in M:
        s = mp.fsum(abs(a) for a in row)
        if s > best:
            best = s
    return best


def _reference_kernel(M):
    """``kernel_vector`` in mpc arithmetic: the pivots and rows of
    ``algebra._eliminate``, then the mpc back-substitution, monic scaling and
    relative residual it had. Returns (vector, residual, nullity)."""
    ncols = len(M[0])
    pivots, rows, _ = algebra._eliminate(_parts(M))
    # each part rounded to the working precision, as mp.mpf((m, e)) rounds it
    assert all(mp.mpf(x)._mpf_ == x for row in rows for z in row for x in z)
    A = _mpc_rows(rows)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    v = [mp.mpc(0)] * ncols
    v[free_cols[-1]] = mp.mpc(1)
    for r, c in reversed(pivots):
        row = A[r]
        v[c] = -mp.fdot((row[j], v[j]) for j in range(ncols) if j != c and v[j] != 0) / row[c]
    top = max(abs(x) for x in v)
    tol = algebra.drop_tolerance() * top
    pivot_idx = max(i for i, x in enumerate(v) if abs(x) > tol)
    scale_inv = v[pivot_idx]
    v = [x / scale_inv for x in v]
    norm_m = _reference_matrix_scale(M)
    norm_v = max(abs(x) for x in v)
    res = mp.mpf(0)
    for row in M:
        res = max(res, abs(mp.fdot(row, v)))
    rel = res / (norm_m * norm_v) if norm_m > 0 else res
    return v, rel, ncols - len(pivots)


def _assert_kernel_is_reference(M, info=None):
    """``kernel_vector(M)``, or its ``info``, equals ``_reference_kernel(M)``
    in every bit."""
    info = info or kernel_vector(M)
    v, rel, nullity = _reference_kernel(M)
    assert [x._mpc_ for x in info.vector] == [x._mpc_ for x in v]
    assert info.residual._mpf_ == rel._mpf_
    assert info.nullity == nullity
    return info


def _reference_newton(fp, fd, z):
    """``algebra._newton`` in mpc arithmetic, as it was."""
    prec = mp.mp.prec
    last = None
    for k in range(algebra.NEWTON_MAXSTEPS):
        g = algebra.GridPoint(z)
        try:
            step = mp.mp.make_mpc(algebra.fixed_ratio(fp(g), fd(g)))
        except ZeroDivisionError:
            return None
        z = z - step
        if not step:
            return z
        top_step = max(exp + bc - 1 for _, man, exp, bc in step._mpc_ if man)
        top_z = max((exp + bc - 1 for _, man, exp, bc in z._mpc_ if man), default=0)
        if top_step <= max(top_z, 0) - prec + 2:
            return z
        size = abs(step)
        if k >= 2 and 2 * size > last:
            return None
        last = size
    return None


def _assert_newton_is_reference(p):
    """From each float64 seed of ``p``, ``algebra._newton`` takes as many
    steps as ``_reference_newton`` and gives its bits, or None with it;
    returns how many seeds converged."""
    desc = list(reversed(p.coeffs))
    fp = algebra.FixedPoly(p)
    fd = fp.derivative()
    steps, ratio = [], algebra.fixed_ratio
    converged = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "fixed_ratio", lambda *args: steps.append(1) or ratio(*args))
        for z in algebra._float_seeds([c / desc[0] for c in desc]):
            got = algebra._newton(fp, fd, z._mpc_)
            taken = len(steps)
            want = _reference_newton(fp, fd, z)
            assert got == (want if want is None else want._mpc_)
            assert len(steps) == 2 * taken
            steps.clear()
            converged += want is not None
    return converged


def _arcsine_hankel(n):
    moms = [mp.mpc(mp.binomial(k, k // 2) / mp.mpf(2) ** k) if k % 2 == 0 else mp.mpc(0)
            for k in range(2 * n)]
    return [[moms[i + j] for i in range(n + 1)] for j in range(n)]


def test_kernel_vector_is_the_mpc_reference_bit_for_bit():
    # rows spread over 2^+-300 (test_kernel_vector_matches_reference_across_row_scales)
    # are summed exactly by mpf_sum; it drops a term 2 prec bits below the
    # lowest bit of its running sum, or the sum below a term that far above
    # it, which entries 2^+-1500 off the rest of their rows reach
    rng = random.Random(1208)
    systems = []
    for e in (-1500, 1500, 2000):
        M = _random_complex(rng, 5, 6)
        M[2][1] *= mp.mpf(2) ** e
        M[0][4] *= mp.mpf(2) ** -e
        systems.append(M)
    # a kernel of dimension 2, one through an all-zero column, real entries
    systems.append([[mp.mpc(1), mp.mpc(0), mp.mpc(0)]])
    M = _random_complex(rng, 4, 6)
    for row in M:
        row[2] = mp.mpc(0)
    systems.append(M)
    systems.append([[mp.mpf(rng.uniform(-1, 1)) for _ in range(6)] for _ in range(4)])
    nullities = [_assert_kernel_is_reference(M).nullity for M in systems]
    assert nullities == [5, 5, 5, 2, 2, 2]
    # the arcsine Hankel system at n = 30 and 128 bits: the rank cut leaves 3
    algebra.set_precision(128)
    assert _assert_kernel_is_reference(_arcsine_hankel(30)).nullity == 3


def test_newton_is_the_mpc_reference_bit_for_bit():
    # random polynomials and monic Chebyshev of degree 40 at 512 bits are in
    # test_poly_roots_newton_matches_ladder_bit_for_bit
    for bits in (256, 384):
        algebra.set_precision(bits)
        # a root at 0, and one on each axis
        p = Poly.from_roots([0, mp.mpc(0, "0.5"), -2, mp.mpc("0.3", "-0.7")])
        assert _assert_newton_is_reference(p) == 4
        # Newton gives up on the triple root and on the 1e-4 cluster
        assert _assert_newton_is_reference(Poly.from_roots([1, 1, 1, -2])) < 4
        cluster = Poly.from_roots([1 + k * mp.mpf("1e-4") for k in range(4)])
        assert _assert_newton_is_reference(cluster * monic_chebyshev(16)) < 20


def test_workload_kernels_and_roots_are_the_mpc_references_bit_for_bit(workload_solves):
    kernels = roots = 0
    for name, calls in workload_solves.items():
        for kind, bits, args, result in calls:
            with algebra.working_precision(bits):
                if kind == "kernel_vector":
                    _assert_kernel_is_reference(args[0], result)
                    kernels += 1
                elif kind == "poly_roots":
                    assert _assert_newton_is_reference(args[0]) == args[0].degree
                    roots += 1
    # markov_arcsine n = 1..10, three n on paper_section4 and multipoint_arcsine, four
    # on arcsine_hankel; no solve escalates
    assert kernels == roots == 10 + 3 + 3 + 4


@pytest.mark.parametrize("bits, n, spread", [(256, 10, 19.4), (256, 20, 43.8), (256, 30, 68.7),
                                             (256, 40, 93.6), (128, 30, 60.4)])
def test_kernel_spread_is_log2_of_first_over_last_pivot(monkeypatch, bits, n, spread):
    # arcsine Hankel systems: about 2.5 bits per n; at 128 bits and n = 30
    # the rank cut stops the elimination after 28 pivots
    algebra.set_precision(bits)
    info = kernel_vector(_arcsine_hankel(n))
    assert round(info.spread, 1) == spread
    assert info.nullity == (3 if bits == 128 else 1)
    monkeypatch.setattr(algebra, "_eliminate", _reference_elimination)
    assert abs(kernel_vector(_arcsine_hankel(n)).spread - info.spread) < 1e-9
