import re
from math import gcd

import numpy as np
import pytest

from sklab import sklyanin, theta
from sklab.sklyanin import (AlgebraParams, AmbiguousRank, DenominatorNearZero,
                            RelationSystem, build_relations, relation_rank,
                            relation_space, relation_terms,
                            sample_generic_x, singular_values,
                            subspace_distance,
                            substitution_distance, substitution_matrix,
                            check_substitution_isomorphism)
from sklab.theta import ConvergenceError, ThetaBasis, reduce_to_cell

X_GENERIC = 0.11 + 0.17j


def loop_relations(params):
    """Reference build: one Python step per (i, j, n), as the module once did.

    Returns the unit-row-max coefficient array and, per row, the (n, a, b)
    of every term with a nonzero numerator.
    """
    d, r = params.d, params.r
    basis = ThetaBasis(d, params.modulus)
    at_zero = basis.values_at_zero()
    at_x, at_minus_x = basis.values_at(params.x), basis.values_at(-params.x)
    coeffs = np.zeros((d, d, d, d), dtype=complex)
    rows = []
    for i in range(d):
        for j in range(d):
            kept = []
            for n in range(d):
                num = at_zero[(j - i + (r - 1) * n) % d]
                if num == 0.0:
                    continue
                den = at_minus_x[(j - i - n) % d] * at_x[(r * n) % d]
                a, b = (r * (j - n)) % d, (r * (i + n)) % d
                coeffs[i, j, a, b] += num / den
                kept.append((n, a, b))
            top = np.abs(coeffs[i, j]).max()
            if top > 0.0:
                coeffs[i, j] /= top
            rows.append((i, j, kept))
    return coeffs, rows


def term_coeffs(system):
    """coeffs[i, j, a, b], the coefficient of t_a t_b in R_ij, scattered
    from the public per-term breakdown relation_terms."""
    d = system.d
    coeffs = np.zeros((d, d, d, d), dtype=complex)
    for i, j, terms in relation_terms(system):
        for n, a, b, coeff in terms:
            coeffs[i, j, a, b] += coeff
    return coeffs


def dense_rows(system):
    """Nonzero relation rows as one (m, d^2) matrix, as the module once did."""
    d = system.d
    rows = term_coeffs(system).reshape(d * d, d * d)
    rowmax = np.abs(rows).max(axis=1)
    return rows[(rowmax > 0) & (rowmax >= 1e-10 * rowmax.max())]


def dense_space(system, rank_tol=1e-9):
    """Relation space from one dense SVD of all rows (no gap test)."""
    rows = dense_rows(system)
    if rows.shape[0] == 0:
        return np.zeros((system.d ** 2, 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows)
    return vh[:int((s > rank_tol * s[0]).sum())].T


def dense_substitution_distance(d, r, r2, x, modulus):
    spaces = [dense_space(build_relations(AlgebraParams(d, q, x, modulus)))
              for q in (r, r2)]
    return subspace_distance(substitution_matrix(d, r2) @ spaces[0],
                             spaces[1])


def all_grade_svd(system):
    """The decomposition of every grade block, as RelationSystem._svd once
    did: one batched SVD of all d blocks.  Returns (vh, block_svals,
    spectrum) for every grade."""
    blocks = system._blocks(np.arange(system.d))
    rowmax = np.abs(blocks).max(axis=2)
    live = (rowmax > 0.0) & (rowmax >= 1e-10 * rowmax.max())
    _, svals, vh = np.linalg.svd(np.where(live[..., None], blocks, 0.0))
    kept = live.sum(axis=1)
    svals[np.arange(system.d) >= kept[:, None]] = 0.0
    return vh, svals, np.sort(svals, axis=None)[::-1][:int(kept.sum())]


def all_grade_bases(system, rank_tol=1e-9):
    """Per-grade relation-space bases (columns over a) and the rank, from
    all_grade_svd and the global cutoff."""
    vh, svals, spectrum = all_grade_svd(system)
    keep = svals > (rank_tol * spectrum[0] if len(spectrum) else np.inf)
    return [v[:k].T for v, k in zip(vh, keep.sum(axis=1))], int(keep.sum())


def all_grade_substitution_distance(d, r, r2, x, modulus):
    """substitution_distance compared over all d grades."""
    bases = [all_grade_bases(build_relations(AlgebraParams(d, q, x,
                                                           modulus)))[0]
             for q in (r, r2)]
    back = (pow(r2, -1, d) * np.arange(d)) % d
    return max(subspace_distance(bases[0][s][back], bases[1][(r * s) % d])
               for s in range(d))


def test_params_reject_non_coprime(modulus):
    with pytest.raises(ValueError):
        AlgebraParams(4, 2, X_GENERIC, modulus)


@pytest.mark.parametrize("x", [complex("nan"), complex("inf"),
                               complex(0.1, float("-inf")), float("nan")])
def test_params_reject_non_finite_x(modulus, x):
    with pytest.raises(ValueError) as info:
        AlgebraParams(3, 1, x, modulus)
    assert str(info.value) == f"x must be finite, got {complex(x)}"


@pytest.mark.parametrize("d", [0, -2])
def test_params_refusal_names_d(d, modulus):
    with pytest.raises(ValueError) as info:
        AlgebraParams(d, 1, X_GENERIC, modulus)
    assert str(info.value) == f"d must be >= 1, got {d}"


@pytest.mark.parametrize("value", [2.5, 2.0])
def test_params_d_and_r_must_be_integers(value, modulus):
    # a float would be reduced mod d as a float and reach pow() in _blocks
    for args, name in (((value, 1), "d"), ((5, value), "r")):
        with pytest.raises(TypeError) as info:
            AlgebraParams(*args, X_GENERIC, modulus)
        assert str(info.value) == f"{name} must be an integer, got {value}"


@pytest.mark.parametrize("d, r, want", [(np.int64(5), np.int64(2), (5, 2)),
                                         (True, True, (1, 0))])
def test_params_store_plain_ints(d, r, want, modulus):
    params = AlgebraParams(d, r, X_GENERIC, modulus)
    assert type(params.d) is int and type(params.r) is int
    assert params == AlgebraParams(*want, X_GENERIC, modulus)
    rank, _ = relation_rank(build_relations(params))
    assert rank == want[0] * (want[0] - 1) // 2


def test_params_reduce_r_mod_d(modulus):
    params = AlgebraParams(5, 7, X_GENERIC, modulus)
    assert params.r == 2


def test_denominator_near_zero_raises(modulus):
    # x close to (but not on) the lattice makes theta_0(+-x) nearly vanish
    with pytest.raises(DenominatorNearZero):
        build_relations(AlgebraParams(3, 1, 1e-11 + 1e-11j, modulus))


@pytest.mark.parametrize("d", [3, 5, 8])
def test_every_torsion_point_is_refused(d, modulus):
    w = modulus.omega
    for k in range(d):
        for j in range(d):
            bound = theta.TORSION_BOUND if (k, j) != (0, 0) \
                else theta.TORSION_BOUND_AT_ZERO
            with pytest.raises(DenominatorNearZero,
                               match=f"point p = \\({k} \\+ {j} omega\\)"
                                     f"/{d} .* below the bound {bound:g}"):
                build_relations(AlgebraParams(d, 1, (k + j * w) / d,
                                              modulus))


@pytest.mark.parametrize("d,omega", [(25, 0.2 + 1.3j), (41, 0.2 + 1.3j),
                                     (25, 3j)])
def test_rank_gap_and_isomorphism_past_d_21(d, omega):
    modulus = theta.CurveModulus(omega)
    system = build_relations(AlgebraParams(d, 2, X_GENERIC, modulus))
    expected = d * (d - 1) // 2
    assert relation_space(system).shape == (d * d, expected)
    svals = singular_values(system)
    assert svals[expected - 1] / svals[expected] >= 1e12
    assert check_substitution_isomorphism(d, 2, pow(2, -1, d), X_GENERIC,
                                          modulus) <= 1e-12


@pytest.mark.parametrize("d,r", [(3, 1), (4, 3), (5, 2), (7, 3)])
def test_rank_and_gap(d, r, modulus):
    system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
    space = relation_space(system)
    expected = d * (d - 1) // 2
    assert space.shape == (d * d, expected)
    svals = singular_values(system)
    assert svals[expected - 1] / svals[expected] > 1e10


@pytest.mark.parametrize("d,r", [(15, 1), (15, 2), (21, 1), (21, 5)])
def test_rank_and_gap_large_d(d, r, modulus):
    system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
    expected = d * (d - 1) // 2
    assert relation_space(system).shape == (d * d, expected)
    svals = singular_values(system)
    assert svals[expected - 1] / svals[expected] > 1e10


def test_substitution_isomorphism_large_d(modulus):
    assert check_substitution_isomorphism(21, 2, 11, X_GENERIC, modulus) < 1e-8


@pytest.mark.parametrize("d", range(1, 10))
def test_blocks_match_dense_oracle(d, modulus):
    for r in range(d):
        if gcd(r, d) != 1:
            continue
        system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
        rows = dense_rows(system)
        want_svals = np.linalg.svd(rows, compute_uv=False)
        want_space = dense_space(system)
        svals = singular_values(system)
        space = relation_space(system)
        k = want_space.shape[1]
        assert space.shape == want_space.shape
        # r = 1 makes the i = j rows exact zeros
        assert len(svals) == len(want_svals) == d * d - (d if r == 1 % d
                                                         else 0)
        if k:
            assert np.abs(svals[:k] - want_svals[:k]).max() \
                <= 1e-12 * want_svals[0]
        assert subspace_distance(space, want_space) <= 1e-12
        r_inv = pow(r, -1, d)
        assert abs(check_substitution_isomorphism(d, r, r_inv, X_GENERIC,
                                                  modulus)
                   - dense_substitution_distance(d, r, r_inv, X_GENERIC,
                                                 modulus)) <= 1e-12


@pytest.mark.parametrize("d", range(1, 10))
def test_relation_space_holds_the_rows(d, modulus):
    # the span of the rows themselves, not of their complex conjugates
    for r in range(d):
        if gcd(r, d) != 1:
            continue
        system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
        rows = term_coeffs(system).reshape(d * d, d * d)
        rows = rows[np.abs(rows).max(axis=1) > 0.0].T
        space = relation_space(system)
        residual = rows - space @ (space.conj().T @ rows)
        assert np.abs(residual).max(initial=0.0) <= 1e-12, r


@pytest.mark.parametrize("d,r,rp", [(5, 2, 2), (7, 2, 2), (8, 3, 5),
                                    (9, 2, 2)])
def test_negative_controls_match_dense_oracle(d, r, rp, modulus):
    dist = substitution_distance(d, r, rp, X_GENERIC, modulus)
    assert dist > 0.1
    assert abs(dist - dense_substitution_distance(d, r, rp, X_GENERIC,
                                                  modulus)) <= 1e-12


def test_subspace_distance_with_an_empty_basis():
    empty, plane = np.zeros((4, 0), dtype=complex), np.eye(4, 2)
    assert subspace_distance(empty, empty) == 0.0
    assert subspace_distance(empty, plane) == 1.0
    assert subspace_distance(plane, empty) == 1.0


def test_rows_normalized_to_unit_max(modulus):
    system = build_relations(AlgebraParams(5, 2, X_GENERIC, modulus))
    for row in system.table:
        top = np.abs(row).max()
        if top > 0:
            assert top == pytest.approx(1.0, abs=1e-12)


def test_relation_terms_read_the_table(modulus):
    d, r = 5, 2
    system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
    rows = relation_terms(system)
    assert iter(rows) is rows  # a generator: one row at a time
    rows = list(rows)
    assert [(i, j) for i, j, _ in rows] == [(i, j) for i in range(d)
                                            for j in range(d)]
    for i, j, terms in rows:
        k = (j - i) % d
        assert [n for n, *_ in terms] == [n for n in range(d)
                                          if system.table[k, n] != 0.0]
        for n, a, b, coeff in terms:
            assert (a, b) == ((r * (j - n)) % d, (r * (i + n)) % d)
            assert coeff == system.table[k, n]


@pytest.mark.parametrize("d", range(1, 10))
def test_coefficients_match_loop_oracle(d, modulus):
    for r in range(d):
        if gcd(r, d) != 1:
            continue
        params = AlgebraParams(d, r, X_GENERIC, modulus)
        want, want_rows = loop_relations(params)
        # rows have unit max, so this is relative to the row scale
        assert np.abs(term_coeffs(build_relations(params)) - want).max() \
            <= 1e-15
        got_rows = [(i, j, [term[:3] for term in terms])
                    for i, j, terms in relation_terms(
                        build_relations(params))]
        assert got_rows == want_rows


def test_substitution_matrix_matches_loop_oracle():
    for d in (1, 4, 5, 9):
        for mult in range(-d, 2 * d):
            if gcd(mult % d, d) != 1:
                continue
            want = np.zeros((d * d, d * d))
            for a in range(d):
                for b in range(d):
                    want[((mult * a) % d) * d + (mult * b) % d, a * d + b] = 1
            assert np.array_equal(substitution_matrix(d, mult), want)


def test_exact_zero_numerators_are_skipped(modulus):
    # for (d, r) = (5, 2) the numerator theta_{j-i+n}(0) vanishes exactly
    # when j - i + n = 0 mod 5; no term with that n may appear
    params = AlgebraParams(5, 2, X_GENERIC, modulus)
    for i, j, terms in relation_terms(build_relations(params)):
        for n, a, b, coeff in terms:
            assert (j - i + (params.r - 1) * n) % 5 != 0
            assert coeff != 0


def test_one_svd_per_system(modulus, monkeypatch):
    system = build_relations(AlgebraParams(7, 3, X_GENERIC, modulus))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(a) or svd(*a, **k))
    space = relation_space(system)
    svals = singular_values(system)
    assert relation_space(system).tobytes() == space.tobytes()
    assert np.array_equal(singular_values(system), svals)
    assert len(calls) == 1
    # the dense oracle decomposes the rows without uv; same spectrum
    want = np.linalg.svd(dense_rows(system), compute_uv=False)
    assert np.abs(svals - want).max() <= 1e-13 * want[0]
    # what singular_values hands out is a copy, not the cached spectrum
    svals[:] = 0.0
    assert singular_values(system)[0] > 0.0


def count_calls(monkeypatch, owner, name):
    """Patch owner.name to record the arguments of every call."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


def test_substitution_distance_evaluates_one_theta_triple(modulus,
                                                           monkeypatch):
    # from cold memos: one series sum gives theta at 0, x and -x
    sums = count_calls(monkeypatch, theta, "_scaled_series")
    builds = count_calls(monkeypatch, sklyanin, "_system")
    assert substitution_distance(5, 2, 3, X_GENERIC, modulus) < 1e-8
    assert len(sums) == 1
    assert [params.r for params, _ in builds] == [2, 3]
    # a second identical check sums no series and keeps the r = 2 system;
    # only the r2 = 3 side, which is not kept, is divided out again
    assert substitution_distance(5, 2, 3, X_GENERIC, modulus) < 1e-8
    assert len(sums) == 1
    assert [params.r for params, _ in builds] == [2, 3, 3]
    assert sklyanin.build_relations.cache_info().misses == 1
    assert sklyanin._theta_triple.cache_info().misses == 1


@pytest.mark.parametrize("d,r,q", [(5, 2, 1), (5, 2, -2), (9, 4, 2),
                                   (9, 2, -1), (15, 2, 2), (15, 7, 3),
                                   (21, 5, -3)])
def test_off_cell_x_matches_the_cell(d, r, q, modulus):
    # a lattice shift of x multiplies the whole table by one phase; direct
    # evaluation at x overflows once d*q^2 is large (d = 15, q = 2 already)
    w = modulus.omega
    x = 0.31 + 0.43 * w + q * (1 + w)
    x_red = complex(reduce_to_cell(x, w)[0])
    system = build_relations(AlgebraParams(d, r, x, modulus))
    cell = build_relations(AlgebraParams(d, r, x_red, modulus))
    phase = np.exp(2j * np.pi * d * q * (w.real * q + 2.0 * x_red.real))
    assert np.abs(system.table - phase * cell.table).max() <= 1e-15
    space = relation_space(system)
    assert space.shape == (d * d, d * (d - 1) // 2)
    assert subspace_distance(space, relation_space(cell)) <= 1e-12
    if q * q * d <= 20:
        # near the cell the direct theta values are still accurate
        want, _ = loop_relations(AlgebraParams(d, r, x, modulus))
        assert np.abs(term_coeffs(system) - want).max() <= 1e-13


def test_ambiguous_rank_raises(modulus):
    # At even d the even and the odd grades are two orbits.  The cutoff
    # 1e-9 falls between 3e-9 (even orbit) and 5e-10 (odd orbit); alone,
    # neither orbit trips the gap test (the even one keeps every value, the
    # odd one has a gap of 1.2e9), so the test must read the spectrum
    # across orbits.  With every even table row equal to u, the
    # even blocks are circulants of u up to a column permutation, with
    # singular values |fft(u)|; likewise w for the odd ones.
    d = 4
    params = AlgebraParams(d, 3, X_GENERIC, modulus)
    rng = np.random.default_rng(7)
    spectra = np.array([[1.0, 0.7, 0.5, 3e-9], [1.0, 0.8, 0.6, 5e-10]])
    u, w = np.fft.ifft(spectra * np.exp(2j * np.pi * rng.random((2, d))))
    table = np.empty((d, d), dtype=complex)
    table[0::2], table[1::2] = u, w
    system = RelationSystem(params, table)
    want = np.sort(np.repeat(spectra, d // 2))[::-1]
    assert np.abs(singular_values(system) - want).max() <= 1e-15
    message = (r"rank cutoff 1\.000e-09 \(RANK_TOL=1e-09 times "
               r"s\[0\]=1\.000e\+00\): s\[13\]/s\[14\] = "
               r"3\.000e-09/5\.000e-10 = 6, below the required 10")
    for decide in (relation_space, relation_rank):
        with pytest.raises(AmbiguousRank, match=message):
            decide(system)


def test_rank_mismatch_names_both_systems(modulus, monkeypatch):
    # keep one table row of Q_{5,3}: one relation per grade, rank 5 of 10
    system = sklyanin._system

    def one_row(params, triple):
        built = system(params, triple)
        if params.r != 3:
            return built
        table = built.table.copy()
        table[1:] = 0.0
        return RelationSystem(params, table)

    monkeypatch.setattr(sklyanin, "_system", one_row)
    with pytest.raises(AmbiguousRank, match=r"relation-space ranks differ: "
                                            r"10 for r=2, 5 for r2=3$"):
        substitution_distance(5, 2, 3, X_GENERIC, modulus)


@pytest.mark.parametrize("d", range(1, 22))
def test_orbit_svd_matches_all_grade_oracle(d, modulus):
    units = [r for r in range(d) if gcd(r, d) == 1]
    for r in units:
        system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
        want_bases, want_rank = all_grade_bases(system)
        bases, rank = sklyanin._grade_bases(system, np.arange(d))
        assert rank == want_rank, r
        want = all_grade_svd(system)[2]
        svals = singular_values(system)
        assert len(svals) == len(want)
        assert np.abs(svals - want).max(initial=0.0) \
            <= 1e-13 * want.max(initial=0.0)
        k = relation_space(system).shape[1]
        gap = svals[k - 1] / svals[k] if 0 < k < len(svals) else None
        assert relation_rank(system) == (k, gap), r
        for got, basis in zip(bases, want_bases):
            assert subspace_distance(got, basis) <= 1e-13, r
        r_inv = pow(r, -1, d)
        dist = check_substitution_isomorphism(d, r, r_inv, X_GENERIC,
                                              modulus)
        want = all_grade_substitution_distance(d, r, r_inv, X_GENERIC,
                                               modulus)
        assert max(dist, want) <= 1e-13 and abs(dist - want) <= 3e-14, r
        r2 = next((q for q in units if (r * q - 1) % d), None)
        if r2 is not None:
            dist = substitution_distance(d, r, r2, X_GENERIC, modulus)
            want = all_grade_substitution_distance(d, r, r2, X_GENERIC,
                                                   modulus)
            assert abs(dist - want) <= 1e-12 * want, (r, r2)


@pytest.mark.parametrize("d", range(1, 22))
def test_blocks_heisenberg_shift(d, modulus):
    for r in range(d):
        if gcd(r, d) != 1:
            continue
        system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
        blocks = system._blocks(np.arange(d))
        s, i, a = np.ogrid[:d, :d, :d]
        assert np.array_equal(
            blocks, term_coeffs(system)[i, (s - i) % d, a, (r * s - a) % d])
        for g in range(d):
            assert np.array_equal(blocks[(g + 2) % d],
                                  np.roll(blocks[g], (1, r), axis=(0, 1)))


@pytest.mark.parametrize("d,r", [(9, 2), (10, 3)])
def test_one_svd_of_one_block_per_orbit(d, r, modulus, monkeypatch):
    shapes, compared = [], []
    svd, distance = np.linalg.svd, sklyanin.subspace_distance
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(a.shape)
                        or svd(a, *args, **kw))
    monkeypatch.setattr(sklyanin, "subspace_distance",
                        lambda *a: compared.append(a) or distance(*a))
    assert check_substitution_isomorphism(d, r, pow(r, -1, d), X_GENERIC,
                                          modulus) < 1e-8
    # one SVD per system, over the gcd(2, d) orbit representatives; the
    # rest are the subspace distances' own 2-d SVDs
    assert shapes[:2] == [(gcd(2, d), d, d)] * 2
    assert all(len(shape) == 2 for shape in shapes[2:])
    assert len(compared) == gcd(2, d)


def test_subspace_distance_identical_and_orthogonal():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(10, 6)))
    assert subspace_distance(q[:, :3], q[:, :3]) < 1e-14
    assert subspace_distance(q[:, :3], q[:, 3:]) == pytest.approx(1.0)


def test_substitution_isomorphism_positive(modulus):
    dist = check_substitution_isomorphism(5, 2, 3, X_GENERIC, modulus)
    assert dist < 1e-8


@pytest.mark.parametrize("d,r,r2", [(1, 0, 0), (2, 1, 1), (5, 1, 1),
                                     (5, 4, 4), (5, 4, 9), (8, 3, 3),
                                     (8, 7, 7), (12, 5, -7)])
def test_self_inverse_distance_matches_two_builds(d, r, r2, modulus,
                                                  monkeypatch):
    """For r2 = r mod d one build serves both sides, with the same float."""
    reps = np.arange(gcd(2, d))
    bases = [sklyanin._grade_bases(
        build_relations(AlgebraParams(d, q, X_GENERIC, modulus)),
        grades)[0] for q, grades in ((r, reps), (r2, r * reps % d))]
    back = (pow(r2, -1, d) * np.arange(d)) % d
    want = max(subspace_distance(b[back], b2) for b, b2 in zip(*bases))
    # count from cold sklyanin memos: the builds above are kept.  The one
    # series sum gives theta at 0, x and -x
    sklyanin.build_relations.cache_clear()
    sklyanin._theta_triple.cache_clear()
    sums = count_calls(monkeypatch, theta, "_scaled_series")
    builds = count_calls(monkeypatch, sklyanin, "_system")
    assert substitution_distance(d, r, r2, X_GENERIC, modulus) == want
    assert (len(builds), len(sums)) == (1, 1)
    # again: the kept system serves, so no series and no build
    assert substitution_distance(d, r, r2, X_GENERIC, modulus) == want
    assert (len(builds), len(sums)) == (1, 1)


def test_substitution_isomorphism_rejects_non_inverse(modulus):
    with pytest.raises(ValueError):
        check_substitution_isomorphism(5, 2, 2, X_GENERIC, modulus)


def test_substitution_negative_control(modulus):
    # r' = 2 is not the inverse of 2 mod 5; the substituted space must be
    # far from the true relation space
    dist = substitution_distance(5, 2, 2, X_GENERIC, modulus)
    assert dist > 0.1


def torsion_distance(d, x, omega):
    """Brute force: d |x - p| over every (k + j omega)/d with k, j in
    -d..2d-1, which covers the cell of x and its neighbours, and the bound
    of the nearest p (the smaller one when d divides k and j)."""
    k, j = np.meshgrid(np.arange(-d, 2 * d), np.arange(-d, 2 * d))
    dist = d * np.abs(x - (k + j * omega) / d)
    at = np.unravel_index(dist.argmin(), dist.shape)
    at_zero = k[at] % d == 0 and j[at] % d == 0
    return dist[at], (theta.TORSION_BOUND_AT_ZERO if at_zero
                      else theta.TORSION_BOUND)


def loop_sample_generic_x(d, modulus, rng, draws=51):
    """Reference sampler: the first of `draws` draws that the brute-force
    torsion distance accepts, or None."""
    for _ in range(draws):
        x = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * modulus.omega
        dist, bound = torsion_distance(d, x, modulus.omega)
        if dist >= bound:
            return complex(x)
    return None


class ScriptedRng:
    """Stands in for a generator: uniform() returns the scripted values."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high):
        return self.values.pop(0)


def test_sample_generic_x_matches_reference_loop(modulus):
    for d in range(3, 42):
        for seed in range(20):
            got = sample_generic_x(d, modulus, np.random.default_rng(seed))
            want = loop_sample_generic_x(d, modulus,
                                         np.random.default_rng(seed))
            assert got == want and type(got) is complex, (d, seed)
    # a draw just inside its bound is skipped, one just outside is taken:
    # near 0 and near (1 + omega)/d, each followed by a generic draw
    w = modulus.omega
    for d in (3, 7, 25):
        for scale in (0.9, 1.1):
            for near in ((scale * theta.TORSION_BOUND_AT_ZERO / d, 0.0),
                         (1 / d + scale * theta.TORSION_BOUND / d, 1 / d)):
                script = [*near, 0.41, 0.29]
                got = sample_generic_x(d, modulus, ScriptedRng(script))
                want = loop_sample_generic_x(d, modulus, ScriptedRng(script))
                taken = near if scale > 1 else script[2:]
                assert got == want == taken[0] + taken[1] * w, (d, near)


def test_sample_generic_x_computes_no_theta(modulus, monkeypatch):
    sums = count_calls(monkeypatch, theta, "_scaled_series")
    rng = np.random.default_rng(5)
    xs = [sample_generic_x(d, modulus, rng) for d in (3, 9, 25, 41)]
    assert sums == []
    # the counter sees the build from cold memos: one sum for theta at 0,
    # x and -x; the same build again sums none
    build_relations(AlgebraParams(9, 2, xs[1], modulus))
    assert len(sums) == 1
    build_relations(AlgebraParams(9, 2, xs[1], modulus))
    assert len(sums) == 1


def test_sample_generic_x_gives_up_after_the_draw_limit(modulus,
                                                         monkeypatch):
    for name in ("TORSION_BOUND", "TORSION_BOUND_AT_ZERO"):
        monkeypatch.setattr(theta, name, 10.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ConvergenceError,
                       match=f"no generic x found in "
                             f"{sklyanin.GENERIC_X_DRAWS} draws"):
        sample_generic_x(5, modulus, rng)


def test_sample_generic_x_avoids_denominator_zeros(modulus, rng):
    for d in (3, 5):
        for _ in range(10):
            x = sample_generic_x(d, modulus, rng)
            build_relations(AlgebraParams(d, 1, x, modulus))


def test_memos_keep_one_entry():
    assert sklyanin._theta_triple.cache_info().maxsize == 1
    assert sklyanin.build_relations.cache_info().maxsize == 1


def two_sum_theta_triple(d, x, modulus):
    """_theta_triple as it was before one sum gave all three: theta at x_red
    and -x_red in one series sum, the values at 0 from values_at_zero."""
    omega = modulus.omega
    basis = ThetaBasis(d, modulus)
    x_red, _, q = reduce_to_cell(x, omega)
    scale, value = theta._scaled_series(basis, np.arange(d), [x_red, -x_red])
    pair = theta._unscale(basis, np.arange(d), scale, value)
    at_zero = basis.values_at_zero()
    if q:
        at_zero = at_zero * np.exp(2j * np.pi * d * q * (omega.real * q
                                                         + 2.0 * x_red.real))
    return at_zero, pair[:, 0], pair[:, 1]


def test_theta_triple_is_bit_identical_to_two_sums(modulus):
    w = modulus.omega
    for d in (*range(1, 14), 21, 41, 101, 301):
        for x in (X_GENERIC, X_GENERIC - 2.0 + 3.0 * w):
            got = sklyanin._theta_triple(d, x, modulus)
            want = two_sum_theta_triple(d, x, modulus)
            assert [a.tobytes() for a in got] == \
                [a.tobytes() for a in want], (d, x)


def test_kept_arrays_are_read_only(modulus):
    params = AlgebraParams(7, 3, X_GENERIC, modulus)
    system = build_relations(params)
    for a in (*sklyanin._theta_triple(7, params.x, modulus), system.table):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_equal_params_share_one_system(modulus):
    system = build_relations(AlgebraParams(7, 3, X_GENERIC, modulus))
    again = AlgebraParams(7, 10, complex(X_GENERIC), modulus)
    assert build_relations(again) is system


def test_distinct_inputs_in_turn_never_hit(modulus):
    inputs = [(5, X_GENERIC), (7, X_GENERIC), (7, 0.23 + 0.41j)]
    for _ in range(2):
        for d, x in inputs:
            build_relations(AlgebraParams(d, 2, x, modulus))
    for memo in (sklyanin._theta_triple, sklyanin.build_relations):
        assert memo.cache_info().hits == 0
        assert memo.cache_info().misses == 6


def test_refusal_is_raised_on_every_call(modulus):
    params = AlgebraParams(5, 2, 0.4 + 1e-9j, modulus)
    for _ in range(2):
        with pytest.raises(DenominatorNearZero):
            build_relations(params)
    assert sklyanin.build_relations.cache_info().currsize == 0


def test_lattice_shift_of_x_is_its_own_key(modulus):
    w = modulus.omega
    x = 0.31 + 0.43 * w + 1 + w
    x_red = complex(reduce_to_cell(x, w)[0])
    cell = build_relations(AlgebraParams(9, 2, x_red, modulus))
    system = build_relations(AlgebraParams(9, 2, x, modulus))
    assert system is not cell
    assert sklyanin._theta_triple.cache_info().misses == 2
    assert sklyanin.build_relations.cache_info().misses == 2
    # the phase of test_off_cell_x_matches_the_cell at q = 1
    phase = np.exp(2j * np.pi * 9 * (w.real + 2.0 * x_red.real))
    assert np.abs(system.table - phase * cell.table).max() <= 1e-15


def test_isomorphism_check_reuses_the_callers_build(modulus, monkeypatch):
    d, r = 9, 2
    system = build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
    rank, _ = relation_rank(system)
    sums = count_calls(monkeypatch, theta, "_scaled_series")
    builds = count_calls(monkeypatch, sklyanin, "_system")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    assert check_substitution_isomorphism(d, r, pow(r, -1, d), X_GENERIC,
                                          modulus) < 1e-8
    # only the r' side is built and decomposed; the rest are the subspace
    # distances' own 2-d SVDs
    assert sums == []
    assert [params.r for params, _ in builds] == [pow(r, -1, d)]
    assert [a[0].ndim for a in svds] == [3, 2, 2]
    assert build_relations(AlgebraParams(d, r, X_GENERIC, modulus)) \
        is system


@pytest.mark.filterwarnings("error")
def test_non_finite_coefficient_names_its_entry(modulus):
    # at d = 401 some denominator theta_{k-n}(-x) theta_{rn}(x) falls below
    # the smallest normal double: the refusal names the entry, its theta
    # indices and their moduli, and no numpy warning is emitted
    d, r = 401, 2
    with pytest.raises(ArithmeticError) as info:
        build_relations(AlgebraParams(d, r, X_GENERIC, modulus))
    message = str(info.value)
    assert message.startswith("non-finite relation coefficient at (k, n) = (")
    k, n, a, b, c = map(int, re.search(
        r"\((\d+), (\d+)\), d=401, r=2: theta_(\d+)\(0\) / "
        r"\(theta_(\d+)\(-x\) theta_(\d+)\(x\)\), of moduli ", message
    ).groups())
    assert (a, b, c) == ((k + (r - 1) * n) % d, (k - n) % d, (r * n) % d)
    at_zero, at_x, at_minus_x = sklyanin._theta_triple(d, X_GENERIC, modulus)
    moduli = f"{abs(at_zero[a]):.3e} / ({abs(at_minus_x[b]):.3e} * " \
             f"{abs(at_x[c]):.3e})"
    assert moduli in message
    assert message.endswith("normal doubles span 2.225e-308 to 1.798e+308)")
