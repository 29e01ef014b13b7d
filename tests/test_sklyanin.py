from math import gcd

import numpy as np
import pytest

from sklab import sklyanin
from sklab.sklyanin import (AlgebraParams, AmbiguousRank, DenominatorNearZero,
                            RelationSystem, build_relations, relation_space,
                            relation_terms, sample_generic_x,
                            singular_values, subspace_distance,
                            substitution_distance, substitution_matrix,
                            check_substitution_isomorphism)
from sklab.theta import ThetaBasis, reduce_to_cell

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


def dense_rows(system):
    """Nonzero relation rows as one (m, d^2) matrix, as the module once did."""
    d = system.d
    rows = system.coeffs.reshape(d * d, d * d)
    rowmax = np.abs(rows).max(axis=1)
    return rows[(rowmax > 0) & (rowmax >= sklyanin.ROW_DROP_CUTOFF
                                * rowmax.max())]


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


def test_params_reject_non_coprime(modulus):
    with pytest.raises(ValueError):
        AlgebraParams(4, 2, X_GENERIC, modulus)


@pytest.mark.parametrize("x", [complex("nan"), complex("inf"),
                               complex(0.1, float("-inf")), float("nan")])
def test_params_reject_non_finite_x(modulus, x):
    with pytest.raises(ValueError, match="x must be finite"):
        AlgebraParams(3, 1, x, modulus)


def test_params_reduce_r_mod_d(modulus):
    params = AlgebraParams(5, 7, X_GENERIC, modulus)
    assert params.r == 2


def test_denominator_near_zero_raises(modulus):
    # x close to (but not on) the lattice makes theta_0(+-x) nearly vanish
    with pytest.raises(DenominatorNearZero):
        build_relations(AlgebraParams(3, 1, 1e-11 + 1e-11j, modulus))


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
        rows = system.coeffs.reshape(d * d, d * d)
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


def test_rows_normalized_to_unit_max(modulus):
    system = build_relations(AlgebraParams(5, 2, X_GENERIC, modulus))
    flat = system.coeffs.reshape(25, 25)
    for row in flat:
        top = np.abs(row).max()
        if top > 0:
            assert top == pytest.approx(1.0, abs=1e-12)


def test_relation_terms_sum_to_coeffs(modulus):
    params = AlgebraParams(5, 2, X_GENERIC, modulus)
    system = build_relations(params)
    rebuilt = np.zeros_like(system.coeffs)
    for i, j, terms in relation_terms(system):
        for n, a, b, coeff in terms:
            rebuilt[i, j, a, b] += coeff
    assert np.max(np.abs(rebuilt - system.coeffs)) == 0.0


@pytest.mark.parametrize("d", range(1, 10))
def test_coefficients_match_loop_oracle(d, modulus):
    for r in range(d):
        if gcd(r, d) != 1:
            continue
        params = AlgebraParams(d, r, X_GENERIC, modulus)
        want, want_rows = loop_relations(params)
        # rows have unit max, so this is relative to the row scale
        assert np.abs(build_relations(params).coeffs - want).max() <= 1e-15
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


def test_substitution_distance_evaluates_one_theta_triple(modulus,
                                                           monkeypatch):
    calls = []
    values_at = ThetaBasis.values_at
    monkeypatch.setattr(ThetaBasis, "values_at",
                        lambda self, z: calls.append(z) or values_at(self, z))
    assert substitution_distance(5, 2, 3, X_GENERIC, modulus) < 1e-8
    assert len(calls) == 3


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
    assert np.abs(system.blocks - phase * cell.blocks).max() <= 1e-15
    space = relation_space(system)
    assert space.shape == (d * d, d * (d - 1) // 2)
    assert subspace_distance(space, relation_space(cell)) <= 1e-12
    if q * q * d <= 20:
        # near the cell the direct theta values are still accurate
        want, _ = loop_relations(AlgebraParams(d, r, x, modulus))
        assert np.abs(system.coeffs - want).max() <= 1e-13


def test_ambiguous_rank_raises(modulus):
    # the cutoff falls between 3e-9 (grade 0) and 5e-10 (grade 1), so the
    # gap test must read the spectrum across blocks
    params = AlgebraParams(3, 1, X_GENERIC, modulus)
    rng = np.random.default_rng(7)
    spectra = [[1.0, 3e-9, 1e-15], [1.0, 5e-10, 1e-15], [1.0, 1e-15, 1e-15]]
    blocks = []
    for svals in spectra:
        u, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        blocks.append((u * svals) @ v)
    with pytest.raises(AmbiguousRank):
        relation_space(RelationSystem(params, np.array(blocks)))


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
    bases = [sklyanin._grade_bases(
        build_relations(AlgebraParams(d, q, X_GENERIC, modulus)), 1e-9)
        for q in (r, r2)]
    back = (pow(r2, -1, d) * np.arange(d)) % d
    want = max(subspace_distance(bases[0][s][back], bases[1][(r * s) % d])
               for s in range(d))
    builds = []
    system = sklyanin._system
    monkeypatch.setattr(sklyanin, "_system",
                        lambda *a: builds.append(a) or system(*a))
    assert substitution_distance(d, r, r2, X_GENERIC, modulus) == want
    assert len(builds) == 1


def test_substitution_isomorphism_rejects_non_inverse(modulus):
    with pytest.raises(ValueError):
        check_substitution_isomorphism(5, 2, 2, X_GENERIC, modulus)


def test_substitution_negative_control(modulus):
    # r' = 2 is not the inverse of 2 mod 5; the substituted space must be
    # far from the true relation space
    dist = substitution_distance(5, 2, 2, X_GENERIC, modulus)
    assert dist > 0.1


def loop_sample_generic_x(d, modulus, rng, zero_tol=1e-9, max_rejects=50):
    """Reference sampler with its own min/max ratio loop, as the module
    once had; returns the accepted x, or None after max_rejects + 1 draws."""
    basis = ThetaBasis(d, modulus)
    for _ in range(max_rejects + 1):
        x = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * modulus.omega
        mags = [np.abs(basis.values_at(z)) for z in (x, -x)]
        if min(m.min() / m.max() for m in mags) >= zero_tol:
            return complex(x)
    return None


def test_sample_generic_x_matches_reference_loop(modulus):
    for d in range(3, 22):
        for seed in range(50):
            got = sample_generic_x(d, modulus, np.random.default_rng(seed))
            want = loop_sample_generic_x(d, modulus,
                                         np.random.default_rng(seed))
            assert got == want and type(got) is complex, (d, seed)


def test_sample_generic_x_avoids_denominator_zeros(modulus, rng):
    for d in (3, 5):
        for _ in range(10):
            x = sample_generic_x(d, modulus, rng)
            build_relations(AlgebraParams(d, 1, x, modulus))
