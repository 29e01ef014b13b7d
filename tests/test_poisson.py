import re
from math import gcd

import numpy as np
import pytest

from sklab import poisson
from sklab.poisson import (ExtractionError, extract_bracket, jacobi_check,
                           scale_match_deviation, skew_check,
                           substituted_tensor)
from sklab.sklyanin import (AlgebraParams, _graded_space, build_relations,
                            relation_space)

# Largest entry of the d=3, r=1 bracket, frozen from a converged
# extraction; the h -> 0 noise floor sits near 1e-9 so the comparison
# tolerance is generous
GOLDEN_31 = {
    (2, 1, 1, 2): -1.51583126874281 + 2.75359144323306j,
    (1, 0, 0, 1): -1.51583126873541 + 2.75359144322936j,
}


@pytest.fixture(scope="module")
def tensor_31(modulus):
    return extract_bracket(3, 1, modulus)


# Reference implementations: the per-pair loops the module once ran, kept
# to check the array code against.


def loop_level(d, r, modulus, h):
    """-Sym(v)/h per pair a < b, one least-squares solve per pair."""
    x = h * poisson.EXTRACTION_DIRECTION
    basis = relation_space(build_relations(AlgebraParams(d, r, x, modulus)))
    k = basis.shape[1]
    as_mats = basis.reshape(d, d, k)
    wedge = 0.5 * (as_mats - as_mats.transpose(1, 0, 2)).reshape(d * d, k)
    mats = {}
    for a in range(d):
        for b in range(a + 1, d):
            target = np.zeros(d * d, dtype=complex)
            target[a * d + b] = 0.5
            target[b * d + a] = -0.5
            coeff, *_ = np.linalg.lstsq(wedge, target, rcond=None)
            v = (basis @ coeff).reshape(d, d)
            mats[(a, b)] = -0.5 * (v + v.T) / h
    return mats


def loop_bracket_matrix(pi, a, b):
    d = pi.shape[0]
    m = np.zeros((d, d), dtype=complex)
    for c in range(d):
        m[c, c] = pi[a, b, c, c]
        for e in range(c + 1, d):
            m[c, e] = m[e, c] = 0.5 * pi[a, b, c, e]
    return m


def loop_pack(mat):
    d = mat.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for c in range(d):
        out[c, c] = mat[c, c]
        for e in range(c + 1, d):
            out[c, e] = 2.0 * mat[c, e]
    return out


def loop_skew(pi):
    d = pi.shape[0]
    worst = 0.0
    for a in range(d):
        worst = max(worst, float(np.abs(pi[a, a]).max()))
        for b in range(d):
            worst = max(worst, float(np.abs(pi[a, b] + pi[b, a]).max()))
            for c in range(d):
                for e in range(c):
                    worst = max(worst, abs(pi[a, b, c, e]))
    return worst


def loop_jacobi(pi, trials, seed):
    d = pi.shape[0]
    mats = np.zeros((d, d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            if a != b:
                mats[a, b] = loop_bracket_matrix(pi, min(a, b), max(a, b))
                if a > b:
                    mats[a, b] = -mats[a, b]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        radius = np.sqrt(rng.uniform(0.0, 1.0, d))
        angle = rng.uniform(0.0, 2.0 * np.pi, d)
        p = radius * np.exp(1j * angle)
        cube = np.abs(p).max() ** 3
        values = np.einsum("c,abce,e->ab", p, mats, p)
        gradients = np.einsum("abce,e->abc", mats, p)
        for a in range(d):
            for b in range(a + 1, d):
                for c in range(b + 1, d):
                    total = (2.0 * gradients[b, c] @ values[a]
                             + 2.0 * gradients[c, a] @ values[b]
                             + 2.0 * gradients[a, b] @ values[c])
                    worst = max(worst, abs(total) / cube)
    return worst


def loop_substituted(pi, r):
    d = pi.shape[0]
    out = np.zeros_like(pi)
    for a in range(d):
        for b in range(a + 1, d):
            sa, sb = (r * a) % d, (r * b) % d
            sign = 1.0
            if sa > sb:
                sa, sb, sign = sb, sa, -1.0
            mat = sign * loop_bracket_matrix(pi, sa, sb)
            moved = np.zeros((d, d), dtype=complex)
            for c in range(d):
                for e in range(d):
                    moved[c, e] = mat[(r * c) % d, (r * e) % d]
            out[a, b] = loop_pack(moved)
            out[b, a] = -out[a, b]
    return out


def test_golden_entries(tensor_31):
    for idx, want in GOLDEN_31.items():
        assert abs(tensor_31.pi[idx] - want) < 1e-6


def test_extraction_quality(tensor_31):
    assert tensor_31.richardson_error < 1e-6
    assert skew_check(tensor_31) == 0.0
    assert jacobi_check(tensor_31, 60, seed=11) < 1e-6
    assert tensor_31.extraction_step == poisson.DEFAULT_H


def test_antisymmetry_in_first_pair(tensor_31):
    pi = tensor_31.pi
    assert np.array_equal(pi[0, 1], -pi[1, 0])
    assert np.all(pi[1, 1] == 0)


def test_storage_is_upper_triangular_in_last_pair(tensor_31):
    pi = tensor_31.pi
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for e in range(c):
                    assert pi[a, b, c, e] == 0


def test_bracket_matrix_symmetry(tensor_31):
    # {t_a, t_b} as a quadratic form: matrix form is symmetric
    mat = tensor_31.bracket_matrix(0, 1)
    assert np.array_equal(mat, mat.T)


def test_top_degree_r_gives_vanishing_bracket(modulus):
    # r = d - 1 is the degenerate direction: the bracket vanishes, so
    # only extraction noise (well under any genuine entry) survives
    tensor = extract_bracket(3, 2, modulus)
    assert np.abs(tensor.pi).max() < 1e-8
    assert jacobi_check(tensor, 10, seed=0) < 1e-8


def test_rejects_unachievable_tolerance(modulus, monkeypatch):
    monkeypatch.setattr(poisson, "BRACKET_TOL", 1e-12)
    with pytest.raises(ExtractionError,
                       match=r">= BRACKET_TOL=1e-12; shrink h$"):
        extract_bracket(3, 1, modulus)


def test_first_order_equivariance(modulus):
    t_2 = extract_bracket(5, 2, modulus)
    t_3 = extract_bracket(5, 3, modulus)
    lam, dev = scale_match_deviation(substituted_tensor(t_2), t_3)
    assert dev < 1e-6
    assert abs(lam) > 1e-3


def test_scale_match_identical_tensors(modulus):
    t_a = extract_bracket(3, 1, modulus)
    lam, dev = scale_match_deviation(t_a, t_a)
    assert lam == 1.0
    assert dev == 0.0


@pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 11)
                                 for r in range(d) if gcd(r, d) == 1])
def test_batched_extraction_matches_per_pair_lstsq(d, r, modulus):
    # every unit r up to d = 10: odd and even d (unequal grade ranks and
    # the fixed points 2a = rs), the degenerate r = d - 1, and d = 1, 2
    h = poisson.DEFAULT_H
    level = poisson._extract_level(d, r, modulus, h)
    want = loop_level(d, r, modulus, h)
    assert len(want) == d * (d - 1) // 2
    for (a, b), mat in want.items():
        assert np.abs(level[a, b] - mat).max() < 1e-9
        assert np.array_equal(level[b, a], -level[a, b])
    assert not level[np.arange(d), np.arange(d)].any()


@pytest.mark.parametrize("d,r", [(9, 2), (10, 3)])
def test_one_wedge_svd_per_orbit(d, r, modulus, monkeypatch):
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(a.shape)
                        or svd(a, *args, **kw))
    poisson._extract_level(d, r, modulus, poisson.DEFAULT_H)
    # one batched relation SVD over the gcd(2, d) orbit representatives,
    # then one 2-d wedge SVD per representative
    assert shapes[0] == (gcd(2, d), d, d)
    assert len(shapes) == 1 + gcd(2, d)
    assert all(len(shape) == 2 for shape in shapes[1:])


@pytest.mark.parametrize("d,r", [(d, r) for d in range(3, 11)
                                 for r in range(1, d - 1) if gcd(r, d) == 1])
def test_bracket_is_shift_equivariant(d, r, modulus):
    # t_c -> t_{c+1} moves all four indices of {t_a, t_b} = sum t_c t_e:
    # exact at odd d, where every grade is a copy of grade 0; at even d
    # the shift by d/2 maps a grade onto itself, so its two halves agree
    # to rounding only
    mats = poisson._unpack(extract_bracket(d, r, modulus).pi)
    moved = np.roll(mats, 1, axis=(0, 1, 2, 3))
    if d % 2:
        assert np.array_equal(moved, mats)
    else:
        assert np.abs(moved - mats).max() <= 1e-9 * np.abs(mats).max()


def test_checks_match_loop_oracles(tensor_31, modulus):
    for tensor in (tensor_31, extract_bracket(5, 2, modulus)):
        pi, d = tensor.pi, tensor.d
        for a in range(d):
            for b in range(d):
                assert np.array_equal(tensor.bracket_matrix(a, b),
                                      loop_bracket_matrix(pi, a, b))
        assert abs(jacobi_check(tensor, 40, seed=5)
                   - loop_jacobi(pi, 40, 5)) <= 1e-13
        assert skew_check(tensor) == loop_skew(pi)
        assert np.abs(substituted_tensor(tensor).pi
                      - loop_substituted(pi, tensor.r)).max() <= 1e-13
    # hand edits that each break one storage convention: a nonzero
    # {t_1, t_1} (seen doubled), a lone pi[0, 1] entry, and a skew pair
    # below c <= e
    for edits, size in (({(1, 1, 0, 2): 0.3}, 0.6),
                        ({(0, 1, 0, 2): 0.2}, 0.2),
                        ({(0, 1, 1, 0): 0.1, (1, 0, 1, 0): -0.1}, 0.1)):
        edited = tensor_31.pi.copy()
        for index, value in edits.items():
            edited[index] += value
        tensor = poisson.PoissonTensor(d=3, r=1, pi=edited,
                                       richardson_error=0.0)
        assert skew_check(tensor) == loop_skew(edited)
        assert skew_check(tensor) == pytest.approx(size)


@pytest.mark.parametrize("d,r", [(4, 1), (5, 2), (6, 5), (10, 3)])
def test_bracket_is_graded(d, r, modulus):
    # {t_a, t_b} holds only monomials t_c t_e with c + e = a + b mod d;
    # every other entry is an exact zero, not rounding noise
    pi = extract_bracket(d, r, modulus).pi
    a, b, c, e = np.indices(pi.shape)
    assert not pi[(a + b - c - e) % d != 0].any()
    if (d, r) == (5, 2):
        # the count `poisson extract` reports as nonzero_entries
        assert np.count_nonzero(pi) == 60


def test_jacobi_chunks_match_loop_oracle(modulus):
    # one chunk, exactly one full chunk, one entry past it, many chunks
    tensor = extract_bracket(8, 3, modulus)
    for trials in (1, poisson.JACOBI_CHUNK, poisson.JACOBI_CHUNK + 1, 100):
        assert abs(jacobi_check(tensor, trials, seed=5)
                   - loop_jacobi(tensor.pi, trials, 5)) <= 1e-13


@pytest.mark.parametrize("trials", [0, -5])
def test_jacobi_refuses_no_trials(tensor_31, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        jacobi_check(tensor_31, trials, seed=0)


def _patch_grade(monkeypatch, edit):
    """Run extraction on the relation space with one grade edited."""
    def patched(sys, grades):
        vh, keep = _graded_space(sys, grades)
        vh, keep = vh.copy(), keep.copy()
        edit(vh, keep)
        return vh, keep
    monkeypatch.setattr(poisson, "_graded_space", patched)


def test_condition_gate_names_value_bound_h_and_grade(modulus, monkeypatch):
    # two nearly parallel basis vectors in grade 0, the one grade solved
    # at odd d: a wedge block close to rank deficient
    def edit(vh, keep):
        vh[0, 1] = vh[0, 0] + 1e-8 * vh[0, 1]
    _patch_grade(monkeypatch, edit)
    with pytest.raises(ExtractionError,
                       match=r"^wedge condition number \d\.\d\de\+\d\d >= 1e6 "
                             r"at h=3e-05: smallest singular value "
                             r"\d\.\d\de-\d\d in grade s=0$"):
        extract_bracket(5, 2, modulus)


def test_residual_gate_names_value_bound_pair_and_grade(modulus,
                                                        monkeypatch):
    # grade 0, the one grade solved at odd d, loses a basis vector: one of
    # its two targets is out of reach
    def edit(vh, keep):
        keep[0, 1] = False
    _patch_grade(monkeypatch, edit)
    with pytest.raises(ExtractionError) as info:
        extract_bracket(5, 2, modulus)
    message = str(info.value)
    match = re.fullmatch(r"residual (\S+) > 1e-8 for e_(\d)\^e_(\d), grade "
                         r"s=0 at h=3e-05: no relation-space element has "
                         r"that antisymmetric part", message)
    assert match, message
    a, b = int(match[2]), int(match[3])
    assert float(match[1]) > 1e-8
    # the named pair is one of grade 0: a + b = r s mod d
    assert a < b and (a + b) % 5 == 0


@pytest.mark.parametrize("d,r", [(d, r) for d in range(2, 11)
                                 for r in range(1, d) if gcd(r, d) == 1])
def test_symplectic_rank_of_the_bracket(d, r, modulus):
    # Generic symplectic leaves of q_{d,r} have dimension d - gcd(d, r + 1)
    # (Feigin-Odesskii; Polishchuk 1997): at a generic point p the matrix
    # P(p)_ab = {t_a, t_b}(p) has that rank.  An oracle independent of the
    # extractor, which builds the relations at x = h u through the torsion
    # gate.
    pi = extract_bracket(d, r, modulus).pi
    rank = d - gcd(d, r + 1)
    if rank == 0:
        # r = -1 mod d: Q_{d,d-1} is commutative
        assert np.abs(pi).max() <= 1e-8
        return
    rng = np.random.default_rng(100 * d + r)
    for _ in range(5):
        p = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = np.linalg.svd(np.einsum("abce,c,e->ab", pi, p, p),
                          compute_uv=False)
        assert s[rank - 1] / s[rank] >= 1e6, (s[rank - 1], s[rank])
