import re
from math import gcd

import numpy as np
import pytest

from sklab import poisson, sklyanin
from sklab.poisson import (ExtractionError, extract_bracket, jacobi_check,
                           scale_match_deviation, skew_check,
                           substituted_tensor)
from sklab.sklyanin import AlgebraParams, build_relations, relation_space

# Largest entry of the d=3, r=1 bracket, frozen from the numerical
# extraction (the Richardson ladder below), whose h -> 0 noise floor sits
# near 1e-9, so the comparison tolerance is generous
GOLDEN_31 = {
    (2, 1, 1): -1.51583126874281 + 2.75359144323306j,
    (1, 0, 0): -1.51583126873541 + 2.75359144322936j,
}


@pytest.fixture(scope="module")
def tensor_31(modulus):
    return extract_bracket(3, 1, modulus)


# Reference implementations: the per-pair loops the module once ran, kept
# to check the array code against.  They read the bracket as the
# (d, d, d, d) array pi[a, b, c, e] that dense() scatters it into.


def dense(pi):
    """The graded (d, d, d) array as pi[a, b, c, e], zero off the grade."""
    d = len(pi)
    a, b, c = np.indices(pi.shape)
    out = np.zeros((d, d, d, d), dtype=complex)
    out[a, b, c, (a + b - c) % d] = pi
    return out


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


def ladder(d, r, modulus, h=3e-5):
    """Two Richardson stages of loop_level on h, h/2, h/4: the second."""
    coarse, mid, fine = (loop_level(d, r, modulus, step)
                         for step in (h, h / 2, h / 4))
    return {pair: 2.0 * fine[pair] - mid[pair] for pair in fine}


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


def test_antisymmetry_in_first_pair(tensor_31):
    pi = tensor_31.pi
    assert np.array_equal(pi[0, 1], -pi[1, 0])
    assert np.all(pi[1, 1] == 0)


def test_storage_is_upper_triangular_in_last_pair(tensor_31):
    pi = tensor_31.pi
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if c > (a + b - c) % 3:
                    assert pi[a, b, c] == 0


def test_top_degree_r_gives_vanishing_bracket(modulus):
    # r = d - 1 is the degenerate direction: the bracket vanishes, so
    # only extraction noise (well under any genuine entry) survives
    tensor = extract_bracket(3, 2, modulus)
    assert np.abs(tensor.pi).max() < 1e-8
    assert jacobi_check(tensor, 10, seed=0) < 1e-8


def test_rejects_unachievable_tolerance(modulus, monkeypatch):
    monkeypatch.setattr(poisson, "TANGENT_TOL", 1e-30)
    with pytest.raises(ExtractionError,
                       match=r">= TANGENT_TOL=1e-30 for e_\d\^e_\d, "):
        extract_bracket(3, 1, modulus)


def test_tangent_gate_names_value_bound_grade_and_pair(modulus,
                                                       monkeypatch):
    # a bracket 1% too large is off the relations at first order in h
    rows = poisson._bracket_rows
    monkeypatch.setattr(poisson, "_bracket_rows",
                        lambda *args: 1.01 * rows(*args))
    for d, r in ((5, 2), (8, 3)):
        with pytest.raises(ExtractionError) as info:
            extract_bracket(d, r, modulus)
        message = str(info.value)
        match = re.fullmatch(r"tangent residual (\S+) >= TANGENT_TOL=1e-09 "
                             r"for e_(\d)\^e_(\d), grade s=(\d) at h=1e-06: "
                             r"the bracket is not the first-order part of "
                             r"the relations", message)
        assert match, message
        a, b, s0 = int(match[2]), int(match[3]), int(match[4])
        assert float(match[1]) >= poisson.TANGENT_TOL
        # the named pair lies in the named grade, an orbit representative
        assert a < b and (a + b - r * s0) % d == 0 and s0 < gcd(2, d)


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


def test_scale_match_zero_and_mismatched_tensors(modulus):
    # two zero tensors match at scale 1; a zero against a nonzero tensor
    # does not match at all, either way round
    t_a = extract_bracket(5, 2, modulus)
    zero = poisson.PoissonTensor(d=5, r=2, pi=np.zeros_like(t_a.pi),
                                 richardson_error=0.0)
    assert scale_match_deviation(zero, zero) == (1.0, 0.0)
    assert scale_match_deviation(zero, t_a) == (1.0, 1.0)
    assert scale_match_deviation(t_a, zero) == (1.0, 1.0)
    with pytest.raises(ValueError, match="tensor dimensions differ"):
        scale_match_deviation(t_a, extract_bracket(3, 1, modulus))


@pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 11)
                                 for r in range(d) if gcd(r, d) == 1])
def test_batched_extraction_matches_per_pair_lstsq(d, r, modulus):
    # the closed form against the per-pair least-squares ladder, for every
    # unit r up to d = 10: odd and even d (unequal grade ranks and the
    # fixed points 2a = rs), the degenerate r = d - 1, and d = 1, 2
    tensor = extract_bracket(d, r, modulus)
    want = ladder(d, r, modulus)
    assert len(want) == d * (d - 1) // 2
    got = {pair: loop_bracket_matrix(dense(tensor.pi), *pair)
           for pair in want}
    top = max([np.abs(mat).max() for mat in got.values()], default=0.0)
    if (r + 1) % d == 0:
        # r = -1: the bracket vanishes, and both sides are rounding noise
        assert top < 1e-8
        assert all(np.abs(mat).max() < 1e-8 for mat in want.values())
    else:
        for pair, mat in want.items():
            assert np.abs(got[pair] - mat).max() <= 1e-7 * top


@pytest.mark.parametrize("d,r", [(9, 2), (10, 3)])
def test_one_build_and_one_svd_per_extract(d, r, modulus, monkeypatch):
    calls = []
    for module, name in ((np.linalg, "svd"), (np.linalg, "lstsq"),
                         (poisson, "build_relations")):
        def counted(*args, _name=name, _f=getattr(module, name), **kw):
            calls.append(_name)
            return _f(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    extract_bracket(d, r, modulus)
    # one relation build, then one batched SVD over the gcd(2, d) orbit
    # representatives; no wedge SVD and no least squares
    assert calls == ["build_relations", "svd"]


@pytest.mark.parametrize("d,r", [(d, r) for d in range(3, 11)
                                 for r in range(1, d - 1) if gcd(r, d) == 1])
def test_bracket_is_shift_equivariant(d, r, modulus):
    # t_c -> t_{c+1} moves all four indices of {t_a, t_b} = sum t_c t_e,
    # and e follows a, b and c: exact at odd d, where every grade is a
    # copy of grade 0; at even d the shift by d/2 maps a grade onto
    # itself, so its two halves agree to rounding only
    mats = poisson._unpack(extract_bracket(d, r, modulus).pi)
    moved = np.roll(mats, 1, axis=(0, 1, 2))
    if d % 2:
        assert np.array_equal(moved, mats)
    else:
        assert np.abs(moved - mats).max() <= 1e-9 * np.abs(mats).max()


def test_checks_match_loop_oracles(tensor_31, modulus):
    for tensor in (tensor_31, extract_bracket(5, 2, modulus)):
        pi = dense(tensor.pi)
        assert abs(jacobi_check(tensor, 40, seed=5)
                   - loop_jacobi(pi, 40, 5)) <= 1e-13
        assert skew_check(tensor) == loop_skew(pi)
        assert np.abs(dense(substituted_tensor(tensor).pi)
                      - loop_substituted(pi, tensor.r)).max() <= 1e-13
    # hand edits that each break one storage convention: a nonzero
    # {t_1, t_1} (seen doubled), a lone pi[0, 1] entry, and a skew pair
    # below c <= e (t_1 t_0 in {t_0, t_1})
    for edits, size in (({(1, 1, 0): 0.3}, 0.6),
                        ({(0, 1, 0): 0.2}, 0.2),
                        ({(0, 1, 1): 0.1, (1, 0, 1): -0.1}, 0.1)):
        edited = tensor_31.pi.copy()
        for index, value in edits.items():
            edited[index] += value
        tensor = poisson.PoissonTensor(d=3, r=1, pi=edited,
                                       richardson_error=0.0)
        assert skew_check(tensor) == loop_skew(dense(edited))
        assert skew_check(tensor) == pytest.approx(size)


@pytest.mark.parametrize("d,r", [(4, 1), (5, 2), (6, 5), (10, 3)])
def test_bracket_is_graded(d, r, modulus):
    # {t_a, t_b} holds only monomials t_c t_e with c + e = a + b mod d, so
    # the bracket is stored on its grade: one entry per (a, b, c)
    pi = extract_bracket(d, r, modulus).pi
    assert pi.shape == (d, d, d)
    if (d, r) == (5, 2):
        # the count `poisson extract` reports as nonzero_entries
        assert np.count_nonzero(pi) == 60


def test_jacobi_chunks_match_loop_oracle(modulus):
    # one chunk, exactly one full chunk, one entry past it, many chunks
    tensor = extract_bracket(8, 3, modulus)
    chunk = max(1, poisson.JACOBI_ENTRIES // 8 ** 3)
    assert 1 < chunk < 100
    for trials in (1, chunk, chunk + 1, 100):
        assert abs(jacobi_check(tensor, trials, seed=5)
                   - loop_jacobi(dense(tensor.pi), trials, 5)) <= 1e-13


@pytest.mark.parametrize("trials", [0, -5])
def test_jacobi_refuses_no_trials(tensor_31, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        jacobi_check(tensor_31, trials, seed=0)


def _sampled_units(d, count=2):
    units = [r for r in range(1, d) if gcd(r, d) == 1]
    rng = np.random.default_rng(d)
    return sorted(int(r) for r in rng.choice(units, count, replace=False))


@pytest.mark.parametrize("d,r", [(d, r) for d in range(2, 11)
                                 for r in range(1, d) if gcd(r, d) == 1]
                         + [(d, r) for d in range(11, 26)
                            for r in _sampled_units(d)])
def test_symplectic_rank_of_the_bracket(d, r, modulus):
    # Generic symplectic leaves of q_{d,r} have dimension d - gcd(d, r + 1)
    # (Feigin-Odesskii; Polishchuk 1997): at a generic point p the matrix
    # P(p)_ab = {t_a, t_b}(p) has that rank.  An oracle independent of the
    # tangent check, which compares the bracket with the relations.
    pi = extract_bracket(d, r, modulus).pi
    rank = d - gcd(d, r + 1)
    if rank == 0:
        # r = -1 mod d: Q_{d,d-1} is commutative
        assert np.abs(pi).max() <= 1e-8
        return
    rng = np.random.default_rng(100 * d + r)
    for _ in range(5):
        p = rng.normal(size=d) + 1j * rng.normal(size=d)
        s = np.linalg.svd(np.einsum("abce,c,e->ab", dense(pi), p, p),
                          compute_uv=False)
        assert s[rank - 1] >= 1e6 * s[rank], (s[rank - 1], s[rank])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_fails_both_checks(bad, modulus):
    # one (a, b, c)/(b, a, c) pair of the (5, 2) bracket, in the grade the
    # tangent check reads: neither residual may lose it in a max, and no
    # RuntimeWarning escapes
    pi = extract_bracket(5, 2, modulus).pi.copy()
    pi[1, 4, 0], pi[4, 1, 0] = bad, -bad
    params = AlgebraParams(5, 2, poisson.TANGENT_H
                           * poisson.EXTRACTION_DIRECTION, modulus)
    with pytest.raises(ExtractionError, match=r"tangent residual is not "
                       r"finite for e_1\^e_4, grade s=0"):
        poisson._tangent_residual(pi, params)
    with pytest.raises(ArithmeticError, match=r"Jacobi residual of batch 0 "
                       r"\(points 0 to 7\) is not finite"):
        jacobi_check(poisson.PoissonTensor(5, 2, pi, 0.0), 8, seed=0)


def test_units_of_one_d_share_one_theta_triple(modulus):
    # the tangent check samples x = h u at every r: one series sum at x
    units = [r for r in range(1, 8) if gcd(r, 7) == 1]
    for r in units:
        extract_bracket(7, r, modulus)
    info = sklyanin._theta_triple.cache_info()
    assert (info.misses, info.hits) == (1, len(units) - 1)


@pytest.mark.filterwarnings("error")
def test_non_finite_row_entry_is_refused_before_pi(modulus, monkeypatch):
    # at d = 401 some product theta_{k-n}(0) theta_{rn}(0) falls below the
    # smallest normal double; the refusal names the entry and its theta
    # indices, no numpy warning is emitted, and no d^3 array is allocated
    d, r = 401, 2
    zeros = []
    monkeypatch.setattr(np, "zeros",
                        lambda shape, *a, _f=np.zeros, **k:
                        zeros.append(shape) or _f(shape, *a, **k))
    with pytest.raises(ExtractionError) as info:
        extract_bracket(d, r, modulus)
    assert (d, d, d) not in zeros
    message = str(info.value)
    k, n, a, b, c = map(int, re.match(
        r"non-finite bracket coefficient at \(k, n\) = \((\d+), (\d+)\), "
        r"d=401, r=2: theta_0'\(0\) theta_(\d+)\(0\) / \(theta_(\d+)\(0\) "
        r"theta_(\d+)\(0\)\), of moduli ", message).groups())
    assert (a, b, c) == ((k + (r - 1) * n) % d, (k - n) % d, (r * n) % d)
    assert message.endswith("normal doubles span 2.225e-308 to 1.798e+308)")
