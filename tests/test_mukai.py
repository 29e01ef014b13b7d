import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from sklab import mukai
from sklab.mukai import (Bundle, GroupWord, KVector, Torsion,
                         TransporterError, act_word, orbit_invariants,
                         signed_kvector, sl2_to_word, solve_T_r, solve_U_r,
                         solve_transporter, word_matrix, words_equal)


def random_object(rng):
    if rng.random() < 0.25:
        return Torsion(int(rng.integers(-4, 5)))
    while True:
        r = int(rng.integers(1, 7))
        d = int(rng.integers(-9, 10))
        if gcd(r, d) == 1 and (d != 0 or r == 1):
            return Bundle(r, d, int(rng.integers(-4, 5)))


def random_word(rng, max_len=10):
    letters = ["S", "S-", "R", "R-"]
    n = int(rng.integers(0, max_len + 1))
    return GroupWord.parse(" ".join(letters[int(rng.integers(0, 4))]
                                    for _ in range(n)))


def test_parse_str_roundtrip():
    word = GroupWord.parse("S R R S- R-")
    assert GroupWord.parse(str(word)) == word


def test_free_reduction():
    assert GroupWord.parse("S S-") == GroupWord.parse("")
    assert GroupWord.parse("R S S- R-") == GroupWord.parse("")
    w = GroupWord.parse("S R")
    assert w * w.inverse() == GroupWord.parse("")


def test_braid_relation():
    assert words_equal(GroupWord.parse("R S R S R S"), GroupWord.parse("S S"))


def test_s_squared_is_central_not_trivial():
    s2 = GroupWord.parse("S S")
    assert not words_equal(s2, GroupWord.parse(""))
    obj = Bundle(2, 7, 0)
    assert act_word(obj, s2) == Bundle(2, 7, -1)


def test_s_fourth_is_double_shift(rng):
    s4 = GroupWord.parse("S S S S")
    for _ in range(50):
        obj = random_object(rng)
        moved = act_word(obj, s4)
        assert moved == mukai.DerivedObject(obj.kind, obj.rank, obj.degree,
                                            obj.shift - 2)


def test_letter_actions():
    assert act_word(Torsion(0), GroupWord.parse("S")) == Bundle(1, 0, 0)
    assert act_word(Bundle(2, 7, 0), GroupWord.parse("S")) == Bundle(7, -2, 0)
    assert act_word(Bundle(7, -2, 0), GroupWord.parse("S")) == Bundle(2, 7, -1)
    assert act_word(Bundle(1, 0, 0), GroupWord.parse("S")) == Torsion(-1)
    assert act_word(Bundle(2, 7, 0), GroupWord.parse("R")) == Bundle(2, 9, 0)
    assert act_word(Torsion(3), GroupWord.parse("R")) == Torsion(3)


def test_s_inverse_undoes_s(rng):
    s, s_inv = GroupWord.parse("S"), GroupWord.parse("S-")
    for _ in range(30):
        obj = random_object(rng)
        assert act_word(act_word(obj, s), s_inv) == obj
        assert act_word(act_word(obj, s_inv), s) == obj


def test_word_matrix_is_homomorphism(rng):
    for _ in range(30):
        w1, w2 = random_word(rng), random_word(rng)
        m12 = word_matrix(w1 * w2)
        m1, m2 = word_matrix(w1), word_matrix(w2)
        prod = tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))
        assert m12 == prod


def test_action_tracks_matrix_on_signed_k(rng):
    for _ in range(200):
        obj = random_object(rng)
        word = random_word(rng)
        m = word_matrix(word)
        r, d = signed_kvector(obj)
        want = (m[0][0] * r + m[0][1] * d, m[1][0] * r + m[1][1] * d)
        assert signed_kvector(act_word(obj, word)) == want


def test_orbit_invariant_examples():
    inv = orbit_invariants(KVector(1, 0), KVector(2, 7))
    assert (inv.det, inv.alpha) == (7, 4)
    inv = orbit_invariants(KVector(0, 1), KVector(1, 0))
    assert (inv.det, inv.alpha) == (-1, 0)


def test_orbit_invariants_reject_degenerate():
    with pytest.raises(ValueError):
        orbit_invariants(KVector(1, 0), KVector(2, 0))
    with pytest.raises(ValueError):
        orbit_invariants(KVector(2, 2), KVector(0, 1))


def test_invariants_stable_under_word_action(rng):
    for _ in range(40):
        w = random_word(rng)
        m = word_matrix(w)
        v1, v2 = KVector(1, 0), KVector(2, 7)
        mv1 = KVector(m[0][0] * v1.r + m[0][1] * v1.d,
                      m[1][0] * v1.r + m[1][1] * v1.d)
        mv2 = KVector(m[0][0] * v2.r + m[0][1] * v2.d,
                      m[1][0] * v2.r + m[1][1] * v2.d)
        assert orbit_invariants(mv1, mv2) == orbit_invariants(v1, v2)


def test_sl2_to_word_reproduces_matrix(rng):
    for _ in range(60):
        w = random_word(rng, max_len=14)
        m = word_matrix(w)
        rebuilt = sl2_to_word(m)
        assert word_matrix(rebuilt) == m
    assert sl2_to_word(((1, 0), (0, 1))) == GroupWord.parse("")


def test_solve_transporter_roundtrip():
    src = (KVector(1, 0), KVector(2, 7))
    dst = (KVector(1, 2), KVector(2, 11))
    word = solve_transporter(src, dst)
    m = word_matrix(word)
    for v, target in zip(src, dst):
        assert (m[0][0] * v.r + m[0][1] * v.d,
                m[1][0] * v.r + m[1][1] * v.d) == (target.r, target.d)


def test_solve_transporter_rejects_mismatched_invariants():
    with pytest.raises(TransporterError):
        solve_transporter((KVector(1, 0), KVector(2, 7)),
                          (KVector(1, 0), KVector(2, 5)))


def test_solve_T_r_instance():
    word, companion = solve_T_r(Bundle(2, 7, 0))
    assert companion == Bundle(3, 7, -1)
    assert act_word(Bundle(2, 7, 0), word) == Bundle(1, 0, 0)
    assert act_word(Bundle(1, 0, 0), word) == companion


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
def test_solver_congruences(d):
    for r in range(1, d):
        if gcd(r, d) != 1:
            continue
        _, companion = solve_T_r(Bundle(r, d, 0))
        assert (r * companion.rank) % d == (-1) % d
        _, r_dp = solve_U_r(Bundle(r, d, 0))
        assert (r * r_dp) % d == 1 % d


def test_solve_U_r_companion_class():
    word, r_dp = solve_U_r(Bundle(2, 7, 0))
    assert r_dp == 4
    companion = act_word(Bundle(1, 0, 0), word)
    assert signed_kvector(companion) == (4, -7)


def test_sl2_to_word_cross_check_raises(monkeypatch):
    # a word_matrix that lies makes the replayed word fail its check
    monkeypatch.setattr(mukai, "word_matrix", lambda word: ((1, 1), (0, 1)))
    with pytest.raises(ArithmeticError,
                       match=r"multiplies to \(\(1, 1\), \(0, 1\)\)"):
        sl2_to_word(((2, 1), (1, 1)))


@pytest.mark.parametrize("solver", [solve_T_r, solve_U_r])
def test_solver_landing_cross_check_raises(monkeypatch, solver):
    monkeypatch.setattr(mukai, "sl2_to_word", lambda matrix: GroupWord(()))
    with pytest.raises(ArithmeticError,
                       match=r"sends Bundle\(2, 7\)\[0\] to Bundle\(2, 7\)"):
        solver(Bundle(2, 7, 0))


# ------------------------------------------------- oracles: the case-split code
# The word calculus before it read one orientation rule off the letter
# matrices: S by cases on the degree sign, S^{-1} as S after a shift, R by
# cases on the kind; sl2_to_word with one matrix product per letter; and
# orbit_invariants from a hand-written extended Euclid.


def ref_act_S(obj):
    if obj.kind == "torsion":
        return Bundle(1, 0, obj.shift)
    if obj.degree > 0:
        return Bundle(obj.degree, -obj.rank, obj.shift)
    if obj.degree < 0:
        return Bundle(-obj.degree, obj.rank, obj.shift - 1)
    return Torsion(obj.shift - 1)


def ref_act_letter(obj, letter):
    if letter in ("R", "R-"):
        if obj.kind == "torsion":
            return obj
        step = obj.rank if letter == "R" else -obj.rank
        return Bundle(obj.rank, obj.degree + step, obj.shift)
    if letter == "S":
        return ref_act_S(obj)
    return ref_act_S(mukai.DerivedObject(obj.kind, obj.rank, obj.degree,
                                         obj.shift + 1))


def ref_act_word(obj, word):
    for letter in reversed(word.letters):
        obj = ref_act_letter(obj, letter)
    return obj


def ref_sl2_to_word(matrix):
    work = matrix
    applied = []

    def push(letter):
        nonlocal work
        applied.append(letter)
        work = mukai._mat_mul(mukai.LETTER_MATRIX[letter], work)

    while work[1][0] != 0:
        top, low = work[0][0], work[1][0]
        if top != 0 and abs(low) >= abs(top):
            quot = round(Fraction(low, top))
            for _ in range(abs(quot)):
                push("R-" if quot > 0 else "R")
            if work[1][0] == 0:
                break
        push("S")
    if work[0][0] == -1:
        push("S")
        push("S")
    shear = work[0][1]
    if shear != 0:
        push("S-")
        for _ in range(abs(shear)):
            push("R" if shear > 0 else "R-")
        push("S")
    assert work == mukai.IDENTITY
    return GroupWord(tuple(mukai.LETTER_INVERSE[l] for l in applied))


def ref_orbit_invariants(v1, v2):
    det = v1.r * v2.d - v1.d * v2.r
    old_r, rem = v2.r, v2.d
    old_u, u = 1, 0
    while rem != 0:
        quot = old_r // rem
        old_r, rem = rem, old_r - quot * rem
        old_u, u = u, old_u - quot * u
    sign = old_r
    w = (sign - old_u * v2.r) // v2.d if v2.d != 0 else 0
    return det, (sign * (old_u * v1.r + w * v1.d)) % abs(det)


def ref_forced_word(E, rho):
    r, d = E.rank, E.degree
    word = ref_sl2_to_word(((rho, (1 - r * rho) // d), (-d, r)))
    steps = ref_act_word(E, word).shift // 2
    if steps:
        word = GroupWord(("S" if steps > 0 else "S-",) * (4 * abs(steps))) * word
    assert ref_act_word(E, word) == Bundle(1, 0, 0)
    return word


def test_act_letter_matches_case_split_oracle():
    objects = [Torsion(k) for k in range(-4, 5)]
    objects += [Bundle(r, d, k) for k in range(-4, 5) for r in range(1, 8)
                for d in range(-9, 10) if gcd(r, d) == 1 and (d or r == 1)]
    for obj in objects:
        for letter in mukai.LETTER_MATRIX:
            assert (act_word(obj, GroupWord((letter,)))
                    == ref_act_letter(obj, letter))
    with pytest.raises(ValueError, match="unknown letter 'T'"):
        GroupWord(("T",))


def test_sl2_to_word_matches_per_letter_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        m = word_matrix(random_word(rng, max_len=24))
        assert str(sl2_to_word(m)) == str(ref_sl2_to_word(m))


def test_orbit_invariants_match_extended_euclid_oracle():
    prim = [KVector(r, d) for r in range(-9, 10) for d in range(-9, 10)
            if gcd(r, d) == 1]
    for v1 in prim:
        for v2 in prim:
            if v1.r * v2.d == v1.d * v2.r:
                continue
            inv = orbit_invariants(v1, v2)
            assert (inv.det, inv.alpha) == ref_orbit_invariants(v1, v2)


def test_solvers_match_oracle_up_to_d60():
    for d in range(2, 61):
        for r in range(1, 2 * d):
            if gcd(r, d) != 1:
                continue
            E = Bundle(r, d, 0)
            r_prime = -pow(r, -1, d) % d
            word, e_prime = solve_T_r(E)
            want = ref_forced_word(E, -r_prime)
            assert word == want
            assert e_prime == ref_act_word(Bundle(1, 0, 0), want)
            word, r_dp = solve_U_r(E)
            assert (word, r_dp) == (ref_forced_word(E, r_dp), pow(r, -1, d))


def test_solve_U_r_degree_one_companion():
    # r'' = 0 at d = 1, and the companion check holds there too
    for r in range(1, 6):
        word, r_dp = solve_U_r(Bundle(r, 1, 0))
        assert r_dp == 0
        assert signed_kvector(act_word(Bundle(1, 0, 0), word)) == (0, -1)


# ------------------------------------------- oracles: the integer folds
# act_word, word_matrix and sl2_to_word fold plain ints; the per-letter
# paths above (one object or one matrix product per letter, Fraction
# rounding) are their oracles.


def test_act_word_matches_per_letter_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5000):
        obj, word = random_object(rng), random_word(rng, max_len=40)
        assert act_word(obj, word) == ref_act_word(obj, word)


def test_word_matrix_matches_per_letter_fold():
    rng = np.random.default_rng(6)
    words = [GroupWord(())] + [random_word(rng, max_len=40)
                               for _ in range(2000)]
    for word in words:
        want = mukai.IDENTITY
        for letter in word.letters:
            want = mukai._mat_mul(want, mukai.LETTER_MATRIX[letter])
        assert word_matrix(word) == want


def test_sl2_to_word_rounds_ties_to_even():
    # |a| = 2 with c odd: the first quotient c / a is a half-integer
    for a in (2, -2):
        for c in range(-41, 42, 2):
            m = ((a, 1), (c, (1 + c) // a))
            assert str(sl2_to_word(m)) == str(ref_sl2_to_word(m))


def test_sl2_to_word_matches_oracle_past_2_53():
    rng = np.random.default_rng(12)
    for _ in range(40):
        letters = ()
        for k, sign in zip(rng.integers(3, 6, size=50),
                           rng.integers(0, 2, size=50)):
            letters += ("R" if sign else "R-",) * int(k) + ("S",)
        word = GroupWord(letters)
        m = word_matrix(word)
        assert len(word) > 100
        assert max(abs(entry) for row in m for entry in row) > 2 ** 53
        assert str(sl2_to_word(m)) == str(ref_sl2_to_word(m))


@pytest.mark.parametrize("matrix", [((1, 0), (10 ** 7, 1)),
                                    ((1, 10 ** 7), (0, 1)),
                                    ((-1, 10 ** 7), (0, -1))])
def test_huge_shear_is_refused_before_the_word_is_built(matrix):
    start = time.perf_counter()
    with pytest.raises(TransporterError, match="exceeds max_len=400"):
        sl2_to_word(matrix, max_len=400)
    assert time.perf_counter() - start < 0.05


def test_huge_transporter_is_refused_quickly():
    start = time.perf_counter()
    with pytest.raises(TransporterError, match="exceeds max_len=400"):
        solve_transporter((KVector(1, 0), KVector(0, 1)),
                          (KVector(1, 0), KVector(10 ** 7, 1)), max_len=400)
    assert time.perf_counter() - start < 0.05


# Free reduction takes "S S-" out of the words of these matrices (a = -1,
# or a = 0, before a shear); the budget allows for those two letters
CANCELLING = ([((-1, b), (0, -1)) for b in (-7, -1, 1, 7)]
              + [((0, -1), (1, e)) for e in (-7, -1, 1, 7)]
              + [((0, 1), (-1, e)) for e in (-7, -1, 1, 7)])
NOT_CANCELLING = [((1, b), (0, 1)) for b in (-7, -1, 1, 7)]


def test_budget_boundary_matches_the_built_word_length():
    rng = np.random.default_rng(13)
    matrices = CANCELLING + NOT_CANCELLING + [
        word_matrix(random_word(rng, max_len=24)) for _ in range(2000)]
    for m in matrices:
        want = ref_sl2_to_word(m)
        n = len(want)
        for max_len in (n - 1, n, n + 1):
            if max_len < n:
                with pytest.raises(TransporterError,
                                   match=f"exceeds max_len={max_len}"):
                    sl2_to_word(m, max_len=max_len)
            else:
                assert sl2_to_word(m, max_len=max_len) == want
    # one letter short, the cancelling words are refused from their runs,
    # the others only once built
    for matrices, refusal in ((CANCELLING, "at least"),
                              (NOT_CANCELLING, "of length")):
        for m in matrices:
            n = len(ref_sl2_to_word(m))
            with pytest.raises(TransporterError, match=f"{refusal} {n} "):
                sl2_to_word(m, max_len=n - 1)
