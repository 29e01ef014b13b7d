"""The central extension of SL2(Z) acting on (rank, degree, shift) data.

The derived category of an elliptic curve carries an autoequivalence S
(the transform swapping rank and degree) and the twist R by a degree-one
line bundle.  On the invariants tracked here, an object is either a
stable bundle class Bundle(r, d, k) with r > 0, gcd(r, d) = 1, or the
skyscraper class Torsion(k); k is the homological shift.  S and R
generate a central extension of SL2(Z) whose only relation is
S^2 = (RS)^3, the center being generated by S^4 = shift by -2.

An object is a pair (vector, lift): its K-vector (r, d) lies in the
orientation half-plane (r > 0, or r = 0 with d > 0; the skyscraper is
(0, 1)), and the shift counts how often its image has crossed out of
that half-plane.  A letter applies its matrix to (r, d); an image that
leaves the half-plane is negated, and the shift moves by -1 for S and
+1 for S^{-1}.  R and R^{-1} keep the rank, so they never leave it.

Words multiply like group elements: in a word "S R" the rightmost letter
acts first, so act(o, S R) = S(R(o)) and word matrices multiply in
written order.  That convention makes word_matrix a homomorphism and
makes the signed K-vector (-1)^k (r, d) strictly equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = [
    "Bundle",
    "DerivedObject",
    "GroupWord",
    "KVector",
    "OrbitInvariant",
    "Torsion",
    "TransporterError",
    "act_word",
    "orbit_invariants",
    "signed_kvector",
    "sl2_to_word",
    "solve_T_r",
    "solve_U_r",
    "solve_transporter",
    "word_matrix",
    "words_equal",
]

S_MAT = ((0, 1), (-1, 0))
R_MAT = ((1, 0), (1, 1))
S_INV_MAT = ((0, -1), (1, 0))
R_INV_MAT = ((1, 0), (-1, 1))

LETTER_MATRIX = {"S": S_MAT, "S-": S_INV_MAT, "R": R_MAT, "R-": R_INV_MAT}
LETTER_INVERSE = {"S": "S-", "S-": "S", "R": "R-", "R-": "R"}

IDENTITY = ((1, 0), (0, 1))


def _mat_mul(m1, m2):
    return (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
         m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
         m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )


class TransporterError(ArithmeticError):
    """No transporter word (invariant mismatch or length budget exceeded)."""


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word over {S, S-, R, R-}."""

    letters: tuple

    def __post_init__(self):
        for letter in self.letters:
            if letter not in LETTER_MATRIX:
                raise ValueError(f"unknown letter {letter!r}")
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        return cls(tuple(text.split()))

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "(empty)"

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple([LETTER_INVERSE[l] for l in reversed(self.letters)]))


def _free_reduce(letters):
    out = []
    for letter in letters:
        if out and out[-1] == LETTER_INVERSE[letter]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class DerivedObject:
    """Either a stable bundle class or the skyscraper class, with a shift."""

    kind: str
    rank: int
    degree: int
    shift: int

    def __post_init__(self):
        if self.kind == "bundle":
            if self.rank <= 0:
                raise ValueError(f"bundle rank must be positive, got {self.rank}")
            if gcd(self.rank, self.degree) != 1:
                raise ValueError(
                    f"bundle class ({self.rank}, {self.degree}) is not primitive")
            if self.degree == 0 and self.rank != 1:
                raise ValueError("degree-zero bundle class must be (1, 0)")
        elif self.kind == "torsion":
            if (self.rank, self.degree) != (0, 1):
                raise ValueError("torsion class carries K-vector (0, 1)")
        else:
            raise ValueError(f"unknown object kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "bundle":
            return f"Bundle({self.rank}, {self.degree})[{self.shift}]"
        return f"Torsion[{self.shift}]"


def Bundle(rank: int, degree: int, shift: int = 0) -> DerivedObject:
    return DerivedObject("bundle", rank, degree, shift)


def Torsion(shift: int = 0) -> DerivedObject:
    return DerivedObject("torsion", 0, 1, shift)


def signed_kvector(obj: DerivedObject):
    """K-vector (r, d) weighted by the shift sign (-1)^k."""
    sign = -1 if obj.shift % 2 else 1
    return (sign * obj.rank, sign * obj.degree)


# shift step when the image leaves the orientation half-plane; R and R-
# keep the rank, so they never do
_CROSSING_SHIFT = {"S": -1, "S-": 1}


def act_word(obj: DerivedObject, word: GroupWord) -> DerivedObject:
    """Apply a word, rightmost letter first (function composition order).

    (rank, degree, shift) are folded as ints through the letters and one
    object is built, and validated, at the end.  Each letter matrix acts
    on (rank, degree); an image that leaves the orientation half-plane
    (r > 0, or r = 0 with d > 0) is negated, and the shift moves by -1 for
    S and +1 for S^{-1} (R and R^{-1} never leave it).  So S sends (r, d)
    to (d, -r) when d > 0 and to (-d, r) one shift down otherwise,
    S^{-1}(o at k) = S(o at k+1), S^2 is the shift by -1, and the image
    is the skyscraper exactly when its rank is 0.
    """
    r, d, shift = obj.rank, obj.degree, obj.shift
    for letter in reversed(word.letters):
        (a, b), (c, e) = LETTER_MATRIX[letter]
        r, d = a * r + b * d, c * r + e * d
        if r < 0 or (r == 0 and d < 0):
            r, d, shift = -r, -d, shift + _CROSSING_SHIFT[letter]
    return DerivedObject("bundle" if r else "torsion", r, d, shift)


def word_matrix(word: GroupWord):
    """Image in SL2(Z): letter matrices folded as ints in written order."""
    (a, b), (c, e) = IDENTITY
    for letter in word.letters:
        (p, q), (s, t) = LETTER_MATRIX[letter]
        a, b = a * p + b * s, a * q + b * t
        c, e = c * p + e * s, c * q + e * t
    return ((a, b), (c, e))


CANONICAL_PAIR = (Bundle(1, 0, 0), Torsion(0))


def words_equal(w1: GroupWord, w2: GroupWord) -> bool:
    """Equality in the central extension.

    The quotient matrix pins the element up to center; the action on the
    canonical pair (structure sheaf, skyscraper) at shift 0 pins the
    central part.
    """
    if word_matrix(w1) != word_matrix(w2):
        return False
    return all(act_word(o, w1) == act_word(o, w2) for o in CANONICAL_PAIR)


@dataclass(frozen=True)
class KVector:
    r: int
    d: int

    def is_primitive(self) -> bool:
        return gcd(self.r, self.d) == 1

    def as_tuple(self):
        return (self.r, self.d)


@dataclass(frozen=True)
class OrbitInvariant:
    det: int
    alpha: int


def orbit_invariants(v1: KVector, v2: KVector) -> OrbitInvariant:
    """The complete SL2(Z)-invariants of an ordered pair of primitive vectors.

    det is the signed determinant; alpha is the unique unit mod |det| with
    v1 = alpha * v2 modulo det, found from a Bezout representation of 1 =
    u*r2 + w*d2 with u = r2^{-1} mod |d2| (alpha = u*r1 + w*d1 works for
    both coordinates because the difference is a multiple of det, so any
    Bezout pair gives the same alpha).
    """
    if not (v1.is_primitive() and v2.is_primitive()):
        raise ValueError("orbit invariants need primitive vectors")
    det = v1.r * v2.d - v1.d * v2.r
    if det == 0:
        raise ValueError("pair is degenerate (det = 0)")
    modulus = abs(det)
    if v2.d:
        u = pow(v2.r, -1, abs(v2.d))
        w = (1 - u * v2.r) // v2.d
    else:  # v2 = (+-1, 0)
        u, w = v2.r, 0
    alpha = (u * v1.r + w * v1.d) % modulus
    gap = ((v1.r - alpha * v2.r) % modulus, (v1.d - alpha * v2.d) % modulus)
    if gap != (0, 0) or gcd(alpha, modulus) != 1:
        raise ArithmeticError(
            f"alpha = {alpha} leaves v1 - alpha*v2 = {gap} mod {modulus} and "
            f"gcd(alpha, {modulus}) = {gcd(alpha, modulus)}; want (0, 0) and 1")
    return OrbitInvariant(det=det, alpha=alpha)


def sl2_to_word(matrix, max_len: int | None = None) -> GroupWord:
    """A word whose letter matrices multiply to the given SL2(Z) matrix.

    Euclidean reduction on the first column, by row operations: a quotient
    q takes q times the top row off the bottom one (the letters R^{-q}),
    which shrinks the lower entry by at least half per round, and S swaps
    the rows up to sign.  Whatever upper-triangular part remains is a
    power of L = [[1,1],[0,1]], which is S R^{-1} S^{-1}.  The applied
    letters, kept as runs (letter, count), are inverted and replayed to
    give the word.  Free reduction removes at most the "S S^{-1}" before
    the shear, so more than max_len + 2 letters are refused before any is
    written.  The word is verified exactly before returning.
    """
    (a, b), (c, e) = matrix
    if a * e - b * c != 1:
        raise ValueError("matrix is not in SL2(Z)")
    runs = []
    while c != 0:
        if a != 0 and abs(c) >= abs(a):
            quot, rem = divmod(c, a)  # round(c / a), ties to even
            if abs(2 * rem) > abs(a) or (2 * rem == a and quot % 2):
                quot += 1
            runs.append(("R-" if quot > 0 else "R", abs(quot)))
            c, e = c - quot * a, e - quot * b
            if c == 0:
                break
        runs.append(("S", 1))
        a, b, c, e = c, e, -a, -b
    if a == -1:
        runs.append(("S", 2))
        a, b, c, e = -a, -b, -c, -e
    if (a, c, e) != (1, 0, 1):
        raise ArithmeticError(f"Euclidean reduction left {((a, b), (c, e))}, "
                              f"not unipotent upper triangular")
    if b != 0:
        # L^{-b} = S R^b S^{-1}, applied right to left, clears the shear
        runs += [("S-", 1), ("R" if b > 0 else "R-", abs(b)), ("S", 1)]
    count = sum(n for _, n in runs)
    if max_len is not None and count > max_len + 2:
        raise TransporterError(
            f"word of at least {count - 2} letters exceeds max_len={max_len}")
    word = GroupWord(tuple([LETTER_INVERSE[letter] for letter, n in runs
                            for _ in range(n)]))
    product = word_matrix(word)
    if product != matrix:
        raise ArithmeticError(
            f"word {word} multiplies to {product}, not {matrix}")
    if max_len is not None and len(word) > max_len:
        raise TransporterError(
            f"word of length {len(word)} exceeds max_len={max_len}")
    return word


def solve_transporter(src, dst, max_len: int = 40) -> GroupWord:
    """Word whose matrix maps the source pair to the destination pair.

    The matrix is unique: it must send the (independent) source vectors to
    the destination vectors, so T = [dst] adj([src]) / det([src]).  T is
    integral exactly when the orbit invariants agree, which is checked
    first so a mismatch reports as such instead of as a division error.
    """
    s1, s2 = src
    d1, d2 = dst
    inv_src = orbit_invariants(s1, s2)
    inv_dst = orbit_invariants(d1, d2)
    if inv_src != inv_dst:
        raise TransporterError(
            f"orbit invariants differ: {inv_src} vs {inv_dst}")
    det = inv_src.det
    adj = ((s2.d, -s2.r), (-s1.d, s1.r))
    dst_cols = ((d1.r, d2.r), (d1.d, d2.d))
    raw = _mat_mul(dst_cols, adj)
    if any(entry % det for row in raw for entry in row):
        raise ArithmeticError(
            f"transporter {raw} / {det} is not integral despite equal "
            f"invariants")
    t = tuple(tuple(entry // det for entry in row) for row in raw)
    return sl2_to_word(t, max_len=max_len)


def _normalize_to_zero_shift(word: GroupWord, obj: DerivedObject) -> GroupWord:
    """Append central S^{+-4} powers so the word sends obj to shift 0."""
    landed = act_word(obj, word)
    if landed.shift % 2:
        raise ArithmeticError(
            f"shift {landed.shift} is odd; central elements fix even shifts")
    steps = landed.shift // 2
    if steps == 0:
        return word
    letter = "S" if steps > 0 else "S-"
    fixer = GroupWord((letter,) * (4 * abs(steps)))
    return fixer * word


def _forced_word(E: DerivedObject, rho: int) -> GroupWord:
    """Word of matrix ((rho, (1 - r rho)/d), (-d, r)) landing E on O_X.

    The matrix sends E = (r, d) to (1, 0) and (1, 0) to (rho, -d); the
    central S^4 bookkeeping then lands E exactly at shift 0, which is
    checked on the word before it is returned.
    """
    r, d = E.rank, E.degree
    word = _normalize_to_zero_shift(
        sl2_to_word(((rho, (1 - r * rho) // d), (-d, r))), E)
    landed = act_word(E, word)
    if landed != Bundle(1, 0, 0):
        raise ArithmeticError(
            f"word {word} sends {E} to {landed}, not {Bundle(1, 0, 0)}")
    return word


def solve_T_r(E: DerivedObject):
    """Word sending the bundle E = (r, d) to the trivial class at shift 0.

    Returns (w, E_prime) where E_prime = act(O_X, w) is the bundle class
    (r', d) at shift -1 with r*r' = -1 mod d and r' minimal positive.
    The matrix is forced (rho = -r' in _forced_word), and the shift gap
    between the two outputs is rigidly -1.
    """
    if E.kind != "bundle" or E.shift != 0:
        raise ValueError("expected a bundle class at shift 0")
    r, d = E.rank, E.degree
    if d <= 1:
        raise ValueError("solve_T_r needs degree d > 1")
    r_prime = (-pow(r, -1, d)) % d
    word = _forced_word(E, -r_prime)
    e_prime = act_word(Bundle(1, 0, 0), word)
    if e_prime != Bundle(r_prime, d, -1):
        raise ArithmeticError(
            f"companion is {e_prime}, expected {Bundle(r_prime, d, -1)}")
    return word, e_prime


def solve_U_r(E: DerivedObject):
    """Word sending E = (r, d) to the trivial class, with dual companion.

    Returns (w, r'') where r''*r = 1 mod d (r'' = 0 at d = 1); act(O_X, w)
    has class (r'', -d), the dual convention for the companion bundle of
    E.  The matrix is forced (rho = r'' in _forced_word).
    """
    if E.kind != "bundle" or E.shift != 0:
        raise ValueError("expected a bundle class at shift 0")
    r, d = E.rank, E.degree
    if d < 1:
        raise ValueError("solve_U_r needs positive degree")
    r_dprime = pow(r, -1, d)
    word = _forced_word(E, r_dprime)
    companion = signed_kvector(act_word(Bundle(1, 0, 0), word))
    if companion != (r_dprime, -d):
        raise ArithmeticError(
            f"companion class is {companion}, expected {(r_dprime, -d)}")
    return word, r_dprime
