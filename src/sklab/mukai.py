"""The central extension of SL2(Z) acting on (rank, degree, shift) data.

The derived category of an elliptic curve carries an autoequivalence S
(the transform swapping rank and degree) and the twist R by a degree-one
line bundle.  On the invariants tracked here, an object is either a
stable bundle class Bundle(r, d, k) with r > 0, gcd(r, d) = 1, or the
skyscraper class Torsion(k); k is the homological shift.  S and R
generate a central extension of SL2(Z) whose only relation is
S^2 = (RS)^3, the center being generated by S^4 = shift by -2.

Words multiply like group elements: in a word "S R" the rightmost letter
acts first, so act(o, S R) = S(R(o)) and word matrices multiply in
written order.  That convention makes word_matrix a homomorphism and
makes the signed K-vector (-1)^k (r, d) strictly equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "Bundle",
    "DerivedObject",
    "GroupWord",
    "KVector",
    "OrbitInvariant",
    "Torsion",
    "TransporterError",
    "act_letter",
    "act_word",
    "hom_dims",
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


class TransporterError(RuntimeError):
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
        return GroupWord(tuple(LETTER_INVERSE[l] for l in reversed(self.letters)))


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


def _act_S(obj: DerivedObject) -> DerivedObject:
    if obj.kind == "torsion":
        return Bundle(1, 0, obj.shift)
    if obj.degree > 0:
        return Bundle(obj.degree, -obj.rank, obj.shift)
    if obj.degree < 0:
        return Bundle(-obj.degree, obj.rank, obj.shift - 1)
    return Torsion(obj.shift - 1)


def act_letter(obj: DerivedObject, letter: str) -> DerivedObject:
    """One generator applied to an object.

    R twists: degree moves by rank, torsion is untouched.  S follows the
    rank/degree swap (r, d) -> (d, -r), dropping the shift by one when
    the degree sign forces a wrap (d < 0) or the output leaves the bundle
    range (d = 0, landing on the skyscraper).  S^{-1} is S conjugated by
    the central shift: S^{-1}(o at k) = S(o at k+1), consistent with
    S^2 = shift(-1).
    """
    if letter == "R":
        if obj.kind == "torsion":
            return obj
        return Bundle(obj.rank, obj.degree + obj.rank, obj.shift)
    if letter == "R-":
        if obj.kind == "torsion":
            return obj
        return Bundle(obj.rank, obj.degree - obj.rank, obj.shift)
    if letter == "S":
        return _act_S(obj)
    if letter == "S-":
        shifted = DerivedObject(obj.kind, obj.rank, obj.degree, obj.shift + 1)
        return _act_S(shifted)
    raise ValueError(f"unknown letter {letter!r}")


def act_word(obj: DerivedObject, word: GroupWord) -> DerivedObject:
    """Apply a word, rightmost letter first (function composition order)."""
    for letter in reversed(word.letters):
        obj = act_letter(obj, letter)
    return obj


def word_matrix(word: GroupWord):
    """Image in SL2(Z): letter matrices multiplied in written order."""
    out = IDENTITY
    for letter in word.letters:
        out = _mat_mul(out, LETTER_MATRIX[letter])
    return out


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
    u*r2 + w*d2 (alpha = u*r1 + w*d1 works for both coordinates because
    the difference is a multiple of det).
    """
    if not (v1.is_primitive() and v2.is_primitive()):
        raise ValueError("orbit invariants need primitive vectors")
    det = v1.r * v2.d - v1.d * v2.r
    if det == 0:
        raise ValueError("pair is degenerate (det = 0)")
    modulus = abs(det)
    # extended euclid on (r2, d2)
    old_r, rem = v2.r, v2.d
    old_u, u = 1, 0
    while rem != 0:
        quot = old_r // rem
        old_r, rem = rem, old_r - quot * rem
        old_u, u = u, old_u - quot * u
    # old_r = gcd = +-1; old_u * r2 + w * d2 = old_r  with  w recovered below
    sign = old_r  # +-1
    w = (sign - old_u * v2.r) // v2.d if v2.d != 0 else 0
    alpha = (sign * (old_u * v1.r + w * v1.d)) % modulus
    gap = ((v1.r - alpha * v2.r) % modulus, (v1.d - alpha * v2.d) % modulus)
    if gap != (0, 0) or gcd(alpha, modulus) != 1:
        raise ArithmeticError(
            f"alpha = {alpha} leaves v1 - alpha*v2 = {gap} mod {modulus} and "
            f"gcd(alpha, {modulus}) = {gcd(alpha, modulus)}; want (0, 0) and 1")
    return OrbitInvariant(det=det, alpha=alpha)


def sl2_to_word(matrix, max_len: int | None = None) -> GroupWord:
    """A word whose letter matrices multiply to the given SL2(Z) matrix.

    Euclidean reduction on the first column: R-powers shrink the lower
    entry by at least half per round, S swaps the entries, and whatever
    upper-triangular part remains is a power of L = [[1,1],[0,1]], which
    is S R^{-1} S^{-1}.  The applied reductions are inverted and replayed
    to give the word.  The result is verified exactly before returning.
    """
    ((a, b), (c, e)) = matrix
    if a * e - b * c != 1:
        raise ValueError("matrix is not in SL2(Z)")
    work = ((a, b), (c, e))
    applied = []

    def push(letter):
        nonlocal work
        applied.append(letter)
        work = _mat_mul(LETTER_MATRIX[letter], work)

    while work[1][0] != 0:
        top, low = work[0][0], work[1][0]
        if top != 0 and abs(low) >= abs(top):
            quot = round(Fraction(low, top))
            letter = "R-" if quot > 0 else "R"
            for _ in range(abs(quot)):
                push(letter)
            if work[1][0] == 0:
                break
        push("S")
    if work[0][0] == -1:
        push("S")
        push("S")
    if work[0][0] != 1 or work[1][0] != 0 or work[1][1] != 1:
        raise ArithmeticError(
            f"Euclidean reduction left {work}, not unipotent upper triangular")
    shear = work[0][1]
    if shear != 0:
        # multiply by L^{-shear} = S R^{shear} S^{-1}, applied right to left
        push("S-")
        for _ in range(abs(shear)):
            push("R" if shear > 0 else "R-")
        push("S")
    if work != IDENTITY:
        raise ArithmeticError(f"shear removal left {work}, not the identity")
    word = GroupWord(tuple(LETTER_INVERSE[l] for l in applied))
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


def _check_lands_on_trivial(E: DerivedObject, word: GroupWord) -> None:
    """Raise ArithmeticError unless the word sends E to O_X at shift 0."""
    landed = act_word(E, word)
    if landed != Bundle(1, 0, 0):
        raise ArithmeticError(
            f"word {word} sends {E} to {landed}, not {Bundle(1, 0, 0)}")


def solve_T_r(E: DerivedObject):
    """Word sending the bundle E = (r, d) to the trivial class at shift 0.

    Returns (w, E_prime) where E_prime = act(O_X, w) is the bundle class
    (r', d) at shift -1 with r*r' = -1 mod d and r' minimal positive.
    The matrix is forced: it must send (r, d) to (1, 0) and (1, 0) to
    -(r', d); the central S^4 bookkeeping then lands E exactly at shift 0,
    and the shift gap between the two outputs is rigidly -1.
    """
    if E.kind != "bundle" or E.shift != 0:
        raise ValueError("expected a bundle class at shift 0")
    r, d = E.rank, E.degree
    if d <= 1:
        raise ValueError("solve_T_r needs degree d > 1")
    r_prime = (-pow(r, -1, d)) % d
    matrix = ((-r_prime, (1 + r * r_prime) // d), (-d, r))
    word = _normalize_to_zero_shift(sl2_to_word(matrix), E)
    _check_lands_on_trivial(E, word)
    e_prime = act_word(Bundle(1, 0, 0), word)
    if e_prime != Bundle(r_prime, d, -1):
        raise ArithmeticError(
            f"companion is {e_prime}, expected {Bundle(r_prime, d, -1)}")
    return word, e_prime


def solve_U_r(E: DerivedObject):
    """Word sending E = (r, d) to the trivial class, with dual companion.

    Returns (w, r'') where r''*r = 1 mod d; act(O_X, w) has class
    (r'', -d), the dual convention for the companion bundle of E.
    """
    if E.kind != "bundle" or E.shift != 0:
        raise ValueError("expected a bundle class at shift 0")
    r, d = E.rank, E.degree
    if d < 1:
        raise ValueError("solve_U_r needs positive degree")
    r_dprime = pow(r, -1, d) if d > 1 else 0
    matrix = ((r_dprime, (1 - r * r_dprime) // d), (-d, r))
    word = _normalize_to_zero_shift(sl2_to_word(matrix), E)
    _check_lands_on_trivial(E, word)
    companion = signed_kvector(act_word(Bundle(1, 0, 0), word))
    if companion != (r_dprime, -d) and d != 1:
        raise ArithmeticError(
            f"companion class is {companion}, expected {(r_dprime, -d)}")
    return word, r_dprime


def hom_dims(v: KVector, assume_trivial: bool = True):
    """(h0, h1) for a stable object of primitive class v on the curve.

    Degree decides everything away from d = 0: stable slopes give
    vanishing on one side and the Euler characteristic h0 - h1 = d fills
    in the other.  At d = 0 the class (1, 0) is ambiguous between O_X,
    which has (1, 1), and a nontrivial degree-zero line bundle with
    (0, 0); assume_trivial selects the O_X reading, which is the one the
    solver pipeline needs.
    """
    if not v.is_primitive():
        raise ValueError(f"class {v.as_tuple()} is not primitive")
    if v.r < 0:
        raise ValueError("negative rank is not a sheaf class here")
    if v.d > 0:
        return (v.d, 0)
    if v.d < 0:
        return (0, -v.d)
    return (1, 1) if assume_trivial else (0, 0)
