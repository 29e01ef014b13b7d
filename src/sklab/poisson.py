"""Classical limit of Q_{d,r}(x): the quadratic Poisson bracket at x = 0.

As x -> 0 the relation space of Q_{d,r}(x) degenerates to the span of the
commutators, so the algebra degenerates to the polynomial ring.  The
first-order term of that degeneration is a Poisson bracket

    {t_a, t_b} = sum_{c<=e} pi[a, b, c, e] t_c t_e,

quadratic in the generators.  It is extracted numerically: at x = h*u
(u a fixed generic direction) each relation-space element with a
prescribed antisymmetric part e_a ^ e_b carries a symmetric part of
order h, and -Sym/h converges linearly to the bracket coefficients.
Two Richardson stages on the ladder h, h/2, h/4 kill the linear error
and estimate what is left.

The bracket inherits the Z/d grading of the relations: {t_a, t_b} holds
only monomials t_c t_e with c + e = a + b mod d, so pi is exactly zero off
the grading.  The Heisenberg shift t_c -> t_{c+r} carries grade s onto
s + 2, so one small wedge solve per orbit (grade 0, and grade 1 at even d)
fixes the bracket; the other grades are its shifted copies.

The Jacobi identity is not built in; jacobi_check verifies it pointwise,
which is the real evidence that the extracted tensor is Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .sklyanin import AlgebraParams, _graded_space, build_relations
from .theta import CurveModulus

__all__ = [
    "ExtractionError",
    "PoissonTensor",
    "extract_bracket",
    "jacobi_check",
    "scale_match_deviation",
    "skew_check",
    "substituted_tensor",
]

# Fixed generic direction for x = h*u; any direction off the theta zero
# divisors works, this one is frozen so extractions are reproducible.
EXTRACTION_DIRECTION = (0.31 + 0.17j) / abs(0.31 + 0.17j)

DEFAULT_H = 3e-5

# Bound on the Richardson spread of extract_bracket.
BRACKET_TOL = 1e-6

# Points per batch of jacobi_check
JACOBI_CHUNK = 8


class ExtractionError(RuntimeError):
    """The limit extraction failed (bad conditioning or no convergence)."""


@dataclass(frozen=True)
class PoissonTensor:
    """Coefficients of a quadratic bracket on C^d.

    pi[a, b, c, e] is the coefficient of t_c t_e in {t_a, t_b}, stored for
    all (a, b) with pi[b, a] = -pi[a, b] and zero diagonal, and with the
    quadratic monomial indices canonicalized to c <= e (entries with c > e
    are structurally zero).  extraction_step records the h of the ladder
    when the tensor came from extract_bracket, None for loaded data.
    """

    d: int
    r: int
    pi: np.ndarray
    richardson_error: float
    extraction_step: float | None = None

    def bracket_matrix(self, a: int, b: int) -> np.ndarray:
        """Symmetric matrix M with {t_a, t_b}(p) = p^T M p."""
        return _unpack(self.pi[a, b])


def _unpack(packed: np.ndarray) -> np.ndarray:
    """Symmetric matrices of quadratic forms stored in c <= e form.

    Works on the last two axes, so _unpack(pi)[a, b] is the matrix of
    {t_a, t_b}.  With zeros below the diagonal no entry is rounded.
    """
    return 0.5 * (packed + packed.swapaxes(-1, -2))


def _pack(mats: np.ndarray) -> np.ndarray:
    """Canonical c <= e storage of symmetric matrices (inverse of _unpack)."""
    return np.triu(mats) + np.triu(mats, 1)


def _extract_level(d: int, r: int, modulus: CurveModulus,
                   h: float) -> np.ndarray:
    """Bracket matrices -Sym(v)/h at x = h*u, as a (d, d, d, d) array.

    For every pair a < b, v is the relation-space element whose
    antisymmetric part is e_a ^ e_b, a target of the one grade s with
    a + b = rs.  With B_s the grade-s basis in block coordinates (a for
    t_a t_{rs-a}) and sigma(a) = rs - a, one SVD of the wedge block
    W_s = (B_s - B_s[sigma])/2 solves every target of grade s, and only
    (v[c] + v[sigma(c)])/2 is written, at (a, b, c, sigma(c)).  The shift
    t_c -> t_{c+r} maps grade s onto s + 2 and moves all four indices by
    r, so only the representatives s0 < gcd(2, d) are solved, each written
    at every shift m*r, and the condition number over them is that over
    all grades.  The result is antisymmetric in (a, b).
    """
    x = h * EXTRACTION_DIRECTION
    sys = build_relations(AlgebraParams(d, r, x, modulus))
    r, reps = sys.params.r, range(gcd(2, d))
    vh, keep = _graded_space(sys, reps)
    coord = np.arange(d)
    # moved[m, c] = c + m r, over the shifts of one orbit
    moved = (coord + r * np.arange(d // len(reps))[:, None]) % d
    level = np.zeros((d, d, d, d), dtype=complex)
    top, bottom, worst = 0.0, (np.inf, 0), (0.0, 0, 0, 0)
    for s0 in reps:
        sigma = (r * s0 - coord) % d
        # a is the smaller index of a target pair; fixed points of sigma
        # (2a = r s0, even d only) pair with nothing
        lo = np.flatnonzero(coord < sigma)
        hi = sigma[lo]
        basis = vh[s0, :keep[s0].sum()].T
        wedge = 0.5 * (basis - basis[sigma])
        targets = 0.5 * (coord[:, None] == lo) - 0.5 * (coord[:, None] == hi)
        u, sv, vw = np.linalg.svd(wedge, full_matrices=False)
        # a zero singular value fails the condition gate below
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = vw.conj().T @ ((u.conj().T @ targets) / sv[:, None])
        if len(sv):
            top, bottom = max(top, sv[0]), min(bottom, (sv[-1], s0))
        if len(lo):
            residual = np.abs(wedge @ coeff - targets).max(axis=0)
            j = residual.argmax()
            worst = max(worst, (residual[j], s0, lo[j], hi[j]))
        v = basis @ coeff
        level[moved[:, lo, None], moved[:, hi, None], moved[:, None],
              moved[:, None, sigma]] = -0.5 * (v + v[sigma]).T / h
    smallest, low = bottom
    cond = top / smallest if smallest > 0.0 else np.inf
    if cond >= 1e6:
        raise ExtractionError(
            f"wedge condition number {cond:.2e} >= 1e6 at h={h:g}: "
            f"smallest singular value {smallest:.2e} in grade s={low}")
    size, s0, a, b = worst
    if size > 1e-8:
        raise ExtractionError(
            f"residual {size:.2e} > 1e-8 for e_{a}^e_{b}, grade s={s0} at "
            f"h={h:g}: no relation-space element has that antisymmetric "
            f"part")
    return level - level.swapaxes(0, 1)


def extract_bracket(d: int, r: int, modulus: CurveModulus,
                    h: float = DEFAULT_H) -> PoissonTensor:
    """Extract the bracket of the x -> 0 degeneration of Q_{d,r}(x).

    Runs the level extraction at h, h/2 and h/4 and forms the two
    Richardson stages E1 = 2 pi(h/2) - pi(h), E2 = 2 pi(h/4) - pi(h/2).
    E2 is returned; the spread max|E2 - E1| is stored as richardson_error
    and must come in under BRACKET_TOL, otherwise the extraction is
    rejected rather than silently inaccurate.
    """
    coarse, mid, fine = (_extract_level(d, r, modulus, step)
                         for step in (h, h / 2, h / 4))
    first = 2.0 * mid - coarse
    second = 2.0 * fine - mid
    spread = float(np.abs(second - first).max())
    if spread >= BRACKET_TOL:
        raise ExtractionError(
            f"richardson stages disagree by {spread:.2e} "
            f">= BRACKET_TOL={BRACKET_TOL:g}; shrink h")
    return PoissonTensor(d=d, r=r % d, pi=_pack(second),
                         richardson_error=spread, extraction_step=h)


def skew_check(tensor: PoissonTensor) -> float:
    """Largest violation of the storage conventions.

    Checks pi[b, a] = -pi[a, b] (at a = b this is {t_a, t_a} = 0, seen
    doubled) and that no coefficient sits below the diagonal of the
    monomial indices (c > e).  Extracted tensors return exactly 0; a
    hand-edited array shows up as positive.
    """
    pi = tensor.pi
    skew = np.abs(pi + pi.swapaxes(0, 1)).max()
    lower = np.abs(np.tril(pi, -1)).max()
    return float(max(skew, lower))


def jacobi_check(tensor: PoissonTensor, trials: int, seed: int) -> float:
    """Max normalized Jacobi residual of the bracket at random points.

    The bracket extends to polynomials by the Leibniz rule, so with
    g = {t_b, t_c} the cyclic sum J_abc(p) = {t_a, g}(p) + ... needs only
    first derivatives of the quadratic forms.  Points are drawn with each
    coordinate uniform in the unit disc, all from one call, and |J| is
    normalized per point by the largest cubic monomial (max_i |p_i|)^3.
    The points are evaluated JACOBI_CHUNK at a time, which bounds the
    memory of the batched products.  trials must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    d = tensor.d
    forms = _unpack(tensor.pi).reshape(d ** 3, d)
    a, b, c = np.ogrid[:d, :d, :d]
    triples = (a < b) & (b < c)
    # per trial, d radius draws then d angle draws: the doubles that
    # rng.uniform(0, 1, d) and rng.uniform(0, 2 pi, d) would return
    draws = np.random.default_rng(seed).random((trials, 2, d))
    points = np.sqrt(draws[:, 0]) * np.exp(1j * (2.0 * np.pi * draws[:, 1]))
    cubes = np.abs(points).max(axis=1) ** 3
    points, cubes = points[cubes > 0.0], cubes[cubes > 0.0]
    worst = 0.0
    for start in range(0, len(points), JACOBI_CHUNK):
        p = points[start:start + JACOBI_CHUNK]
        n = len(p)
        # gradients[t, a, b] = M_ab p_t, half the gradient of
        # {t_a, t_b}(p) = p^T M_ab p at point t (the 2 is applied below)
        gradients = (p @ forms.T).reshape(n, d * d, d)
        values = (gradients @ p[..., None]).reshape(n, d, d)
        # term[t, a, b, c] = gradients[t, b, c] . values[t, a]; J_abc sums
        # its cyclic shifts
        term = (values @ gradients.swapaxes(1, 2)).reshape(n, d, d, d)
        total = 2.0 * (term + term.transpose(0, 3, 1, 2)
                       + term.transpose(0, 2, 3, 1))
        scaled = (np.abs(total[:, triples]).max(axis=1, initial=0.0)
                  / cubes[start:start + n])
        worst = max(worst, float(scaled.max()))
    return worst


def substituted_tensor(tensor: PoissonTensor) -> PoissonTensor:
    """Transport the tensor through t_i -> t_{r'i}, r' the inverse of r.

    The relation-space substitution that identifies Q_{d,r}(x) with
    Q_{d,r'}(x) acts on the extracted bracket entrywise: the transported
    coefficient at (a, b, c, e) is the original one at the indices
    multiplied by r, with a sign when the (a, b) ordering flips.  The
    result is directly comparable (up to one overall scale) with the
    tensor extracted at (d, r').
    """
    d, r = tensor.d, tensor.r
    r_prime = pow(r, -1, d) if d > 1 else 0
    moved = (r * np.arange(d)) % d
    mats = _unpack(tensor.pi)[np.ix_(moved, moved, moved, moved)]
    return PoissonTensor(d=d, r=r_prime, pi=_pack(mats),
                         richardson_error=tensor.richardson_error,
                         extraction_step=tensor.extraction_step)


def scale_match_deviation(t1: PoissonTensor, t2: PoissonTensor):
    """Best single complex scale lam with t2 ~ lam * t1, and the deviation.

    lam is read off at the largest entry of t1; the return is (lam, dev)
    where dev = max |t2 - lam*t1| normalized by max |t2|.  Zero tensors
    compare equal with lam = 1.
    """
    if t1.d != t2.d:
        raise ValueError("tensor dimensions differ")
    flat1, flat2 = t1.pi.ravel(), t2.pi.ravel()
    top = np.abs(flat1).argmax()
    scale2 = np.abs(flat2).max()
    if abs(flat1[top]) == 0.0 and scale2 == 0.0:
        return 1.0 + 0.0j, 0.0
    if abs(flat1[top]) == 0.0 or scale2 == 0.0:
        return 1.0 + 0.0j, 1.0
    # written out in real arithmetic so that equal entries give exactly
    # lam = 1: complex division rounds x / x away from 1 for about one x
    # in five
    x1, x2 = complex(flat1[top]), complex(flat2[top])
    norm = x1.real * x1.real + x1.imag * x1.imag
    lam = complex((x2.real * x1.real + x2.imag * x1.imag) / norm,
                  (x2.imag * x1.real - x2.real * x1.imag) / norm)
    dev = float(np.abs(flat2 - lam * flat1).max() / scale2)
    return lam, dev
