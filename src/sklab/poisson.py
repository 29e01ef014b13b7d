"""Classical limit of Q_{d,r}(x): the quadratic Poisson bracket at x = 0.

As x -> 0 the relations of Q_{d,r}(x) tend to the commutators, and their
first-order term is the Feigin-Odesskii bracket q_{d,r} (Feigin-Odesskii
1998; Odesskii, Elliptic algebras, 2002)

    {t_a, t_b} = sum_{c<=e, c+e = a+b mod d} pi[a, b, c] t_c t_e.

theta_0 is odd with a simple zero at 0, so for k = j - i != 0

    theta_0'(0) x R_ij = t_{rj} t_{ri} - t_{ri} t_{rj} + x S_k + O(x^2),

and {t_{ri}, t_{rj}} is the symmetric part of S_k times u/2
(u = EXTRACTION_DIRECTION).  S_k depends on (i, j) only through k, and its
terms are ratios of theta(0) and theta'(0).  The bracket is graded like the
relations: {t_a, t_b} holds only monomials t_c t_e with c + e = a + b mod d,
so pi keeps one coefficient per (a, b, c).  The tangent residual checks the
bracket against the relations at x = h u; jacobi_check verifies the Jacobi
identity pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .sklyanin import AlgebraParams, _grade_bases, build_relations
from . import _integer, theta
from .theta import CurveModulus, ThetaBasis

__all__ = [
    "ExtractionError",
    "PoissonTensor",
    "extract_bracket",
    "jacobi_check",
    "scale_match_deviation",
    "skew_check",
    "substituted_tensor",
]

# Fixed generic direction u: the bracket carries the scale u/2, and the
# tangent check samples x = h*u.  Frozen so brackets are reproducible.
EXTRACTION_DIRECTION = (0.31 + 0.17j) / abs(0.31 + 0.17j)

# Step of the tangent check and its bound.  At this step the true bracket
# reads below 2e-10 up to d = 61, and a bracket scaled by 1.01 above 3e-8.
TANGENT_H = 1e-6
TANGENT_TOL = 1e-9

# Bound on the Jacobi residual of a bracket.
BRACKET_TOL = 1e-6

# Budget of jacobi_check per batch, in points times d^3: 8 points at d = 10,
# one point from d = 20 up.
JACOBI_ENTRIES = 8000


class ExtractionError(ArithmeticError):
    """The bracket failed its check against the relations at x = h u."""


@dataclass(frozen=True)
class PoissonTensor:
    """Coefficients of a quadratic bracket on C^d.

    pi[a, b, c] is the coefficient of t_c t_e in {t_a, t_b}, e = a + b - c
    mod d (the bracket is graded), for all (a, b) with pi[b, a] = -pi[a, b]
    and zero diagonal.  Each monomial is stored once, at c <= e; entries
    with c > e are structurally zero.  richardson_error holds the tangent
    residual of extract_bracket, or the value read back from a dump.
    """

    d: int
    r: int
    pi: np.ndarray
    richardson_error: float


def _grade(d: int):
    """Open grids a, b, c of pi's axes, and e = a + b - c mod d."""
    a, b, c = np.ogrid[:d, :d, :d]
    return a, b, c, (a + b - c) % d


def _unpack(pi: np.ndarray) -> np.ndarray:
    """M_ab[c, e] at (a, b, c), M_ab the symmetric matrix of {t_a, t_b}.

    Halves each monomial's coefficient onto both of its orders; with zeros
    at c > e no entry is rounded.
    """
    a, b, _, e = _grade(len(pi))
    return 0.5 * (pi + pi[a, b, e])


def _bracket_rows(d: int, r: int, modulus: CurveModulus) -> np.ndarray:
    """Row k of the bracket table: term n of (u/2) S_k, as a (d, d) array.

    Term n sits on t_{r(j-n)} t_{r(i+n)}.  It is theta_0'(0)
    theta_{k+(r-1)n}(0) / (theta_{k-n}(0) theta_{rn}(0)), and theta_k'/theta_k
    at n = 0, theta_{rk}'/theta_{rk} at n = k, all at 0.  Row 0 is zero.
    An entry that is not a finite double raises ExtractionError naming its
    (k, n) and the moduli of its theta values, before any d^3 array exists.
    """
    basis = ThetaBasis(d, modulus)
    idx = np.arange(d)
    scale, value, deriv = theta._scaled_series(basis, idx, 0.0, True)
    at_zero = theta._at_zero(basis, scale, value)
    slope = theta._unscale(basis, idx, scale, deriv)
    k, n = np.ogrid[:d, :d]
    # theta_0(0) = 0 divides at n = 0 and n = k; those entries are replaced
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = slope[0] * at_zero[(k + (r - 1) * n) % d] / (
            at_zero[(k - n) % d] * at_zero[(r * n) % d])
        rows[:, 0] = slope / at_zero
        diag = np.arange(d)
        rows[diag, diag] = rows[(r * diag) % d, 0]
        rows[0] = 0.0
        rows = 0.5 * EXTRACTION_DIRECTION * rows
    bad = np.argwhere(~np.isfinite(rows))
    if len(bad):
        k, n = bad[0].tolist()
        if n in (0, k):
            m = k if n == 0 else r * k % d
            term = (f"theta_{m}'(0) / theta_{m}(0), of moduli "
                    f"{abs(slope[m]):.3e} / {abs(at_zero[m]):.3e}")
        else:
            a, b, c = (k + (r - 1) * n) % d, (k - n) % d, (r * n) % d
            term = (f"theta_0'(0) theta_{a}(0) / (theta_{b}(0) theta_{c}"
                    f"(0)), of moduli {abs(slope[0]):.3e} * "
                    f"{abs(at_zero[a]):.3e} / ({abs(at_zero[b]):.3e} * "
                    f"{abs(at_zero[c]):.3e})")
        raise ExtractionError(
            f"non-finite bracket coefficient at (k, n) = ({k}, {n}), d={d}, "
            f"r={r}: {term}, is not a finite double (normal doubles span "
            f"{np.finfo(float).tiny:.3e} to {np.finfo(float).max:.3e})")
    return rows


def _tangent_residual(pi: np.ndarray, params: AlgebraParams) -> float:
    """Distance of the bracket from the relation space at x = params.x.

    For each representative grade s0 < gcd(2, d), with sigma(a) = r s0 - a
    and the grade's relation space in block coordinates c (for
    t_c t_{sigma(c)}), every target pair a < sigma(a) gives
    w = (delta_a - delta_sigma(a))/2 - h M_{a,sigma(a)}[c, sigma(c)], M the
    bracket matrices.  Returns max |w - Pw| / |w|, P the projector onto
    the space; ExtractionError names the grade and pair when it reaches
    TANGENT_TOL or is not finite.
    """
    d, r, h = params.d, params.r, TANGENT_H
    sys = build_relations(params)
    reps = np.arange(gcd(2, d))
    coord = np.arange(d)
    worst = (0.0, 0, 0, 0)
    for s0, basis in zip(reps, _grade_bases(sys, reps)[0]):
        sigma = (r * s0 - coord) % d
        # fixed points of sigma (2a = r s0, even d only) pair with nothing
        lo = np.flatnonzero(coord < sigma)
        hi = sigma[lo]
        # on the grade of s0, e = lo + hi - c is sigma(c): M[c, sigma(c)]
        m = pi[lo, hi]
        with np.errstate(over="ignore", invalid="ignore"):
            w = (0.5 * (coord[:, None] == lo) - 0.5 * (coord[:, None] == hi)
                 - h * (0.5 * (m + m[:, sigma])).T)
            gone = w - basis @ (basis.conj().T @ w)
            residual = (np.linalg.norm(gone, axis=0)
                        / np.linalg.norm(w, axis=0))
        if len(lo):
            j = residual.argmax()  # the first NaN, if there is one
            if not np.isfinite(residual[j]):
                raise ExtractionError(
                    f"tangent residual is not finite for e_{lo[j]}^e_{hi[j]}"
                    f", grade s={s0}: the bracket holds a non-finite entry "
                    f"or overflows")
            worst = max(worst, (residual[j], s0, lo[j], hi[j]))
    size, s0, a, b = worst
    if size >= TANGENT_TOL:
        raise ExtractionError(
            f"tangent residual {size:.2e} >= TANGENT_TOL={TANGENT_TOL:g} "
            f"for e_{a}^e_{b}, grade s={s0} at h={h:g}: the bracket is not "
            f"the first-order part of the relations")
    return float(size)


def extract_bracket(d: int, r: int, modulus: CurveModulus) -> PoissonTensor:
    """The bracket of the x -> 0 degeneration of Q_{d,r}(x), in closed form.

    Each unordered pair is written once, as (r i, r(i + k)) with k < d/2
    (and i < d/2 at k = d/2), and its swap as the exact negative; the
    choice is shift invariant, so at odd d the bracket is exactly
    equivariant under t_c -> t_{c+1}.  Terms n and k - n of a row land on
    one monomial and are summed.  The tangent residual is stored as
    richardson_error; ExtractionError is raised when it reaches
    TANGENT_TOL.
    """
    params = AlgebraParams(d, r, TANGENT_H * EXTRACTION_DIRECTION, modulus)
    d, r = params.d, params.r
    rows = _bracket_rows(d, r, modulus)
    k, n = np.ogrid[:d, :d]
    mirror = (k - n) % d
    sym = np.where(mirror == n, rows, rows + rows[k, mirror])
    first, step = np.ogrid[:d, :d]
    once = (step > 0) & ((2 * step < d) | (2 * step == d) & (first < step))
    i, k = (v[:, None] for v in np.nonzero(once))
    n = np.arange(d)
    a, b = (r * i) % d, (r * (i + k)) % d
    c = np.minimum((r * (i + k - n)) % d, (r * (i + n)) % d)
    pi = np.zeros((d, d, d), dtype=complex)
    pi[a, b, c] = sym[k, n]
    pi[b, a, c] = -sym[k, n]
    residual = _tangent_residual(pi, params)
    return PoissonTensor(d=d, r=r, pi=pi, richardson_error=residual)


def skew_check(tensor: PoissonTensor) -> float:
    """Largest violation of the storage conventions.

    Checks pi[b, a] = -pi[a, b] (at a = b this is {t_a, t_a} = 0, seen
    doubled) and that no coefficient sits below the diagonal of the
    monomial indices (c > e).  Extracted tensors return exactly 0; a
    hand-edited array shows up as positive.
    """
    pi = tensor.pi
    _, _, c, e = _grade(tensor.d)
    skew = np.abs(pi + pi.swapaxes(0, 1)).max()
    lower = np.abs(np.where(c > e, pi, 0.0)).max()
    return float(max(skew, lower))


@np.errstate(over="ignore", invalid="ignore")  # the residual check shows them
def jacobi_check(tensor: PoissonTensor, trials: int, seed: int) -> float:
    """Max normalized Jacobi residual of the bracket at random points.

    The bracket extends to polynomials by the Leibniz rule, so with
    g = {t_b, t_c} the cyclic sum J_abc(p) = {t_a, g}(p) + ... needs only
    first derivatives of the quadratic forms.  Points are drawn with each
    coordinate uniform in the unit disc, all from one call, and |J| is
    normalized per point by the largest cubic monomial (max_i |p_i|)^3.
    The points are evaluated max(1, JACOBI_ENTRIES // d^3) at a time,
    which bounds the memory of the batched (points, d, d, d) products.
    trials must be at least 1; a non-finite residual raises ArithmeticError.
    """
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    d = tensor.d
    forms = _unpack(tensor.pi)
    a, b, c, e = _grade(d)
    triples = (a < b) & (b < c)
    # per trial, d radius draws then d angle draws: the doubles that
    # rng.uniform(0, 1, d) and rng.uniform(0, 2 pi, d) would return
    draws = np.random.default_rng(seed).random((trials, 2, d))
    points = np.sqrt(draws[:, 0]) * np.exp(1j * (2.0 * np.pi * draws[:, 1]))
    cubes = np.abs(points).max(axis=1) ** 3
    points, cubes = points[cubes > 0.0], cubes[cubes > 0.0]
    chunk = max(1, JACOBI_ENTRIES // d ** 3)
    worst = 0.0
    for start in range(0, len(points), chunk):
        p = points[start:start + chunk]
        n = len(p)
        # gradients[t, a, b] = M_ab p_t, whose entry c is M_ab[c, e] p_e:
        # half the gradient of p^T M_ab p at point t (2 is applied below)
        gradients = (forms * p[:, e]).reshape(n, d * d, d)
        values = (gradients @ p[..., None]).reshape(n, d, d)
        # term[t, a, b, c] = gradients[t, b, c] . values[t, a]; J_abc sums
        # its cyclic shifts
        term = (values @ gradients.swapaxes(1, 2)).reshape(n, d, d, d)
        total = 2.0 * (term[:, triples]
                       + term.transpose(0, 3, 1, 2)[:, triples]
                       + term.transpose(0, 2, 3, 1)[:, triples])
        top = float((np.abs(total).max(axis=1, initial=0.0)
                     / cubes[start:start + n]).max())
        if not np.isfinite(top):
            raise ArithmeticError(
                f"Jacobi residual of batch {start // chunk} (points {start}"
                f" to {start + n - 1}) is not finite: the bracket holds a "
                f"non-finite entry or overflows")
        worst = max(worst, top)
    return worst


def substituted_tensor(tensor: PoissonTensor) -> PoissonTensor:
    """Transport the tensor through t_i -> t_{r'i}, r' the inverse of r.

    The relation-space substitution that identifies Q_{d,r}(x) with
    Q_{d,r'}(x) acts on the extracted bracket entrywise: the transported
    coefficient of t_c t_e in {t_a, t_b} is the original one at the
    indices multiplied by r, stored again at c <= e.  The result is
    directly comparable (up to one overall scale) with the tensor
    extracted at (d, r').
    """
    d, r = tensor.d, tensor.r
    r_prime = pow(r, -1, d) if d > 1 else 0
    a, b, c, e = _grade(d)
    moved = tensor.pi[r * a % d, r * b % d, np.minimum(r * c % d, r * e % d)]
    return PoissonTensor(d=d, r=r_prime, pi=np.where(c <= e, moved, 0.0),
                         richardson_error=tensor.richardson_error)


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
