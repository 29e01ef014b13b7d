"""Quadratic relation spaces of the elliptic algebras Q_{d,r}(x).

The algebra Q_{d,r}(x) has d generators t_0, ..., t_{d-1} and, for each
pair (i, j) of indices mod d, the quadratic relation

    sum_n  theta_{j-i+(r-1)n}(0)
           ----------------------------------  t_{r(j-n)} t_{r(i+n)}  =  0,
           theta_{j-i-n}(-x) * theta_{rn}(x)

with n running over Z/dZ.  Every term of R_ij is a monomial t_a t_b with
a + b = r(i + j) mod d, so the d^2 relations split by the grade
s = i + j mod d into d blocks of d rows, each touching only the d monomials
t_a t_{rs-a} (the Z/d grading behind the Heisenberg symmetry of these
algebras).  This module builds the blocks, measures the numerical rank of
their span inside C^{d^2} (which equals d(d-1)/2 for generic x) from one
batched SVD of the d blocks, and checks grade by grade that the index
substitution t_i -> t_{r'i} with r*r' = 1 mod d carries the relation space
of Q_{d,r}(x) onto that of Q_{d,r'}(x).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .theta import ConvergenceError, CurveModulus, ThetaBasis, reduce_to_cell

__all__ = [
    "AlgebraParams",
    "AmbiguousRank",
    "DenominatorNearZero",
    "RelationSystem",
    "build_relations",
    "check_substitution_isomorphism",
    "relation_space",
    "relation_terms",
    "sample_generic_x",
    "singular_values",
    "subspace_distance",
    "substitution_distance",
    "substitution_matrix",
]

ROW_DROP_CUTOFF = 1e-10


class DenominatorNearZero(ValueError):
    """x sits too close to a zero of a denominator theta; move x."""

    def __init__(self, index: int, which: str, ratio: float, zero_tol: float):
        self.index = index
        self.which = which
        self.ratio = ratio
        super().__init__(
            f"|theta_{index}({which})| is {ratio:.2e} of the largest basis "
            f"value, below zero_tol={zero_tol:g}")


class AmbiguousRank(RuntimeError):
    """No clear spectral gap at the rank cutoff."""


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters (d, r, x) of Q_{d,r}(x) on the curve C/(Z + omega Z).

    r is stored reduced mod d and must be a unit mod d; x must not be a
    lattice point (x = 0 is the symmetric-algebra degeneration, reached
    only as a limit by the poisson module).  x may lie in any cell; it
    must be finite.
    """

    d: int
    r: int
    x: complex
    modulus: CurveModulus

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        object.__setattr__(self, "r", self.r % self.d)
        if gcd(self.r, self.d) != 1:
            raise ValueError(f"r={self.r} is not a unit mod d={self.d}")
        object.__setattr__(self, "x", complex(self.x))
        if not np.isfinite(self.x):
            raise ValueError("x must be finite")
        x_red, _, _ = reduce_to_cell(self.x, self.modulus.omega)
        if abs(complex(x_red)) < 1e-12 * (1.0 + abs(self.modulus.omega)):
            raise ValueError("x is congruent to 0 mod the lattice")


@dataclass(frozen=True)
class RelationSystem:
    """Coefficient rows of the d^2 relations, stored as their d grade blocks.

    blocks[s, i, a] is the coefficient of t_a t_{rs-a} in relation
    R_{i,s-i} (indices mod d): block s holds the d relations of grade
    s = i + j and nothing else, because no relation of that grade touches
    another monomial.  Each row is scaled to unit max entry; rows that
    vanish identically (their theta numerators are exact zeros) are zero
    rows.  coeffs is the same data in the dense (i, j, a, b) layout.
    """

    params: AlgebraParams
    blocks: np.ndarray

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def coeffs(self) -> np.ndarray:
        """coeffs[i, j, a, b], the coefficient of t_a t_b in R_ij.

        For fixed (i, j) the nonzero entries sit at (a, b) = (r(j-n),
        r(i+n)), one per n.  Built from the blocks on every access.
        """
        d, r = self.d, self.params.r
        s, i, a = np.ogrid[:d, :d, :d]
        coeffs = np.zeros((d, d, d, d), dtype=self.blocks.dtype)
        coeffs[i, (s - i) % d, a, (r * s - a) % d] = self.blocks
        return coeffs

    @functools.cached_property
    def _svd(self):
        """Batched SVD of the grade blocks and the global sorted spectrum.

        Computed on first use and kept, so relation_space, singular_values
        and the substitution check share one decomposition per system.
        Rows below ROW_DROP_CUTOFF of the largest row are zeroed first.
        The spectrum of the stacked kept rows is the union of the block
        spectra: a block with m kept rows has m singular values, and the
        d - m trailing ones that its zeroed rows add are set to exact zeros
        and left out.  Returns (vh, block_svals, spectrum), all read-only.
        """
        rowmax = np.abs(self.blocks).max(axis=2)
        live = (rowmax > 0.0) & (rowmax >= ROW_DROP_CUTOFF * rowmax.max())
        _, svals, vh = np.linalg.svd(np.where(live[..., None],
                                              self.blocks, 0.0))
        kept = live.sum(axis=1)
        svals[np.arange(self.d) >= kept[:, None]] = 0.0
        spectrum = np.sort(svals, axis=None)[::-1][:int(kept.sum())]
        for a in (vh, svals, spectrum):
            a.flags.writeable = False
        return vh, svals, spectrum


def _gate(basis: ThetaBasis, x: complex, zero_tol: float) -> np.ndarray:
    """theta values at x and -x (rows 0 and 1): the denominator gate.

    Refuses x when the smallest |theta_m| at x or at -x is below zero_tol
    times the largest at the same point, naming the worse of the two.
    """
    vals = np.stack([basis.values_at(x), basis.values_at(-x)])
    mags = np.abs(vals)
    ratios = mags.min(axis=1) / mags.max(axis=1)
    w = int(ratios.argmin())
    if ratios[w] < zero_tol:
        raise DenominatorNearZero(int(mags[w].argmin()), ("x", "-x")[w],
                                  float(ratios[w]), zero_tol)
    return vals


def _theta_triple(params: AlgebraParams, zero_tol: float,
                  tail_eps: float = 1e-14):
    """Gated theta values at 0, x_red and -x_red, x_red = x in the cell.

    Shifting x by p + q*omega multiplies every denominator by one common
    factor, which the row scaling removes up to its phase; the theta(0)
    values carry that phase, exp(i (2 pi d Re(omega) q^2 + 4 pi d q
    Re(x_red))), so the scaled coefficients are those at x.  The triple
    does not depend on r, so one serves every system at the same (d, x).
    """
    d, omega = params.d, params.modulus.omega
    basis = ThetaBasis(d, params.modulus, tail_eps=tail_eps)
    x_red, _, q = reduce_to_cell(params.x, omega)
    at_x, at_minus_x = _gate(basis, complex(x_red), zero_tol)
    at_zero = basis.values_at_zero()
    if q:
        at_zero *= np.exp(2j * np.pi * d * q * (omega.real * q
                                                + 2.0 * x_red.real))
    return at_zero, at_x, at_minus_x


def _system(params: AlgebraParams, triple) -> RelationSystem:
    """Grade blocks of Q_{d,r}(x) from the theta triple of (d, x).

    Term n of every relation R_ij with j - i = k has the coefficient
    table[k, n]: it depends on (i, j) only through k (the Heisenberg
    shift), and the d terms of a row land on distinct monomials, so the
    row maximum is a maximum over n and the per-row scale is one number
    per k.  Terms whose numerator theta is an exact zero stay exact zeros;
    at small x their denominators vanish to second order, and dividing
    rounding-level numerator noise by them would pollute the row with
    entries that blow up like 1/x^2.  Entry (s, i, a) of the blocks is
    term n = s - i - a/r of R_{i,s-i}.
    """
    d, r = params.d, params.r
    at_zero, at_x, at_minus_x = triple
    k, n = np.ogrid[:d, :d]
    num = at_zero[(k + (r - 1) * n) % d]
    den = at_minus_x[(k - n) % d] * at_x[(r * n) % d]
    table = np.divide(num, den, out=np.zeros((d, d), dtype=complex),
                      where=num != 0.0)
    if not np.all(np.isfinite(table)):
        raise ArithmeticError(
            "non-finite relation coefficient slipped through")
    top = np.abs(table).max(axis=1, keepdims=True)
    table /= np.where(top > 0.0, top, 1.0)
    s, i, a = np.ogrid[:d, :d, :d]
    n = (s - i - pow(r, -1, d) * a) % d
    return RelationSystem(params, table[(s - 2 * i) % d, n])


def build_relations(params: AlgebraParams, zero_tol: float = 1e-9,
                    tail_eps: float = 1e-14) -> RelationSystem:
    """Fill the grade blocks of the relation coefficients of Q_{d,r}(x).

    Every denominator theta is checked against zero_tol (relative to the
    largest theta value at the same point) before any division happens, so
    a row can never silently contain an underflowed entry.
    """
    return _system(params, _theta_triple(params, zero_tol, tail_eps))


def relation_terms(sys: RelationSystem):
    """Per-term breakdown of every relation row, for serialization.

    Each entry is (i, j, [(n, a, b, coeff), ...]), rows in (i, j) order and
    terms in n order, with exact-zero terms left out.  Term n of R_ij is
    the block entry blocks[i + j, i, r(j - n)], so summing the terms of a
    row at each (a, b) reproduces RelationSystem.coeffs.
    """
    d, r = sys.d, sys.params.r
    i, j, n = np.ogrid[:d, :d, :d]
    a, b = (r * (j - n)) % d, (r * (i + n)) % d
    coeff = sys.blocks[(i + j) % d, i, a]
    keep = coeff != 0.0
    # every kept term in (i, j, n) order, then cut into one list per row
    terms = list(zip(*(np.broadcast_to(v, keep.shape)[keep].tolist()
                       for v in (n, a, b, coeff))))
    ends = np.cumsum(keep.sum(axis=2).ravel()).tolist()
    return [(row // d, row % d, terms[start:end])
            for row, (start, end) in enumerate(zip([0] + ends, ends))]


def singular_values(sys: RelationSystem) -> np.ndarray:
    """Singular values of the stacked nonzero relation rows, descending."""
    return sys._svd[2].copy()


def _graded_space(sys: RelationSystem, rank_tol: float):
    """Per-grade orthonormal bases of the relation space.

    Returns (vh, keep): the first keep[s].sum() rows of vh[s] are a basis
    of the grade-s part, in block coordinates a.  The rank cutoff and the
    gap test act on the global spectrum, as for one dense SVD of all rows:
    the dimension is the number of singular values above rank_tol times
    the largest one, and without a clear gap there (consecutive ratio
    < 10) AmbiguousRank is raised.
    """
    vh, svals, s = sys._svd
    if len(s) == 0:
        return vh, np.zeros(svals.shape, dtype=bool)
    keep = svals > rank_tol * s[0]
    rank = int(keep.sum())
    if 0 < rank < len(s) and s[rank] > 0.0 and s[rank - 1] / s[rank] < 10.0:
        raise AmbiguousRank(
            f"singular values straddle the cutoff without a gap: "
            f"s[{rank - 1}]={s[rank - 1]:.3e}, s[{rank}]={s[rank]:.3e}")
    return vh, keep


def relation_space(sys: RelationSystem, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of the relation rows.

    The dimension is the number of singular values above rank_tol times
    the largest one.  If the spectrum has no clear gap there (consecutive
    ratio < 10), the rank is not trustworthy and AmbiguousRank is raised.
    Columns come grade by grade (s = 0, 1, ...), each grade's in
    descending singular value order; they are not sorted globally.
    """
    d, r = sys.d, sys.params.r
    vh, keep = _graded_space(sys, rank_tol)
    grade, col = np.nonzero(keep)
    a = np.arange(d)
    basis = np.zeros((d * d, len(grade)), dtype=complex)
    basis[a * d + (r * grade[:, None] - a) % d,
          np.arange(len(grade))[:, None]] = vh[grade, col]
    return basis


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans.

    Computed from the residual of projecting either basis onto the other,
    which stays accurate near zero where the sqrt(1 - sigma_min^2) form
    loses half the working digits.
    """
    if b1.shape[1] == 0 and b2.shape[1] == 0:
        return 0.0
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return 1.0
    r12 = b1 - b2 @ (b2.conj().T @ b1)
    r21 = b2 - b1 @ (b1.conj().T @ b2)
    s1 = np.linalg.svd(r12, compute_uv=False)[0]
    s2 = np.linalg.svd(r21, compute_uv=False)[0]
    return float(min(1.0, max(s1, s2)))


def substitution_matrix(d: int, mult: int) -> np.ndarray:
    """Permutation of C^{d^2} induced by t_i -> t_{mult*i} on both factors."""
    if gcd(mult % d, d) != 1:
        raise ValueError(f"substitution multiplier {mult} is not a unit mod {d}")
    moved = (mult * np.arange(d)) % d
    perm = np.zeros((d * d, d * d))
    perm[(moved[:, None] * d + moved).ravel(), np.arange(d * d)] = 1.0
    return perm


def _grade_bases(sys: RelationSystem, rank_tol: float):
    """Relation-space basis of each grade s, as columns over coordinate a."""
    vh, keep = _graded_space(sys, rank_tol)
    return [v[:k].T for v, k in zip(vh, keep.sum(axis=1))]


def substitution_distance(d: int, r: int, r2: int, x: complex,
                          modulus: CurveModulus, zero_tol: float = 1e-9,
                          rank_tol: float = 1e-9) -> float:
    """Distance between the transported Q_{d,r}(x) space and Q_{d,r2}(x).

    Transports the relation space of Q_{d,r}(x) through e_a (x) e_b ->
    e_{r2*a} (x) e_{r2*b} and measures the subspace distance to the
    relation space of Q_{d,r2}(x).  No congruence between r and r2 is
    assumed; for r*r2 != 1 mod d the distance is an O(1) negative control.

    The substitution sends grade s of Q_{d,r} to grade r*s of Q_{d,r2} and
    block coordinate a to r2*a.  Distinct grades span orthogonal
    coordinate subspaces, so the distance of the whole spaces is the
    largest distance between matching grades; no d^2 x d^2 matrix is
    formed.  substitution_matrix is the same map in the dense layout.
    One theta triple serves both systems.
    """
    params = AlgebraParams(d, r, x, modulus)
    triple = _theta_triple(params, zero_tol)
    src = _grade_bases(_system(params, triple), rank_tol)
    # a self-inverse r (r2 = r mod d) compares the system with itself
    dst = src if (r2 - r) % d == 0 else _grade_bases(
        _system(AlgebraParams(d, r2, x, modulus), triple), rank_tol)
    rank, rank2 = (sum(b.shape[1] for b in bases) for bases in (src, dst))
    if rank != rank2:
        raise AmbiguousRank(
            f"relation-space ranks differ: {rank} vs {rank2}")
    back = (pow(r2, -1, d) * np.arange(d)) % d
    return max(subspace_distance(src[s][back], dst[(r * s) % d])
               for s in range(d))


def check_substitution_isomorphism(d: int, r: int, r_prime: int, x: complex,
                                   modulus: CurveModulus,
                                   zero_tol: float = 1e-9,
                                   rank_tol: float = 1e-9) -> float:
    """Subspace distance realizing the isomorphism Q_{d,r}(x) = Q_{d,r'}(x).

    Requires r*r' = 1 mod d; the returned distance should be below iso_tol
    (1e-8 by default elsewhere) when the isomorphism holds.  The caller
    judges; this function only refuses non-inverse pairs.
    """
    if (r * r_prime) % d != 1 % d:
        raise ValueError(
            f"r*r' = {r}*{r_prime} is not 1 mod {d}; "
            "the substitution is only an isomorphism for inverse pairs")
    return substitution_distance(d, r, r_prime, x, modulus, zero_tol, rank_tol)


def sample_generic_x(d: int, modulus: CurveModulus, rng,
                     zero_tol: float = 1e-9, max_rejects: int = 50) -> complex:
    """Draw x uniformly in the fundamental cell, away from denominator zeros.

    Rejects x by the denominator gate build_relations applies (some
    |theta_m| at x or -x below zero_tol relative to the largest there);
    the zeros form a measure zero set, so more than a handful of
    rejections means something is wrong: when all max_rejects + 1 draws
    fail, ConvergenceError is raised, naming the best ratio seen.
    """
    basis = ThetaBasis(d, modulus)
    best = 0.0
    for _ in range(max_rejects + 1):
        x = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * modulus.omega
        try:
            _gate(basis, x, zero_tol)
            return complex(x)
        except DenominatorNearZero as exc:
            best = max(best, exc.ratio)
    raise ConvergenceError(
        f"no generic x found in {max_rejects + 1} draws: the best "
        f"min/max |theta| ratio at x and -x was {best:.2e}, below "
        f"zero_tol={zero_tol:g}")
