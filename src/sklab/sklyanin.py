"""Quadratic relation spaces of the elliptic algebras Q_{d,r}(x).

The algebra Q_{d,r}(x) has d generators t_0, ..., t_{d-1} and, for each
pair (i, j) of indices mod d, the quadratic relation

    sum_n  theta_{j-i+(r-1)n}(0)
           ----------------------------------  t_{r(j-n)} t_{r(i+n)}  =  0,
           theta_{j-i-n}(-x) * theta_{rn}(x)

with n running over Z/dZ.  Every term of R_ij is a monomial t_a t_b with
a + b = r(i + j) mod d, so the d^2 relations split by the grade
s = i + j mod d into d blocks of d rows, each touching only the d monomials
t_a t_{rs-a}.  The Heisenberg shift t_c -> t_{c+r} rolls block s onto block
s + 2, so the grades form gcd(2, d) orbits.  This module builds the
relations, measures the numerical rank of their span inside C^{d^2} (which
equals d(d-1)/2 for generic x) from one SVD of one block per orbit, and
checks orbit by orbit that the index substitution t_i -> t_{r'i} with
r*r' = 1 mod d carries the relation space of Q_{d,r}(x) onto that of
Q_{d,r'}(x).

The relations are ratios of theta values at 0, x and -x, none of which
depends on r.  The module keeps the last theta triple, keyed on
(d, x, modulus), and the last system build_relations made, keyed on its
parameters, with the SVD the system caches: a build followed by the
isomorphism check of the same algebra, or extractions at every unit r of
one d, sum the series and decompose the blocks once.  Each memo holds one
entry, since that is all such a sequence reuses, and both hand out
read-only arrays, so no caller can change what the next one reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import theta
from .theta import (ConvergenceError, CurveModulus, DenominatorNearZero,
                    ThetaBasis, _integer, reduce_to_cell, torsion_gate)

__all__ = [
    "AlgebraParams",
    "AmbiguousRank",
    "DenominatorNearZero",
    "RelationSystem",
    "build_relations",
    "check_substitution_isomorphism",
    "relation_rank",
    "relation_space",
    "relation_terms",
    "sample_generic_x",
    "singular_values",
    "subspace_distance",
    "substitution_distance",
    "substitution_matrix",
]

# Rank cutoff, relative to the largest singular value.
RANK_TOL = 1e-9

# Draws sample_generic_x makes before it gives up.
GENERIC_X_DRAWS = 51


class AmbiguousRank(ArithmeticError):
    """No clear spectral gap at the rank cutoff."""


@dataclass(frozen=True)
class AlgebraParams:
    """Parameters (d, r, x) of Q_{d,r}(x) on the curve C/(Z + omega Z).

    r is stored reduced mod d and must be a unit mod d.  x may lie in any
    cell; it must be finite.  x near a d-torsion point, x = 0 included
    (the symmetric-algebra degeneration, reached only as a limit by the
    poisson module), is refused when the relations are built.
    """

    d: int
    r: int
    x: complex
    modulus: CurveModulus

    def __post_init__(self):
        for name in ("d", "r"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        object.__setattr__(self, "r", self.r % self.d)
        if gcd(self.r, self.d) != 1:
            raise ValueError(f"r={self.r} is not a unit mod d={self.d}")
        object.__setattr__(self, "x", complex(self.x))
        if not np.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")


@dataclass(frozen=True)
class RelationSystem:
    """Coefficient rows of the d^2 relations, stored as their d x d table.

    table[k, n] is the coefficient of term n, on t_{r(j-n)} t_{r(i+n)}, of
    every relation R_ij with j - i = k mod d.  Each row is scaled to unit
    max entry; rows that vanish identically (their theta numerators are
    exact zeros) are zero rows.  The table is the only stored layout:
    relation_terms yields the terms of one row at a time, and the grade
    blocks of the SVD are gathered from the table when needed.
    """

    params: AlgebraParams
    table: np.ndarray

    @property
    def d(self) -> int:
        return self.params.d

    def _blocks(self, grades) -> np.ndarray:
        """blocks[s, i, a], the coefficient of t_a t_{rs-a} in R_{i,s-i}, is
        term s - i - a/r; block s + 2 is block s rolled by 1 in i and by r
        in a.  Gathered from the table for the given grades on every call.
        """
        d, r = self.d, self.params.r
        s, (i, a) = np.asarray(grades)[:, None, None], np.ogrid[:d, :d]
        return self.table[(s - 2 * i) % d, (s - i - pow(r, -1, d) * a) % d]

    @functools.cached_property
    def _svd(self):
        """One batched SVD of the orbit representatives s0 < gcd(2, d).

        Every block of an orbit permutes the rows and columns of the others.
        A block row permutes a table row (exactly zero, or of maximum 1); a
        block with m nonzero rows has m singular values, its d - m trailing
        ones are set to exact zeros and left out of the sorted spectrum.
        Returns (vh of each representative, block_svals of every grade,
        spectrum), all read-only and computed once per system.
        """
        d, d0 = self.d, gcd(2, self.d)
        reps = self._blocks(range(d0))
        _, svals, vh = np.linalg.svd(reps)
        kept = reps.any(axis=2).sum(axis=1)
        svals[np.arange(d) >= kept[:, None]] = 0.0
        svals = svals[np.arange(d) % d0]
        spectrum = np.sort(svals, axis=None)[::-1][:kept.sum() * d // d0]
        for a in (vh, svals, spectrum):
            a.flags.writeable = False
        return vh, svals, spectrum


@functools.lru_cache(maxsize=1)
def _theta_triple(d: int, x: complex, modulus: CurveModulus):
    """Theta values at 0, x_red and -x_red, x_red = x in the cell.

    torsion_gate refuses x first, so no denominator among them vanishes.

    Shifting x by p + q*omega multiplies every denominator by one common
    factor, which the row scaling removes up to its phase; the theta(0)
    values carry that phase, exp(i (2 pi d Re(omega) q^2 + 4 pi d q
    Re(x_red))), so the scaled coefficients are those at x.  0, x_red and
    -x_red all lie in the centred cell, so one series sum gives the three,
    with no cell multiplier; theta_0(0) is pinned to its exact zero.

    The triple does not depend on r, so it is keyed on (d, x, modulus) and
    the last one is kept: every r at one (d, x) reads it.  The arrays are
    read-only.
    """
    omega = modulus.omega
    torsion_gate(d, x, omega)
    basis = ThetaBasis(d, modulus)
    x_red, _, q = reduce_to_cell(x, omega)
    idx = np.arange(d)
    scale, value = theta._scaled_series(basis, idx, [0.0, x_red, -x_red])
    rows = theta._unscale(basis, idx, scale, value).T.copy()
    rows[0, 0] = 0.0
    if q:
        rows[0] *= np.exp(2j * np.pi * d * q * (omega.real * q
                                                + 2.0 * x_red.real))
    rows.flags.writeable = False
    return tuple(rows)


def _system(params: AlgebraParams, triple) -> RelationSystem:
    """Coefficient table of Q_{d,r}(x) from the theta triple of (d, x).

    The d terms of a relation row land on distinct monomials, so its
    maximum is that of its table row.  Terms whose numerator theta is an
    exact zero stay exact zeros; at small x their denominators vanish to
    second order, and dividing rounding-level numerator noise by them would
    pollute the row with entries that blow up like 1/x^2.  A coefficient
    that is not a finite double raises ArithmeticError naming its (k, n),
    its three theta values and their moduli.  The table is read-only.
    """
    d, r = params.d, params.r
    at_zero, at_x, at_minus_x = triple
    k, n = np.ogrid[:d, :d]
    num = at_zero[(k + (r - 1) * n) % d]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = at_minus_x[(k - n) % d] * at_x[(r * n) % d]
        table = np.divide(num, den, out=np.zeros((d, d), dtype=complex),
                          where=num != 0.0)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        k, n = bad[0].tolist()
        a, b, c = (k + (r - 1) * n) % d, (k - n) % d, (r * n) % d
        raise ArithmeticError(
            f"non-finite relation coefficient at (k, n) = ({k}, {n}), "
            f"d={d}, r={r}: theta_{a}(0) / (theta_{b}(-x) theta_{c}(x)), "
            f"of moduli {abs(at_zero[a]):.3e} / ({abs(at_minus_x[b]):.3e} "
            f"* {abs(at_x[c]):.3e}), is not a finite double (normal "
            f"doubles span {np.finfo(float).tiny:.3e} to "
            f"{np.finfo(float).max:.3e})")
    top = np.abs(table).max(axis=1, keepdims=True)
    table /= np.where(top > 0.0, top, 1.0)
    table.flags.writeable = False
    return RelationSystem(params, table)


@functools.lru_cache(maxsize=1)
def build_relations(params: AlgebraParams) -> RelationSystem:
    """Build the relation coefficient table of Q_{d,r}(x).

    x is refused (DenominatorNearZero) near a d-torsion point, the only
    place a denominator theta vanishes, before any division happens.

    The last system built is kept, keyed on params (equal params give the
    same object), so a caller that builds Q_{d,r}(x) and then checks its
    isomorphism reads one theta triple, one table and one SVD.  One entry
    serves exactly that build-then-check; a larger memo would only serve
    repeated passes over the same inputs.  A refusal is not kept, so it is
    raised again on every call.  The table is read-only.
    """
    return _system(params, _theta_triple(params.d, params.x, params.modulus))


def relation_terms(sys: RelationSystem):
    """Per-term breakdown of the relation rows, yielded one row at a time.

    Each row is (i, j, [(n, a, b, coeff), ...]), rows in (i, j) order and
    terms in n order, with exact-zero terms left out.  Term n of R_ij is
    the table entry table[j - i, n], on t_a t_b with a = r(j - n) and
    b = r(i + n) mod d.
    """
    d, r = sys.d, sys.params.r
    for i in range(d):
        for j in range(d):
            row = sys.table[(j - i) % d]
            n = np.flatnonzero(row)
            yield i, j, list(zip(n.tolist(), (r * (j - n) % d).tolist(),
                                 (r * (i + n) % d).tolist(), row[n].tolist()))


def singular_values(sys: RelationSystem) -> np.ndarray:
    """Singular values of the stacked nonzero relation rows, descending."""
    return sys._svd[2].copy()


def relation_rank(sys: RelationSystem):
    """Rank of the relation space and the gap s[rank-1]/s[rank] above it.

    The one rank decision, read off the sorted spectrum alone: the rank
    counts the singular values above RANK_TOL * s[0]; a gap below 10
    raises AmbiguousRank.  The gap is None at rank 0 or full rank.
    """
    s = sys._svd[2]
    cutoff = RANK_TOL * s[0] if len(s) else np.inf
    rank = int((s > cutoff).sum())
    if not 0 < rank < len(s):
        return rank, None
    gap = float(s[rank - 1] / s[rank]) if s[rank] > 0.0 else np.inf
    if gap < 10.0:
        raise AmbiguousRank(
            f"no spectral gap at the rank cutoff {cutoff:.3e} (RANK_TOL="
            f"{RANK_TOL:g} times s[0]={s[0]:.3e}): s[{rank - 1}]/s[{rank}] = "
            f"{s[rank - 1]:.3e}/{s[rank]:.3e} = {gap:.3g}, "
            f"below the required 10")
    return rank, gap


def relation_space(sys: RelationSystem) -> np.ndarray:
    """Dense orthonormal basis (as columns) of the span of the relation rows.

    A d^2 x rank array, built only on request: the rank alone is
    relation_rank's, which also raises AmbiguousRank for both.  Columns
    come grade by grade (s = 0, 1, ...), each grade's in descending
    singular value order; they are not sorted globally.
    """
    d, r = sys.d, sys.params.r
    bases, rank = _grade_bases(sys, np.arange(d))
    rows = [b.T for b in bases]
    grade = np.repeat(np.arange(d), [len(v) for v in rows])[:, None]
    a = np.arange(d)
    basis = np.zeros((d * d, rank), dtype=complex)
    basis[a * d + (r * grade - a) % d, np.arange(rank)[:, None]] = \
        np.concatenate(rows)
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


def _grade_bases(sys: RelationSystem, grades):
    """Per-grade bases (columns over a) of an array of grades, and the rank.

    Grade s = s0 + 2m rolls the vh of its orbit representative s0 by m*r
    columns and keeps the rows whose singular values are among the top
    rank of relation_rank, which also makes the gap test.
    """
    d = sys.d
    rep_vh, svals, s = sys._svd
    rank = relation_rank(sys)[0]
    step = (grades + d * (grades % 2)) // 2  # grade = s0 + 2 step mod d
    vh = rep_vh[(grades % len(rep_vh))[:, None, None], np.arange(d)[:, None],
                (np.arange(d) - sys.params.r * step[:, None, None]) % d]
    kept = (svals[grades] >= (s[rank - 1] if rank else np.inf)).sum(axis=1)
    return [v[:k].T for v, k in zip(vh, kept)], rank


def substitution_distance(d: int, r: int, r2: int, x: complex,
                          modulus: CurveModulus) -> float:
    """Distance between the transported Q_{d,r}(x) space and Q_{d,r2}(x).

    Transports the relation space of Q_{d,r}(x) through e_a (x) e_b ->
    e_{r2*a} (x) e_{r2*b} and measures the subspace distance to the
    relation space of Q_{d,r2}(x).  No congruence between r and r2 is
    assumed; for r*r2 != 1 mod d the distance is an O(1) negative control.

    The substitution sends grade s of Q_{d,r} to grade r*s of Q_{d,r2} and
    block coordinate a to r2*a.  Distinct grades span orthogonal
    coordinate subspaces, so the distance of the whole spaces is the
    largest distance between matching grades; no d^2 x d^2 matrix is
    formed.  The shift s -> s + 2 on one side and r steps of it on the
    other both roll the coordinates by r*r2, so one grade per orbit is
    compared.  substitution_matrix is the same map in the dense layout.

    The Q_{d,r}(x) side is build_relations', so after a caller's build it
    is the kept system, with its SVD; the Q_{d,r2}(x) side is built from
    the kept theta triple and not kept, so the caller's system stays.
    """
    params = AlgebraParams(d, r, x, modulus)
    src = build_relations(params)
    # a self-inverse r (r2 = r mod d) compares the system with itself
    dst = src if (r2 - r) % d == 0 else _system(
        AlgebraParams(d, r2, x, modulus),
        _theta_triple(d, params.x, modulus))
    reps = np.arange(gcd(2, d))
    bases, rank = _grade_bases(src, reps)
    bases2, rank2 = _grade_bases(dst, r * reps % d)
    if rank != rank2:
        raise AmbiguousRank(f"relation-space ranks differ: {rank} for "
                            f"r={r}, {rank2} for r2={r2}")
    back = (pow(r2, -1, d) * np.arange(d)) % d
    return max(subspace_distance(b[back], b2) for b, b2 in zip(bases, bases2))


def check_substitution_isomorphism(d: int, r: int, r_prime: int, x: complex,
                                   modulus: CurveModulus) -> float:
    """Subspace distance realizing the isomorphism Q_{d,r}(x) = Q_{d,r'}(x).

    Requires r*r' = 1 mod d; the returned distance should be below
    cli.ISO_TOL when the isomorphism holds.  The caller judges; this
    function only refuses non-inverse pairs.
    """
    if (r * r_prime) % d != 1 % d:
        raise ValueError(
            f"r*r' = {r}*{r_prime} is not 1 mod {d}; "
            "the substitution is only an isomorphism for inverse pairs")
    return substitution_distance(d, r, r_prime, x, modulus)


def sample_generic_x(d: int, modulus: CurveModulus, rng) -> complex:
    """Draw x uniformly in the fundamental cell, away from the d-torsion points.

    Refuses x by torsion_gate, the test build_relations applies; no theta
    value is computed.  The refused discs are a tiny share of the cell, so
    when all GENERIC_X_DRAWS draws are refused something is wrong:
    ConvergenceError is raised, naming the largest distance seen.
    """
    best = 0.0
    for _ in range(GENERIC_X_DRAWS):
        x = rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0) * modulus.omega
        try:
            torsion_gate(d, x, modulus.omega)
            return complex(x)
        except DenominatorNearZero as exc:
            best = max(best, exc.distance)
    raise ConvergenceError(
        f"no generic x found in {GENERIC_X_DRAWS} draws: the largest "
        f"distance d*|x - p| to a {d}-torsion point p was {best:.2e}, "
        f"within the torsion bound")
