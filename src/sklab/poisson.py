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

The Jacobi identity is not built in; jacobi_check verifies it pointwise,
which is the real evidence that the extracted tensor is Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sklyanin import AlgebraParams, build_relations, relation_space
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


def _extract_level(d: int, r: int, modulus: CurveModulus, h: float,
                   zero_tol: float, rank_tol: float) -> np.ndarray:
    """Bracket matrices -Sym(v)/h at x = h*u, as a (d, d, d, d) array.

    For every pair a < b, v is the relation-space element whose
    antisymmetric part is e_a ^ e_b; one least-squares solve takes all
    d(d-1)/2 targets as columns.  The result is antisymmetric in (a, b).
    """
    x = h * EXTRACTION_DIRECTION
    sys = build_relations(AlgebraParams(d, r, x, modulus), zero_tol)
    basis = relation_space(sys, rank_tol)
    k = basis.shape[1]
    as_mats = basis.reshape(d, d, k)
    wedge = 0.5 * (as_mats - as_mats.transpose(1, 0, 2)).reshape(d * d, k)
    cond = np.linalg.cond(wedge) if k else np.inf
    if k and cond >= 1e6:
        raise ExtractionError(
            f"projection of the relation space to the wedge square is "
            f"ill-conditioned (cond={cond:.2e}) at h={h:g}")
    a, b = np.triu_indices(d, 1)
    pair = np.arange(len(a))
    targets = np.zeros((d * d, len(a)), dtype=complex)
    targets[a * d + b, pair] = 0.5
    targets[b * d + a, pair] = -0.5
    coeff, *_ = np.linalg.lstsq(wedge, targets, rcond=None)
    residual = np.abs(wedge @ coeff - targets).max(axis=0)
    if residual.max(initial=0.0) > 1e-8:
        worst = residual.argmax()
        raise ExtractionError(
            f"no relation-space element has antisymmetric part "
            f"e_{a[worst]}^e_{b[worst]} (residual {residual[worst]:.2e}) "
            f"at h={h:g}")
    v = (basis @ coeff).T.reshape(-1, d, d)
    level = np.zeros((d, d, d, d), dtype=complex)
    level[a, b] = -0.5 * (v + v.transpose(0, 2, 1)) / h
    level[b, a] = -level[a, b]
    return level


def extract_bracket(d: int, r: int, modulus: CurveModulus,
                    h: float = DEFAULT_H, zero_tol: float = 1e-9,
                    rank_tol: float = 1e-9,
                    bracket_tol: float = 1e-6) -> PoissonTensor:
    """Extract the bracket of the x -> 0 degeneration of Q_{d,r}(x).

    Runs the level extraction at h, h/2 and h/4 and forms the two
    Richardson stages E1 = 2 pi(h/2) - pi(h), E2 = 2 pi(h/4) - pi(h/2).
    E2 is returned; the spread max|E2 - E1| is stored as richardson_error
    and must come in under bracket_tol, otherwise the extraction is
    rejected rather than silently inaccurate.
    """
    coarse, mid, fine = (_extract_level(d, r, modulus, step, zero_tol,
                                        rank_tol)
                         for step in (h, h / 2, h / 4))
    first = 2.0 * mid - coarse
    second = 2.0 * fine - mid
    spread = float(np.abs(second - first).max())
    if spread >= bracket_tol:
        raise ExtractionError(
            f"richardson stages disagree by {spread:.2e} "
            f">= bracket_tol={bracket_tol:g}; shrink h")
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
    coordinate uniform in the unit disc, and |J| is normalized per point
    by the largest cubic monomial (max_i |p_i|)^3.
    """
    d = tensor.d
    mats = _unpack(tensor.pi)
    a, b, c = np.ogrid[:d, :d, :d]
    triples = (a < b) & (b < c)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        radius = np.sqrt(rng.uniform(0.0, 1.0, d))
        angle = rng.uniform(0.0, 2.0 * np.pi, d)
        p = radius * np.exp(1j * angle)
        cube = np.abs(p).max() ** 3
        if cube == 0.0:
            continue
        values = np.einsum("c,abce,e->ab", p, mats, p)
        gradients = np.einsum("abce,e->abc", mats, p)
        # term[a, b, c] = gradients[b, c] . values[a]; J_abc sums its
        # cyclic shifts
        term = np.einsum("bcf,af->abc", gradients, values)
        total = 2.0 * (term + term.transpose(2, 0, 1)
                       + term.transpose(1, 2, 0))
        worst = max(worst,
                    float(np.abs(total[triples]).max(initial=0.0)) / cube)
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
