"""Symmetric invariant tensors and the induced operator on S^2 V.

A symmetric tensor t in S^2 g, fed through a representation V of g,
induces t_*: S^2 V -> S^2 V by t_*(u . v) = sum t[i][j] (A_i u) . (A_j v)
(the polarization of the square form; "." is the symmetric product).
The quadratic Poisson construction downstream needs invariant t with
t_* = 0, so this module computes t_star matrices, tests invariance, and
solves the joint linear system for the admissible space.

All built-in cases are exact: structure constants and actions are
rational, kernels come from sparse row reduction over Q, and the
headline dimensions (GL pairs, gsp4, sl2 before/after central
augmentation) are unambiguous integers, not numerical ranks.  Float
input is accepted through the same entry points with a 1e-10 residual
cutoff standing in for exactness.

Work follows the nonzeros: the solve keeps only the unknowns that the
weights of the basis elements with diagonal ad allow, and t_star,
check_invariance and LieRepData.validate multiply nonzero entries only.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isfinite

__all__ = [
    "LieRepData",
    "SymTensor",
    "augment_with_center",
    "check_invariance",
    "gl_pair_rep",
    "gl_pair_tensor",
    "gsp_rep",
    "load_rep_json",
    "load_tensor_json",
    "sl2_casimir_tensor",
    "sl2_rep",
    "solve_admissible",
    "sp_rep",
    "t_star",
]

FLOAT_TOL = 1e-10


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


@dataclass(frozen=True)
class LieRepData:
    """Structure constants c[i][j][k] plus the action matrices on V."""

    dim_g: int
    dim_V: int
    bracket: tuple  # c[i][j][k], [x_i, x_j] = sum_k c[i][j][k] x_k
    action: tuple   # dim_g matrices, dim_V x dim_V

    def is_exact(self) -> bool:
        return (all(_is_exact(c) for pl in self.bracket for row in pl for c in row)
                and all(_is_exact(a) for mat in self.action for row in mat for a in row))

    def validate(self) -> None:
        m, n = self.dim_g, self.dim_V
        c = self.bracket
        acts = self.action
        if len(c) != m or any(len(pl) != m or any(len(row) != m for row in pl)
                              for pl in c):
            raise ValueError("bracket array is not dim_g^3")
        if len(acts) != m or any(len(mat) != n or any(len(row) != n for row in mat)
                                 for mat in acts):
            raise ValueError("action is not dim_g matrices of size dim_V")
        cut = 0 if self.is_exact() else FLOAT_TOL
        for i in range(m):
            for j in range(i, m):
                if any(abs(x + y) > cut for x, y in zip(c[i][j], c[j][i])):
                    raise ValueError("bracket is not antisymmetric")
        nz = [[_nonzeros(row) for row in pl] for pl in c]
        # rotations of (i, j, k) sum the same terms: visit only the least,
        # which starts at its smallest index ((i, i, j), not (i, j, i))
        for i in range(m):
            for j in range(i, m):
                for k in range(i + (j > i), m):
                    # jacobi on (x_i, x_j, x_k), coefficient of each x_u
                    acc = defaultdict(int)
                    for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                        for s, val in nz[a][b]:
                            for u, x in nz[s][e]:
                                acc[u] += val * x
                    if any(abs(x) > cut for x in acc.values()):
                        raise ValueError("structure constants fail jacobi")
        rows = [[_nonzeros(row) for row in mat] for mat in acts]
        entries = [[(a, b, x) for a, row in enumerate(mat) for b, x in row]
                   for mat in rows]
        for i in range(m):
            for j in range(m):
                # [A_i, A_j] - sum_s c[i][j][s] A_s, entry by entry
                res = defaultdict(int)
                for a, k, x in entries[i]:
                    for b, y in rows[j][k]:
                        res[a, b] += x * y
                for a, k, x in entries[j]:
                    for b, y in rows[i][k]:
                        res[a, b] -= x * y
                for s, val in nz[i][j]:
                    for a, b, x in entries[s]:
                        res[a, b] -= val * x
                if any(abs(x) > cut for x in res.values()):
                    raise ValueError("action is not a homomorphism")


@dataclass(frozen=True)
class SymTensor:
    t: tuple  # symmetric dim_g x dim_g

    def __post_init__(self):
        rows = tuple([tuple(row) for row in self.t])
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("tensor matrix is not square")
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("tensor matrix is not symmetric")
        object.__setattr__(self, "t", rows)

    @property
    def dim(self) -> int:
        return len(self.t)


def _nonzeros(row):
    """(index, value) of the nonzero entries of a list row."""
    return [(u, x) for u, x in enumerate(row) if x != 0]


def _commutator(a, b):
    """[A, B] = AB - BA of square list matrices."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def sym_pairs(n: int):
    """Index pairs (i, j), i <= j, ordering the monomial basis of S^2."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _tensor_entries(rows):
    """Nonzero entries (i, j, t_ij) of a square matrix, row by row."""
    return [(i, j, x) for i, row in enumerate(rows) for j, x in _nonzeros(row)]


def _star_entries(rep: LieRepData, tensors):
    """Entries {(s, c): x} of t_* reached by each tensor's nonzero entries.

    Each tensor is the list of its nonzero entries (i, j, t_ij), over
    all i and j.  Column c is the monomial u_p . u_q (p <= q) and
    t_*(u_p . u_q) = sum t_ij (A_i u_p) . (A_j u_q), so only the nonzero
    columns of each action matrix, and the nonzero entries within them,
    are multiplied.
    """
    index = {pq: s for s, pq in enumerate(sym_pairs(rep.dim_V))}
    cols = [[(p, col) for p, col in enumerate(map(_nonzeros, zip(*mat))) if col]
            for mat in rep.action]
    out = []
    for entries in tensors:
        star = defaultdict(int)
        for i, j, val in entries:
            for p, xs in cols[i]:
                for q, ys in cols[j]:
                    if q < p:
                        continue
                    # coefficients of (A_i u_p) . (A_j u_q) by monomial
                    coef = defaultdict(int)
                    for a, x in xs:
                        for b, y in ys:
                            coef[index[(a, b) if a <= b else (b, a)]] += x * y
                    c = index[p, q]
                    for s, x in coef.items():
                        if x != 0:
                            star[s, c] += val * x
        out.append(star)
    return out


def t_star(rep: LieRepData, t: SymTensor):
    """Matrix of the induced operator on S^2 V, monomial basis, i <= j."""
    if t.dim != rep.dim_g:
        raise ValueError("tensor dimension does not match dim_g")
    size = len(sym_pairs(rep.dim_V))
    out = [[0] * size for _ in range(size)]
    for (s, c), x in _star_entries(rep, [_tensor_entries(t.t)])[0].items():
        out[s][c] = x
    return out


def _invariance_rows(bracket, pairs):
    """Rows {s: coefficient} of ad_z x 1 + 1 x ad_z over t_ab = t_ba,
    (a, b) = pairs[s], from the structure constants c = bracket.

    Row (k, u, v), u <= v, is the x_u . x_v coefficient of the residual,
    T[u][v] + T[v][u] with T[u][v] = sum_a c[k][a][u] t_av.
    """
    # the nonzero c[k][x][u] of each x, over every k
    acts = {x: [(k, u, val) for k, plane in enumerate(bracket)
                for u, val in enumerate(plane[x]) if val != 0]
            for x in {x for pair in pairs for x in pair}}
    rows = defaultdict(partial(defaultdict, int))
    for s, (a, b) in enumerate(pairs):
        for x, y in ((a, b), (b, a)) if a != b else ((a, b),):
            for k, u, val in acts[x]:
                key = (k, u, y) if u <= y else (k, y, u)
                rows[key][s] += val if u != y else 2 * val
    return rows


def check_invariance(rep: LieRepData, t: SymTensor):
    """Max norm of (ad_z x 1 + 1 x ad_z)(t) over the basis z of g: the
    rows of solve_admissible at the nonzero t_ab, a <= b."""
    if t.dim != rep.dim_g:
        raise ValueError("tensor dimension does not match dim_g")
    pairs = [(a, b) for a, b in sym_pairs(t.dim) if t.t[a][b] != 0]
    rows = _invariance_rows(rep.bracket, pairs)
    vals = [t.t[a][b] for a, b in pairs]
    worst = 0
    for key in sorted(rows):
        worst = max(worst, abs(sum(c * vals[s] for s, c in rows[key].items())))
    return worst


def _rref(rows, ncols, exact):
    """Sparse reduced row-echelon form of {col: value} rows.

    Zeros are never stored, and the rows are consumed.  Pivots are taken
    in column order: exact input takes the first row with a nonzero in the
    column (the reduced form is unique, so the choice does not show in the
    output), float input the largest entry above FLOAT_TOL.  Each pivot row
    is normalised and its column cleared from every other row; rows that
    reduce to nothing are dropped.  Returns the pivot columns and the
    reduced rows, one per pivot in the same order.
    """
    cut = 0 if exact else FLOAT_TOL
    rest = [row for row in rows if row]
    pivots, reduced = [], []
    for col in range(ncols):
        best = None
        for i, row in enumerate(rest):
            x = row.get(col)
            if x is not None and abs(x) > cut:
                if best is None or abs(x) > abs(rest[best][col]):
                    best = i
                    if exact:
                        break
        if best is None:
            continue
        piv_row = rest.pop(best)
        piv = piv_row[col]
        piv_row = {c: x / piv for c, x in piv_row.items()}
        for group in (reduced, rest):
            for row in group:
                f = row.get(col)
                if f is None:
                    continue
                for c, y in piv_row.items():
                    x = row.get(c, 0) - f * y
                    if x:
                        row[c] = x
                    else:
                        row.pop(c, None)
        rest = [row for row in rest if row]
        pivots.append(col)
        reduced.append(piv_row)
        if not rest:
            break
    return pivots, reduced


def _kernel_basis(rows, ncols, exact):
    """Basis of the nullspace of the stacked {col: value} row system.

    Each basis vector carries 1 at its own free coordinate and 0 at the
    other free coordinates, so coordinates of any kernel member can be
    read off at the free positions.
    """
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    work = [{c: Fraction(x) if exact else x for c, x in row.items() if x != 0}
            for row in rows]
    pivots, reduced = _rref(work, ncols, exact)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for p, row in zip(pivots, reduced):
            vec[p] = -row.get(f, zero)
        basis.append(vec)
    return basis


def _normalize_exact(vec):
    """Scale to primitive integers with positive leading entry."""
    denom = 1
    for x in vec:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def _tensor_from_sym_vec(vec, pairs, m, zero):
    """The symmetric t with t_ab = vec[s] for pairs[s] = (a, b), else zero."""
    t = [[zero] * m for _ in range(m)]
    for s, (a, b) in enumerate(pairs):
        t[a][b] = vec[s]
        t[b][a] = vec[s]
    return SymTensor(tuple([tuple(row) for row in t]))


def solve_admissible(rep: LieRepData):
    """Basis of the admissible space {t in (S^2 g)^g : t_* = 0}.

    A basis element z with diagonal ad, [z, x_a] = w_a x_a (the E_ii of
    gl, h of sl2), makes invariance under z read (w_a + w_b) t_ab = 0.
    Such z are read off the structure constants, and t_ab stays an
    unknown only where w_a + w_b = 0 for all of them: gl(3,3) keeps 27 of
    171.  The forced zeros are pivot columns of the full system's unique
    reduced form, so solving for the kept unknowns, in their S^2 g order,
    gives the same basis.  Staged: first the invariant subspace (kernel
    of every ad_z x 1 + 1 x ad_z, on the rows that meet a kept unknown),
    then the t_* = 0 condition restricted to it, which is tiny since
    invariant spaces are low dimensional.  Only the basis tensors are
    expanded to dim_g x dim_g.
    """
    exact = rep.is_exact()
    cut = 0 if exact else FLOAT_TOL
    m = rep.dim_g
    # [x_k, x_a] = sum_u c[k][a][u] x_u, diagonal in a for some k
    weights = [[plane[a][a] for a in range(m)] for plane in rep.bracket
               if all(abs(x) <= cut for a, row in enumerate(plane)
                      for u, x in enumerate(row) if x != 0 and u != a)]
    pairs = [(a, b) for a, b in sym_pairs(m)
             if all(abs(w[a] + w[b]) <= cut for w in weights)]
    rows = _invariance_rows(rep.bracket, pairs)
    invariant_vecs = _kernel_basis([rows[key] for key in sorted(rows)],
                                   len(pairs), exact)
    if not invariant_vecs:
        return []

    stars = _star_entries(rep, [
        [(i, j, x) for (a, b), x in zip(pairs, vec) if x != 0
         for i, j in ((a, b), (b, a))[:1 + (a != b)]]
        for vec in invariant_vecs])
    # solve sum_r s_r * stars[r] = 0 for the combination coefficients,
    # one row per entry of t_* that some candidate reaches
    stacked = [{r: star[key] for r, star in enumerate(stars) if key in star}
               for key in sorted(set().union(*stars))]
    combo = _kernel_basis(stacked, len(stars), exact)
    zero = 0 if exact else 0.0
    out = []
    for coeffs in combo:
        vec = [zero] * len(pairs)
        for weight, base in zip(coeffs, invariant_vecs):
            if weight != 0:
                vec = [x + weight * y for x, y in zip(vec, base)]
        if exact:
            vec = _normalize_exact(vec)
        out.append(_tensor_from_sym_vec(vec, pairs, m, zero))
    return out


def _direct_sum_bracket(c1, c2):
    """Structure constants of g1 + g2: each summand on its own indices.

    The brackets of g1 come first, padded with zeros on the indices of g2,
    and vice versa; brackets across the two summands vanish.
    """
    m1, m2 = len(c1), len(c2)
    zero = (0,) * (m1 + m2)
    top = [tuple([tuple(row) + (0,) * m2 for row in pl]) + (zero,) * m2
           for pl in c1]
    bottom = [(zero,) * m1 + tuple([(0,) * m1 + tuple(row) for row in pl])
              for pl in c2]
    return tuple(top + bottom)


def augment_with_center(rep: LieRepData) -> LieRepData:
    """Append one central element acting as the identity on V."""
    m, n = rep.dim_g, rep.dim_V
    ident = tuple(tuple(1 if a == b else 0 for b in range(n)) for a in range(n))
    return LieRepData(dim_g=m + 1, dim_V=n,
                      bracket=_direct_sum_bracket(rep.bracket, (((0,),),)),
                      action=tuple(rep.action) + (ident,))


# ---------------------------------------------------------------- built-ins


def _gl_basis_bracket(r):
    """Structure constants of gl_r in the E_ij basis, index i*r + j."""
    m = r * r
    c = [[[0] * m for _ in range(m)] for _ in range(m)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    p, q = i * r + j, k * r + l
                    # [E_ij, E_kl] = d_jk E_il - d_li E_kj
                    if j == k:
                        c[p][q][i * r + l] += 1
                    if l == i:
                        c[p][q][k * r + j] -= 1
    return c


def gl_pair_rep(r1: int, r2: int) -> LieRepData:
    """gl_{r1} + gl_{r2} acting on Mat(r1, r2) by (X, Y) . M = X M - M Y."""
    if r1 < 1 or r2 < 1:
        raise ValueError("ranks must be positive")
    n = r1 * r2
    action = []
    for i in range(r1):
        for j in range(r1):
            mat = [[0] * n for _ in range(n)]
            # E_ij M: row a=i picks row j of M
            for b in range(r2):
                mat[i * r2 + b][j * r2 + b] = 1
            action.append(tuple([tuple(row) for row in mat]))
    for k in range(r2):
        for l in range(r2):
            mat = [[0] * n for _ in range(n)]
            # -(M F_kl): column b=l picks column k of M
            for a in range(r1):
                mat[a * r2 + l][a * r2 + k] = -1
            action.append(tuple([tuple(row) for row in mat]))
    return LieRepData(
        dim_g=r1 * r1 + r2 * r2, dim_V=n,
        bracket=_direct_sum_bracket(_gl_basis_bracket(r1),
                                    _gl_basis_bracket(r2)),
        action=tuple(action))


def gl_pair_tensor(r1: int, r2: int) -> SymTensor:
    """The canonical tensor (t1, -t2), t1 = sum E_ij x E_ji."""
    m = r1 * r1 + r2 * r2
    t = [[0] * m for _ in range(m)]
    for i in range(r1):
        for j in range(r1):
            t[i * r1 + j][j * r1 + i] += 1
    off = r1 * r1
    for k in range(r2):
        for l in range(r2):
            t[off + k * r2 + l][off + l * r2 + k] -= 1
    return SymTensor(tuple([tuple(row) for row in t]))


def _commutator_rep_from_matrices(mats, n):
    """LieRepData for a list of matrices closed under commutator.

    One exact row reduction of the system whose columns are the flattened
    matrices followed by every commutator [A_i, A_j], i < j: the matrices
    must give a pivot each, and a pivot in a commutator column means that
    commutator is outside their span.  Otherwise the reduced commutator
    columns hold its coordinates in the basis.
    """
    m = len(mats)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    cols = list(mats) + [_commutator(mats[i], mats[j]) for i, j in pairs]
    work = [{col: Fraction(mat[a][b]) for col, mat in enumerate(cols)
             if mat[a][b] != 0}
            for a in range(n) for b in range(n)]
    pivots, reduced = _rref(work, len(cols), exact=True)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix list is not linearly independent")
    if len(pivots) > m:
        raise ValueError("vector is outside the span")
    zero = Fraction(0)
    c = [[[zero] * m for _ in range(m)] for _ in range(m)]
    for col, (i, j) in enumerate(pairs, start=m):
        for k in range(m):
            c[i][j][k] = reduced[k].get(col, zero)
            c[j][i][k] = -reduced[k].get(col, zero)
    return LieRepData(
        dim_g=m, dim_V=n,
        bracket=tuple(tuple(tuple(row) for row in pl) for pl in c),
        action=tuple(tuple(tuple(x for x in row) for row in mat) for mat in mats))


def symplectic_form(two_r: int):
    """Antidiagonal form with +1 in the top half, -1 in the bottom."""
    if two_r < 2 or two_r % 2:
        raise ValueError("need even size at least 2")
    n = two_r
    omega = [[0] * n for _ in range(n)]
    for i in range(n):
        omega[i][n - 1 - i] = 1 if i < n // 2 else -1
    return omega


def sp_rep(two_r: int) -> LieRepData:
    """sp_{2r} on its defining representation, built as an exact kernel.

    The algebra is {X : X^T Omega + Omega X = 0} for the antidiagonal
    symplectic form; the basis comes out of row reduction of that linear
    condition over the matrix entries.
    """
    n = two_r
    omega = symplectic_form(n)
    rows = []
    for a in range(n):
        for b in range(a, n):  # X^T Omega + Omega X is antisymmetric
            row = defaultdict(int)
            for k in range(n):
                # (X^T Omega)[a][b] = X[k][a] Omega[k][b]
                row[k * n + a] += omega[k][b]
                # (Omega X)[a][b] = Omega[a][k] X[k][b]
                row[k * n + b] += omega[a][k]
            rows.append(row)
    basis_vecs = _kernel_basis(rows, n * n, exact=True)
    mats = []
    for vec in basis_vecs:
        vec = _normalize_exact(vec)
        mats.append([[vec[a * n + b] for b in range(n)] for a in range(n)])
    expected = (n // 2) * (n + 1)
    if len(mats) != expected:
        raise ArithmeticError(f"sp_{n} basis has size {len(mats)}, expected {expected}")
    return _commutator_rep_from_matrices(mats, n)


def gsp_rep(two_r: int) -> LieRepData:
    """sp_{2r} plus the central identity (the similitude extension)."""
    return augment_with_center(sp_rep(two_r))


def sl2_rep() -> LieRepData:
    """sl2 on C^2, basis (h, e, f)."""
    h = [[1, 0], [0, -1]]
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    return _commutator_rep_from_matrices([h, e, f], 2)


def sl2_casimir_tensor() -> SymTensor:
    """Killing-dual Casimir in the (h, e, f) basis: h x h / 8 + (exf + fxe)/4."""
    q = Fraction(1, 8)
    half = Fraction(1, 4)
    z = Fraction(0)
    return SymTensor(((q, z, z), (z, z, half), (z, half, z)))


# ------------------------------------------------------------------- file IO


def _parse_scalar(value):
    if isinstance(value, str):
        if "/" in value:
            num, den = value.split("/")
            if int(den) == 0:
                raise ValueError(f"scalar {value!r} has a zero denominator")
            return Fraction(int(num), int(den))
        return Fraction(int(value))
    if isinstance(value, bool):
        raise ValueError("boolean is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"scalar {value!r} is not finite")
        return value
    raise ValueError(f"cannot parse scalar {value!r}")


def load_rep_json(path: str) -> LieRepData:
    with open(path) as fh:
        data = json.load(fh)
    bracket = tuple(tuple(tuple(_parse_scalar(x) for x in row) for row in pl)
                    for pl in data["bracket"])
    action = tuple(tuple(tuple(_parse_scalar(x) for x in row) for row in mat)
                   for mat in data["action"])
    for key in ("dim_g", "dim_V"):
        if type(data[key]) is not int:
            raise ValueError(f"{key} = {data[key]!r} is not an integer")
    rep = LieRepData(dim_g=data["dim_g"], dim_V=data["dim_V"],
                     bracket=bracket, action=action)
    rep.validate()
    return rep


def load_tensor_json(path: str) -> SymTensor:
    with open(path) as fh:
        data = json.load(fh)
    rows = data["t"] if isinstance(data, dict) else data
    return SymTensor(tuple(tuple(_parse_scalar(x) for x in row) for row in rows))
