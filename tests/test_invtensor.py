import json
import random
import re
from collections import defaultdict
from fractions import Fraction

import pytest

from sklab import invtensor
from sklab.invtensor import (LieRepData, SymTensor, augment_with_center,
                             check_invariance, gl_pair_rep, gl_pair_tensor,
                             gsp_rep, load_rep_json, load_tensor_json,
                             sl2_casimir_tensor, sl2_rep, solve_admissible,
                             sp_rep, t_star)


def max_abs(matrix):
    return max((abs(x) for row in matrix for x in row), default=0)


# ------------------------------------------------- dense elimination oracle


def dense_rref(rows, ncols, exact):
    """Reference eliminator: dense reduced row-echelon form of list rows,
    in place, with the sparse one's pivot rules; returns the pivots."""
    cut = 0 if exact else invtensor.FLOAT_TOL
    pivots = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(rows)):
            if abs(rows[i][col]) > cut:
                if best is None or abs(rows[i][col]) > abs(rows[best][col]):
                    best = i
                    if exact:
                        break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def dense_kernel(rows, ncols, exact):
    if exact:
        work = [list(map(Fraction, row)) for row in rows if any(row)]
    else:
        work = [list(row) for row in rows if any(x != 0 for x in row)]
    pivots = dense_rref(work, ncols, exact)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0) if exact else 0.0] * ncols
        vec[f] = Fraction(1) if exact else 1.0
        for rix, p in enumerate(pivots):
            vec[p] = -work[rix][f]
        basis.append(vec)
    return basis


def dense_t_star(rep, t):
    """Reference t_*: every column of each action matrix, densely, with
    the coefficients of each symmetric product summed before use."""
    n = rep.dim_V
    pairs = invtensor.sym_pairs(n)
    index = {pq: s for s, pq in enumerate(pairs)}
    nonzero = [(i, j, t.t[i][j])
               for i in range(rep.dim_g) for j in range(rep.dim_g)
               if t.t[i][j] != 0]
    cols = []
    for (p, q) in pairs:
        acc = [0] * len(pairs)
        for i, j, val in nonzero:
            x = [row[p] for row in rep.action[i]]
            y = [row[q] for row in rep.action[j]]
            # x . y in the monomial basis
            coef = [0] * len(pairs)
            for a in range(n):
                if x[a] == 0 and y[a] == 0:
                    continue
                for b in range(a, n):
                    term = x[a] * y[a] if a == b else x[a] * y[b] + x[b] * y[a]
                    if term != 0:
                        coef[index[(a, b)]] += term
            for s, x_s in enumerate(coef):
                if x_s != 0:
                    acc[s] += val * x_s
        cols.append(acc)
    return [list(row) for row in zip(*cols)]


def dense_tensor(vec, pairs, m):
    t = [[0] * m for _ in range(m)]
    for s, (a, b) in enumerate(pairs):
        t[a][b] = t[b][a] = vec[s]
    return SymTensor(t)


def admissible_from_invariant(rep, invariant, pairs, kernel):
    """Second stage on candidates given as vectors over all of S^2 g:
    the combinations with t_* = 0, by the reference t_* and `kernel`."""
    exact = rep.is_exact()
    m = rep.dim_g
    if not invariant:
        return []
    stars = [[x for row in dense_t_star(rep, dense_tensor(vec, pairs, m))
              for x in row] for vec in invariant]
    combo = kernel([list(col) for col in zip(*stars)], len(stars), exact)
    out = []
    for coeffs in combo:
        vec = [0 if exact else 0.0] * len(pairs)
        for weight, base in zip(coeffs, invariant):
            if weight != 0:
                vec = [x + weight * y for x, y in zip(vec, base)]
        if exact:
            vec = invtensor._normalize_exact(vec)
        out.append(dense_tensor(vec, pairs, m))
    return out


def dense_solve_admissible(rep):
    """solve_admissible on every unknown of S^2 g, with dense list rows,
    the dense eliminator and the reference t_*."""
    exact = rep.is_exact()
    m, c = rep.dim_g, rep.bracket
    gpairs = invtensor.sym_pairs(m)
    gindex = {ab: s for s, ab in enumerate(gpairs)}
    rows = []
    for k in range(m):
        for u in range(m):
            for v in range(u, m):
                row = [0 if exact else 0.0] * len(gpairs)
                for a in range(m):
                    row[gindex[(min(a, v), max(a, v))]] += c[k][a][u]
                    row[gindex[(min(u, a), max(u, a))]] += c[k][a][v]
                rows.append(row)
    invariant = dense_kernel(rows, len(gpairs), exact)
    return admissible_from_invariant(rep, invariant, gpairs, dense_kernel)


def full_solve_admissible(rep):
    """solve_admissible on every unknown of S^2 g with the sparse
    eliminator: fast enough for the reps the dense oracle is too slow for."""
    exact = rep.is_exact()
    m, c = rep.dim_g, rep.bracket
    gpairs = invtensor.sym_pairs(m)
    gindex = {ab: s for s, ab in enumerate(gpairs)}
    rows = []
    for k in range(m):
        ad = [[(a, c[k][a][u]) for a in range(m) if c[k][a][u] != 0]
              for u in range(m)]
        for u in range(m):
            for v in range(u, m):
                row = defaultdict(int)
                for a, val in ad[u]:
                    row[gindex[(min(a, v), max(a, v))]] += val
                for a, val in ad[v]:
                    row[gindex[(min(u, a), max(u, a))]] += val
                rows.append(row)
    invariant = invtensor._kernel_basis(rows, len(gpairs), exact)
    return admissible_from_invariant(
        rep, invariant, gpairs,
        lambda rows, ncols, exact: invtensor._kernel_basis(
            as_dicts(rows), ncols, exact))


def dense_check_invariance(rep, t):
    """Reference invariance check: the scan over all m^4 (k, u, v, a)."""
    m, c = rep.dim_g, rep.bracket
    worst = 0
    for k in range(m):
        for u in range(m):
            for v in range(m):
                acc = 0
                for a in range(m):
                    if c[k][a][u] != 0:
                        acc += c[k][a][u] * t.t[a][v]
                    if c[k][a][v] != 0:
                        acc += c[k][a][v] * t.t[u][a]
                worst = max(worst, abs(acc))
    return worst


def as_dicts(rows):
    return [{c: x for c, x in enumerate(row) if x != 0} for row in rows]


def float_copy(rep):
    return LieRepData(
        dim_g=rep.dim_g, dim_V=rep.dim_V,
        bracket=tuple(tuple(tuple(float(x) for x in row) for row in plane)
                      for plane in rep.bracket),
        action=tuple(tuple(tuple(float(x) for x in row) for row in mat)
                     for mat in rep.action))


def test_sym_tensor_must_be_symmetric():
    with pytest.raises(ValueError):
        SymTensor(((0, 1), (2, 0)))


def test_rep_validation_catches_wrong_brackets():
    rep = sl2_rep()
    zero_bracket = tuple(tuple(tuple(0 for _ in row) for row in plane)
                         for plane in rep.bracket)
    bad = LieRepData(dim_g=rep.dim_g, dim_V=rep.dim_V,
                     bracket=zero_bracket, action=rep.action)
    with pytest.raises(ValueError):
        bad.validate()


def bracket_from(m, table):
    """dim-m structure constants from {(i, j): {k: c}}, antisymmetrised."""
    c = [[[0] * m for _ in range(m)] for _ in range(m)]
    for (i, j), out in table.items():
        for k, val in out.items():
            c[i][j][k], c[j][i][k] = val, -val
    return tuple(tuple(tuple(row) for row in pl) for pl in c)


def zero_action(m, n):
    return tuple(tuple((0,) * n for _ in range(n)) for _ in range(m))


def test_rep_validation_refuses_non_antisymmetric_bracket():
    bracket = (((1,),),)  # [x0, x0] = x0
    bad = LieRepData(dim_g=1, dim_V=1, bracket=bracket,
                     action=zero_action(1, 1))
    with pytest.raises(ValueError, match="not antisymmetric"):
        bad.validate()


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                                   (0, 2, 1), (2, 1, 0), (1, 0, 2)])
def test_rep_validation_refuses_jacobi_failure(order):
    # [x0, x1] = x1, [x0, x2] = x2, [x1, x2] = x0: antisymmetric, but the
    # Jacobi sum on (x0, x1, x2) is 2 x0; every relabelling must refuse,
    # in exact and in float arithmetic
    a, b, e = order
    bracket = bracket_from(3, {(a, b): {b: 1}, (a, e): {e: 1},
                               (b, e): {a: 1}})
    bad = LieRepData(dim_g=3, dim_V=1, bracket=bracket,
                     action=zero_action(3, 1))
    for rep in (bad, float_copy(bad)):
        with pytest.raises(ValueError, match="fail jacobi"):
            rep.validate()


def test_rep_validation_refuses_jacobi_failure_on_a_repeated_index():
    # J(x0, x0, x1) = [[x0, x1], x0] + [[x1, x0], x0], zero when the bracket
    # is antisymmetric; within FLOAT_TOL of antisymmetric it is 5e-9 here,
    # and only the classes (0, 0, 1) and (0, 1, 1) can show it
    bracket = (((0.0, 0.0), (0.0, 100.0 + 5e-11)),
               ((0.0, -100.0), (0.0, 0.0)))
    bad = LieRepData(dim_g=2, dim_V=1, bracket=bracket,
                     action=zero_action(2, 1))
    with pytest.raises(ValueError, match="fail jacobi"):
        bad.validate()


def test_augment_with_center_is_a_direct_sum():
    rep = sl2_rep()
    out = augment_with_center(rep)
    out.validate()
    m = rep.dim_g
    for i in range(m + 1):
        for j in range(m + 1):
            want = (rep.bracket[i][j] + (0,) if i < m and j < m
                    else (0,) * (m + 1))
            assert out.bracket[i][j] == want


def test_commutator_rep_refuses_open_or_dependent_lists():
    e, f = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    # [e, f] = h is not in span(e, f)
    with pytest.raises(ValueError, match="outside the span"):
        invtensor._commutator_rep_from_matrices([e, f], 2)
    with pytest.raises(ValueError, match="not linearly independent"):
        invtensor._commutator_rep_from_matrices([e, f, e], 2)


def test_sl2_casimir_is_admissible():
    rep = sl2_rep()
    t = sl2_casimir_tensor()
    assert check_invariance(rep, t) == 0
    star = t_star(rep, t)
    # t_* is a multiple of the identity: lambda = 1/8 on C^2
    assert star[0][0] == Fraction(1, 8)
    assert star[1][1] == Fraction(1, 8)
    assert star[0][1] == 0 and star[1][0] == 0


def test_casimir_perturbation_breaks_invariance():
    rep = sl2_rep()
    rows = [list(row) for row in sl2_casimir_tensor().t]
    rows[0][0] += Fraction(1, 3)
    assert check_invariance(rep, SymTensor(tuple(map(tuple, rows)))) != 0


@pytest.mark.parametrize("r1,r2", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_gl_pair_tensor_kills_t_star(r1, r2):
    rep = gl_pair_rep(r1, r2)
    t = gl_pair_tensor(r1, r2)
    assert check_invariance(rep, t) == 0
    assert max_abs(t_star(rep, t)) == 0


def test_gl_pair_admissible_dimension():
    basis = solve_admissible(gl_pair_rep(2, 1))
    assert len(basis) == 3


def test_gl_admissible_basis_members_are_admissible():
    rep = gl_pair_rep(2, 1)
    for t in solve_admissible(rep):
        assert check_invariance(rep, t) == 0
        assert max_abs(t_star(rep, t)) == 0


def test_sl2_admissible_trivial_until_center_added():
    rep = sl2_rep()
    assert solve_admissible(rep) == []
    augmented = augment_with_center(rep)
    assert len(solve_admissible(augmented)) >= 1


def test_sp4_dimension():
    rep = sp_rep(4)
    assert rep.dim_g == 10
    assert rep.dim_V == 4


def test_gsp4_admissible_is_a_line():
    basis = solve_admissible(gsp_rep(4))
    assert len(basis) == 1
    rep = gsp_rep(4)
    t = basis[0]
    assert check_invariance(rep, t) == 0
    assert max_abs(t_star(rep, t)) == 0


def test_solve_output_is_primitive_integer():
    for t in solve_admissible(gsp_rep(4)):
        entries = [x for row in t.t for x in row]
        assert all(isinstance(x, int) or x.denominator == 1 for x in entries)


def test_float_representation_path():
    exact = sl2_rep()
    action = tuple(tuple(tuple(float(x) for x in row) for row in mat)
                   for mat in exact.action)
    bracket = tuple(tuple(tuple(float(x) for x in row) for row in plane)
                    for plane in exact.bracket)
    rep = LieRepData(dim_g=exact.dim_g, dim_V=exact.dim_V,
                     bracket=bracket, action=action)
    rep.validate()
    assert not rep.is_exact()
    assert solve_admissible(rep) == []
    assert len(solve_admissible(augment_with_center(rep))) >= 1


def test_json_loaders_roundtrip(tmp_path):
    rep = sl2_rep()
    rep_doc = {
        "dim_g": rep.dim_g,
        "dim_V": rep.dim_V,
        "bracket": [[[str(x) for x in row] for row in plane]
                    for plane in rep.bracket],
        "action": [[[str(x) for x in row] for row in mat]
                   for mat in rep.action],
    }
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_doc))
    loaded = load_rep_json(str(rep_path))
    assert loaded.bracket == rep.bracket
    assert loaded.action == rep.action

    t = sl2_casimir_tensor()
    t_doc = {"t": [[f"{x.numerator}/{x.denominator}"
                    if isinstance(x, Fraction) else str(x)
                    for x in row] for row in t.t]}
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps(t_doc))
    assert load_tensor_json(str(t_path)) == t


@pytest.mark.parametrize("key, value", [("dim_g", 2.9), ("dim_V", 1.0),
                                        ("dim_g", "3"), ("dim_V", True)])
def test_loader_refuses_non_integer_dimensions(tmp_path, key, value):
    rep = sl2_rep()
    doc = {"dim_g": rep.dim_g, "dim_V": rep.dim_V,
           "bracket": [[[str(x) for x in row] for row in plane]
                       for plane in rep.bracket],
           "action": [[[str(x) for x in row] for row in mat]
                      for mat in rep.action]}
    doc[key] = value
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=f"^{key} = {value!r} is not an integer$"):
        load_rep_json(str(path))


@pytest.mark.parametrize("bad, shown", [
    ("1/0", "scalar '1/0' has a zero denominator"),
    ("-3/0", "scalar '-3/0' has a zero denominator"),
    (float("nan"), "scalar nan is not finite"),
    (float("inf"), "scalar inf is not finite"),
    (float("-inf"), "scalar -inf is not finite"),
])
def test_loaders_refuse_zero_denominator_and_non_finite(tmp_path, bad, shown):
    # a NaN or infinite entry would pass validate, whose comparisons with
    # nan are all false, and solve to a zero admissible space
    rep = sl2_rep()
    action = [[[str(x) for x in row] for row in mat] for mat in rep.action]
    action[0][0][0] = bad
    doc = {"dim_g": rep.dim_g, "dim_V": rep.dim_V,
           "bracket": [[[str(x) for x in row] for row in plane]
                       for plane in rep.bracket],
           "action": action}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        load_rep_json(str(path))
    path.write_text(json.dumps({"t": [[bad, "0"], ["0", "1"]]}))
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        load_tensor_json(str(path))


def test_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_g": 1, "dim_V": 1,
                                "bracket": [[[1]]], "action": []}))
    with pytest.raises((ValueError, KeyError)):
        load_rep_json(str(path))


def sl2_tilted_rep():
    """sl2 on C^2 in the basis (h+e, e, f): no element has diagonal ad."""
    return invtensor._commutator_rep_from_matrices(
        [[[1, 1], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], 2)


ORACLE_REPS = ([(f"gl({r1},{r2})", lambda r1=r1, r2=r2: gl_pair_rep(r1, r2))
                for r1 in (1, 2, 3) for r2 in (1, 2, 3)]
               + [("gsp4", lambda: gsp_rep(4)), ("sl2", sl2_rep),
                  ("sl2+center", lambda: augment_with_center(sl2_rep())),
                  ("sl2(h+e,e,f)", sl2_tilted_rep),
                  ("sl2(h+e,e,f)+center",
                   lambda: augment_with_center(sl2_tilted_rep()))])


@pytest.mark.parametrize("make", [make for _, make in ORACLE_REPS],
                         ids=[name for name, _ in ORACLE_REPS])
def test_solve_admissible_equals_dense_oracle(make):
    rep = make()
    got = solve_admissible(rep)
    want = dense_solve_admissible(rep)
    assert got == want
    assert repr(got) == repr(want)


def diagonal_elements(rep):
    """Indices k whose ad is diagonal in the basis."""
    m, c = rep.dim_g, rep.bracket
    return [k for k in range(m)
            if all(c[k][a][u] == 0 for a in range(m) for u in range(m)
                   if u != a)]


def test_tilted_sl2_has_no_weight_to_drop_by():
    # the no-drop path: only the centre has diagonal ad, with weight 0,
    # so every unknown of S^2 g stays in the solve
    assert diagonal_elements(sl2_tilted_rep()) == []
    center = augment_with_center(sl2_tilted_rep())
    assert diagonal_elements(center) == [3]
    assert all(x == 0 for row in center.bracket[3] for x in row)
    assert solve_admissible(sl2_tilted_rep()) == []
    assert len(solve_admissible(center)) == 1


@pytest.mark.parametrize("make", [lambda: gl_pair_rep(4, 1),
                                  lambda: gl_pair_rep(1, 4),
                                  lambda: gl_pair_rep(4, 2),
                                  lambda: gl_pair_rep(3, 3),
                                  lambda: gsp_rep(6)],
                         ids=["gl(4,1)", "gl(1,4)", "gl(4,2)", "gl(3,3)",
                              "gsp6"])
def test_solve_admissible_equals_full_system_solve(make):
    # reps where the dense oracle takes seconds: the sparse solve on every
    # unknown of S^2 g, which the weight reduction must reproduce exactly
    rep = make()
    got = solve_admissible(rep)
    want = full_solve_admissible(rep)
    assert len(got) >= 1
    assert repr(got) == repr(want)


def test_weights_take_float_noise_as_zero():
    # gl(2,1) with rounding noise below FLOAT_TOL on E_00's eigenvalue at
    # E_01 and on an entry off its diagonal: E_00 still counts as diagonal,
    # and (E_01, E_10), whose weights now sum to 1e-13, keeps its unknown,
    # which the Casimir of gl_2 needs
    noise = 1e-13
    rep = float_copy(gl_pair_rep(2, 1))
    c = [[list(row) for row in plane] for plane in rep.bracket]
    for i, j, k, x in ((0, 1, 1, noise), (0, 3, 1, noise)):
        c[i][j][k] += x
        c[j][i][k] -= x
    assert 0 < c[0][1][1] + c[0][2][2] <= invtensor.FLOAT_TOL
    noisy = LieRepData(dim_g=rep.dim_g, dim_V=rep.dim_V,
                       bracket=tuple(tuple(map(tuple, plane)) for plane in c),
                       action=rep.action)
    noisy.validate()
    got = solve_admissible(noisy)
    want = dense_solve_admissible(noisy)
    assert len(got) == len(want) == len(solve_admissible(rep)) == 3
    for g, w in zip(got, want):
        assert max(abs(x - y) for gr, wr in zip(g.t, w.t)
                   for x, y in zip(gr, wr)) <= 1e-10


@pytest.mark.parametrize("two_r", [4, 6])
def test_sp_rep_equals_dense_oracle(two_r):
    n = two_r
    omega = invtensor.symplectic_form(n)
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + a] += omega[k][b]
                row[k * n + b] += omega[a][k]
            rows.append(row)
    mats = [[[vec[a * n + b] for b in range(n)] for a in range(n)]
            for vec in map(invtensor._normalize_exact,
                           dense_kernel(rows, n * n, exact=True))]
    rep = sp_rep(n)
    assert rep.action == tuple(tuple(map(tuple, mat)) for mat in mats)
    # structure constants: one dense reduction of the columns A_0 .. A_m-1
    # followed by every [A_i, A_j], i < j
    m = len(mats)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    cols = [[x for row in mat for x in row] for mat in mats]
    for i, j in pairs:
        cols.append([sum(mats[i][a][k] * mats[j][k][b]
                         - mats[j][a][k] * mats[i][k][b] for k in range(n))
                     for a in range(n) for b in range(n)])
    work = [list(map(Fraction, r)) for r in zip(*cols)]
    assert dense_rref(work, len(cols), exact=True) == list(range(m))
    want = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for col, (i, j) in enumerate(pairs, start=m):
        for k in range(m):
            want[i][j][k], want[j][i][k] = work[k][col], -work[k][col]
    assert rep.bracket == tuple(tuple(map(tuple, plane)) for plane in want)


@pytest.mark.parametrize("seed", range(8))
def test_sparse_rref_matches_dense_on_rank_deficient_systems(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(4, 14), rng.randint(3, 12)
    rank = rng.randint(1, min(4, ncols - 1))
    left = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[rng.choice([0, 0, 0, 1, -2, 5]) for _ in range(ncols)]
             for _ in range(rank)]
    rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)]
            for lrow in left]
    dense = [list(map(Fraction, row)) for row in rows if any(row)]
    want = dense_rref(dense, ncols, exact=True)
    got, reduced = invtensor._rref(
        [{c: Fraction(x) for c, x in row.items()} for row in as_dicts(rows)],
        ncols, exact=True)
    assert got == want
    assert [[row.get(c, 0) for c in range(ncols)] for row in reduced] == dense
    kernel = invtensor._kernel_basis(as_dicts(rows), ncols, exact=True)
    assert kernel == dense_kernel(rows, ncols, exact=True)
    assert len(kernel) == ncols - len(want) >= ncols - rank
    # float input: the same pivots, reduced rows within 1e-10
    frows = [[float(x) for x in row] for row in rows]
    fdense = [row for row in frows if any(row)]
    assert dense_rref(fdense, ncols, exact=False) == want
    fgot, freduced = invtensor._rref(as_dicts(frows), ncols, exact=False)
    assert fgot == want
    assert all(abs(row.get(c, 0.0) - frow[c]) <= 1e-10
               for row, frow in zip(freduced, fdense) for c in range(ncols))


@pytest.mark.parametrize("seed", range(8))
def test_sparse_rref_matches_dense_on_float_systems(seed):
    """Rank-deficient systems with non-integer entries: rounding leaves
    residues the 1e-10 cut must not take as pivots, and the largest-pivot
    rule decides the rounding, which the dense reference reproduces."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(4, 14), rng.randint(3, 12)
    rank = rng.randint(1, min(4, ncols - 1))
    left = [[rng.uniform(-2, 2) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(ncols)]
             for _ in range(rank)]
    rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)]
            for lrow in left]
    dense = [list(row) for row in rows]
    want = dense_rref(dense, ncols, exact=False)
    got, reduced = invtensor._rref(as_dicts(rows), ncols, exact=False)
    assert got == want
    # left has full column rank, so the system's rank is that of right
    assert len(got) == len(dense_rref([list(map(Fraction, row))
                                       for row in right], ncols, exact=True))
    assert [[row.get(c, 0.0) for c in range(ncols)] for row in reduced] \
        == dense


@pytest.mark.parametrize("make", [lambda: gl_pair_rep(2, 1),
                                  lambda: gsp_rep(4)], ids=["gl(2,1)", "gsp4"])
def test_float_solve_within_tolerance_of_dense_oracle(make):
    rep = float_copy(make())
    assert not rep.is_exact()
    got = solve_admissible(rep)
    want = dense_solve_admissible(rep)
    assert len(got) == len(want) >= 1
    for g, w in zip(got, want):
        assert max(abs(x - y) for gr, wr in zip(g.t, w.t)
                   for x, y in zip(gr, wr)) <= 1e-10


def test_gl33_admissible_space():
    rep = gl_pair_rep(3, 3)
    basis = solve_admissible(rep)
    assert len(basis) == 3
    for t in basis:
        assert check_invariance(rep, t) == 0
        assert max_abs(t_star(rep, t)) == 0


def seeded_tensors(m, seed, count=3):
    """Symmetric tensors with small int and half-integer Fraction entries."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                x = rng.randint(-3, 3)
                t[i][j] = t[j][i] = Fraction(x, 2) if rng.random() < 0.3 else x
        out.append(SymTensor(t))
    return out


def invariance_cases(name, rep, seed):
    """Invariant basis tensors, then seeded generic tensors."""
    basis = solve_admissible(rep)
    if name == "sl2":  # no admissible tensor, but the Casimir is invariant
        basis.append(sl2_casimir_tensor())
    return basis, seeded_tensors(rep.dim_g, seed)


SEEDED_REPS = [(seed, name, make)
               for seed, (name, make) in enumerate(ORACLE_REPS)]


@pytest.mark.parametrize("seed, name, make", SEEDED_REPS,
                         ids=[name for name, _ in ORACLE_REPS])
def test_t_star_equals_dense_oracle(seed, name, make):
    exact = make()
    rep = float_copy(exact)
    basis, generic = invariance_cases(name, exact, seed)
    for t in basis + generic:
        got, want = t_star(exact, t), dense_t_star(exact, t)
        assert got == want
        assert repr(got) == repr(want)
        ft = SymTensor([[float(x) for x in row] for row in t.t])
        got, want = t_star(rep, ft), dense_t_star(rep, ft)
        assert max(abs(x - y) for gr, wr in zip(got, want)
                   for x, y in zip(gr, wr)) <= 1e-12


@pytest.mark.parametrize("seed, name, make", SEEDED_REPS,
                         ids=[name for name, _ in ORACLE_REPS])
def test_check_invariance_equals_dense_oracle(seed, name, make):
    rep = make()
    basis, generic = invariance_cases(name, rep, seed)
    nonabelian = any(x != 0 for plane in rep.bracket for row in plane
                     for x in row)
    for t in basis + generic:
        got, want = check_invariance(rep, t), dense_check_invariance(rep, t)
        assert got == want
        assert repr(got) == repr(want)
    for t in basis:
        assert check_invariance(rep, t) == 0
    if nonabelian:
        assert any(check_invariance(rep, t) != 0 for t in generic)


@pytest.mark.parametrize("seed, name, make", SEEDED_REPS,
                         ids=[name for name, _ in ORACLE_REPS])
def test_float_check_invariance_within_tolerance_of_dense_oracle(seed, name,
                                                                 make):
    exact = make()
    rep = float_copy(exact)
    basis, generic = invariance_cases(name, exact, seed)
    for t in basis + generic:
        ft = SymTensor([[float(x) for x in row] for row in t.t])
        got, want = check_invariance(rep, ft), dense_check_invariance(rep, ft)
        assert type(got) is type(want)
        assert abs(got - want) <= 1e-12
