import json
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


def test_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim_g": 1, "dim_V": 1,
                                "bracket": [[[1]]], "action": []}))
    with pytest.raises((ValueError, KeyError)):
        load_rep_json(str(path))
