import pytest

from sklab import residues
from sklab.residues import (BETA, IDENTITY, PHI, S3Element, all_elements,
                            apply, check_group_relations, fixed_points,
                            orbit_report, residue_set)


def test_residue_set_examples():
    assert residue_set(7).members == (1, 2, 3, 4, 5)
    assert residue_set(5).members == (1, 2, 3)
    assert residue_set(2).members == ()
    assert residue_set(6).members == ()


@pytest.mark.parametrize("d", [2, 7, 35, 143, 15015])
def test_contains_matches_member_scan(d):
    rset = residue_set(d)
    for r in range(-d, 2 * d):
        assert (r in rset) is (r in rset.members)


def sieve_oracle(d):
    """R_d by the membership rule, one gcd per residue."""
    return tuple(r for r in range(1, d) if residues._in_residue_set(r, d))


def test_sieve_matches_gcd_rule_sweep():
    for d in range(2, 3001):
        assert residue_set(d).members == sieve_oracle(d)


# prime powers, primorials, a large prime and a square
@pytest.mark.parametrize("d", [2**12, 3**8, 5**6, 15015, 30030, 510510,
                               999983, 10**6])
def test_sieve_matches_gcd_rule_large(d):
    assert residue_set(d).members == sieve_oracle(d)


def test_residue_set_rejects_small_modulus():
    with pytest.raises(ValueError):
        residue_set(1)


def test_apply_rejects_small_modulus():
    # R_1 does not exist, although every residue is a unit mod 1
    for d in (1, 0, -3):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            apply(PHI, 0, d)


def test_apply_rejects_outsiders():
    with pytest.raises(ValueError):
        apply(PHI, 6, 7)  # 6 = -1 mod 7 has gcd(6+1, 7) = 7


def test_group_has_six_elements():
    elems = all_elements()
    assert len(elems) == 6
    assert len(set(elems)) == 6
    assert IDENTITY in elems


def test_multiplication_table_relations():
    e = IDENTITY
    assert PHI * PHI * PHI == e
    assert BETA * BETA == e
    pb = PHI * BETA
    assert pb * pb == e
    # beta conjugates phi to its inverse
    assert BETA * PHI * BETA == PHI * PHI


def test_apply_is_group_action():
    d = 13
    for g in all_elements():
        for h in all_elements():
            for r in residue_set(d).members:
                assert apply(g * h, r, d) == apply(g, apply(h, r, d), d)


def test_relations_pointwise_sweep():
    for d in range(2, 60):
        assert check_group_relations(d)


def test_phi_action_d7():
    # phi: r -> -(r+1)^{-1} mod 7 cycles 1 -> 3 -> 5 -> 1 and fixes 2, 4
    assert apply(PHI, 1, 7) == 3
    assert apply(PHI, 3, 7) == 5
    assert apply(PHI, 5, 7) == 1
    assert apply(PHI, 2, 7) == 2
    assert apply(PHI, 4, 7) == 4


def test_beta_action_d7():
    # beta: r -> r^{-1} mod 7
    assert apply(BETA, 2, 7) == 4
    assert apply(BETA, 3, 7) == 5
    assert apply(BETA, 1, 7) == 1


def test_fixed_points_d7():
    fixed = fixed_points(7)
    assert fixed["phi_fixed"] == (2, 4)
    assert fixed["phibeta_fixed"] == (5,)


def test_fixed_point_congruences_sweep():
    for d in range(2, 120):
        fixed = fixed_points(d)
        rset = residue_set(d)
        for r in rset.members:
            in_fixed = r in fixed["phi_fixed"]
            assert in_fixed == ((r * r + r + 1) % d == 0)
        if d % 2:
            want = tuple(r for r in ((d - 2) % d,) if r in rset)
            assert fixed["phibeta_fixed"] == want


def test_orbits_d7():
    assert orbit_report(7) == [(1, 3, 5), (2, 4)]


def test_orbits_d5_single():
    assert orbit_report(5) == [(1, 2, 3)]


def test_orbits_partition():
    for d in (7, 11, 13, 35):
        seen = []
        for orbit in orbit_report(d):
            seen.extend(orbit)
        assert sorted(seen) == list(residue_set(d).members)


def test_canonical_normal_form():
    assert S3Element(5, 3) == S3Element(2, 1)
    assert S3Element(-1, 0) == S3Element(2, 0)


# ------------------------------------------- apply-chaining oracle


def chained_check_group_relations(d):
    """The relation check as a chain of single-residue apply calls."""
    rset = residue_set(d)
    phibeta = PHI * BETA
    for r in rset.members:
        if apply(PHI, apply(PHI, apply(PHI, r, d), d), d) != r:
            return False
        if apply(BETA, apply(BETA, r, d), d) != r:
            return False
        if apply(phibeta, apply(phibeta, r, d), d) != r:
            return False
        # closure: images stay inside R_d (apply would raise otherwise)
        apply(PHI, apply(PHI, r, d), d)
        apply(BETA, r, d)
    return True


def chained_fixed_points(d):
    rset = residue_set(d)
    phibeta = PHI * BETA
    phi_fixed = tuple(r for r in rset.members if apply(PHI, r, d) == r)
    pb_fixed = tuple(r for r in rset.members if apply(phibeta, r, d) == r)
    for r in phi_fixed:
        assert (r * r + r + 1) % d == 0
    if d % 2:
        expected = tuple(r for r in ((d - 2) % d,) if r in rset.members)
        assert pb_fixed == expected
    return {"phi_fixed": phi_fixed, "phibeta_fixed": pb_fixed}


def chained_orbit_report(d):
    rset = residue_set(d)
    remaining = set(rset.members)
    orbits = []
    for r in rset.members:
        if r not in remaining:
            continue
        orbit = sorted({apply(g, r, d) for g in all_elements()})
        orbits.append(tuple(orbit))
        remaining.difference_update(orbit)
    return orbits


def test_tables_equal_apply_chaining_oracle():
    for d in range(2, 401):
        assert check_group_relations(d) is chained_check_group_relations(d)
        assert fixed_points(d) == chained_fixed_points(d)
        assert orbit_report(d) == chained_orbit_report(d)


def test_tables_agree_with_apply():
    for d in (7, 35, 101, 143, 999, 15015):
        members, phi, beta = residues._action_tables(d)
        assert members == residue_set(d).members
        for r in members:
            assert phi[r] == apply(PHI, r, d)
            assert beta[r] == apply(BETA, r, d)


def patched_tables(monkeypatch, edit):
    """Route the whole-set checks through tables changed by edit(phi)."""
    build = residues._action_tables

    def broken(d):
        members, phi, beta = build(d)
        phi = list(phi)
        edit(phi)
        return members, phi, beta

    monkeypatch.setattr(residues, "_action_tables", broken)


def swap_images(phi):
    # phi stays a permutation of R_7 but loses order 3
    phi[1], phi[2] = phi[2], phi[1]


def other_three_cycle(phi):
    # phi = (1 2 3) keeps phi^3 = id, but phi beta is no involution
    phi[1:6] = [2, 3, 1, 4, 5]


@pytest.mark.parametrize("edit", [swap_images, other_three_cycle])
def test_broken_phi_table_fails_relations(monkeypatch, edit):
    patched_tables(monkeypatch, edit)
    assert check_group_relations(7) is False


def test_phi_image_outside_residue_set_raises(monkeypatch):
    # 6 = -1 mod 7 is not in R_7
    patched_tables(monkeypatch, lambda phi: phi.__setitem__(2, 6))
    for check in (check_group_relations, fixed_points, orbit_report):
        with pytest.raises(ValueError, match="residue 6 is not in R_7"):
            check(7)


@pytest.mark.parametrize("residue, image, message", [
    # phi fixing 1 contradicts 1 + 1 + 1 = 3 != 0 mod 7
    (1, 1, r"phi fixes 1 mod 7 but r\^2 \+ r \+ 1 = 3 mod 7"),
    # phi(4) = 2 with beta(2) = 4 makes phi beta fix 2 beside d - 2 = 5
    (4, 2, r"phi beta fixes \(2, 5\) mod 7, expected \(5,\)"),
])
def test_fixed_point_cross_checks_raise(monkeypatch, residue, image, message):
    patched_tables(monkeypatch, lambda phi: phi.__setitem__(residue, image))
    with pytest.raises(ArithmeticError, match=message):
        fixed_points(7)


# ------------------------------------------------- the one-entry memo


def test_checks_on_one_modulus_build_tables_once():
    d = 1013  # used by no other test
    before = residues._action_tables.cache_info().misses
    check_group_relations(d)
    fixed_points(d)
    orbit_report(d)
    residue_set(d)
    assert residues._action_tables.cache_info().misses == before + 1


def test_memoised_tables_are_read_only():
    _, phi, beta = residues._action_tables(7)
    for table in (phi, beta):
        with pytest.raises(TypeError):
            table[1] = 1


def test_patched_tables_leave_no_edit_behind(monkeypatch):
    patched_tables(monkeypatch, swap_images)
    assert check_group_relations(7) is False
    monkeypatch.undo()
    assert check_group_relations(7) is True
    assert fixed_points(7) == chained_fixed_points(7)


def test_float_modulus_still_refused():
    check_group_relations(7)
    with pytest.raises(TypeError):
        check_group_relations(7.0)
