from fractions import Fraction

import pytest

from sklab.walls import (TripleInvariants, _sigma_of_tau, candidate_walls,
                         degeneration_cells, stability_verdict)


def frac(a, b=1):
    return Fraction(a, b)


def test_ranks_must_be_positive():
    with pytest.raises(ValueError):
        TripleInvariants(0, 1, 2, 3)


def test_example_triple_full_wall_list():
    t = TripleInvariants(2, 1, 3, 0)
    walls = candidate_walls(t, 0, 3)
    assert [w.tau for w in walls] == [frac(1, 2), frac(1), frac(3, 2),
                                      frac(2), frac(5, 2)]


def test_example_triple_interior_cells():
    # the cells with both ranks strictly inside the box contribute the
    # integer walls, each with its witness
    t = TripleInvariants(2, 1, 3, 0)
    walls = {w.tau: w.witnesses for w in candidate_walls(t, 0, 3)}
    assert (1, 0, 1) in walls[frac(1)]
    assert (1, 1, 2) in walls[frac(1)]
    assert (1, 0, 2) in walls[frac(2)]
    assert (1, 1, 1) in walls[frac(2)]


def test_walls_sorted_and_interior():
    t = TripleInvariants(3, 2, 1, -1)
    lo, hi = frac(-2), frac(2)
    walls = candidate_walls(t, lo, hi)
    taus = [w.tau for w in walls]
    assert taus == sorted(taus)
    assert all(lo < tau < hi for tau in taus)


def test_empty_interval_rejected():
    t = TripleInvariants(2, 1, 3, 0)
    with pytest.raises(ValueError):
        candidate_walls(t, 1, 1)
    with pytest.raises(ValueError):
        candidate_walls(t, 5, 2)


def test_witness_slopes_agree_at_wall():
    t = TripleInvariants(3, 2, 1, -1)
    for wall in candidate_walls(t, -2, 2):
        for witness in wall.witnesses:
            assert stability_verdict(t, witness, wall.tau) == "equal"


def test_verdict_examples():
    t = TripleInvariants(2, 1, 3, 0)
    assert stability_verdict(t, (1, 0, 1), frac(3, 2)) == "below"
    assert stability_verdict(t, (1, 0, 2), frac(3, 2)) == "above"


def test_verdict_rejects_bad_subtriples():
    t = TripleInvariants(2, 1, 3, 0)
    with pytest.raises(ValueError):
        stability_verdict(t, (0, 0, 1), frac(1))
    with pytest.raises(ValueError):
        stability_verdict(t, (3, 0, 1), frac(1))


def test_single_wall_at_d_over_r():
    # (r+1, 1, d, 0) has the distinguished wall tau = d/r witnessed by
    # the cell (r, 0, d)
    for r, d in ((2, 5), (3, 7), (4, 9)):
        t = TripleInvariants(r + 1, 1, d, 0)
        tau = frac(d, r)
        walls = {w.tau: w.witnesses for w in
                 candidate_walls(t, tau - frac(1, 100), tau + frac(1, 100))}
        assert tau in walls
        assert (r, 0, d) in walls[tau]


def test_degeneration_cells():
    # proportional cells appear only for non-coprime ranks
    assert degeneration_cells(TripleInvariants(2, 2, 1, 1)) == [(1, 1, 1)]
    assert degeneration_cells(TripleInvariants(2, 1, 3, 0)) == []
    assert degeneration_cells(TripleInvariants(2, 2, 1, 0)) == []


def test_degenerate_cells_excluded_from_walls():
    t = TripleInvariants(2, 2, 1, 1)
    for wall in candidate_walls(t, -3, 3):
        assert (1, 1, 1) not in wall.witnesses


def test_tensoring_shift_invariance():
    t = TripleInvariants(3, 2, 1, -1)
    lo, hi = frac(-2), frac(2)
    base = candidate_walls(t, lo, hi)
    for shift in (-2, 1, 5):
        moved = candidate_walls(
            TripleInvariants(3, 2, 1 + 3 * shift, -1 + 2 * shift),
            lo + shift, hi + shift)
        assert [w.tau for w in moved] == [w.tau + shift for w in base]
        for w_new, w_old in zip(moved, base):
            want = tuple((r1p, r2p, dsp + (r1p + r2p) * shift)
                         for r1p, r2p, dsp in w_old.witnesses)
            assert w_new.witnesses == want


def test_sigma_slope_formula():
    # the slope (d1 + d2 + sigma*r2)/(r1 + r2) is tau; _sigma_of_tau inverts it
    t = TripleInvariants(2, 1, 3, 0)
    assert _sigma_of_tau(t, frac(3 + frac(1, 2), 3)) == frac(1, 2)
    for t in (t, TripleInvariants(3, 2, 1, -1), TripleInvariants(1, 4, -2, 5)):
        for sigma in (frac(-3), frac(0), frac(1, 2), frac(7, 5)):
            slope = (t.d1 + t.d2 + sigma * t.r2) / (t.r1 + t.r2)
            assert _sigma_of_tau(t, slope) == sigma
