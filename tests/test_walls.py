from fractions import Fraction
from math import ceil, floor

import numpy as np
import pytest

from sklab.walls import (TripleInvariants, Wall, _cells, candidate_walls,
                         degeneration_cells, stability_verdict)


def frac(a, b=1):
    return Fraction(a, b)


# The Fraction path that candidate_walls and stability_verdict took before
# their integer rewrite, kept as the oracle the integer path must match.

def _sigma_of_tau(t: TripleInvariants, tau: Fraction) -> Fraction:
    return (tau * (t.r1 + t.r2) - t.d1 - t.d2) / t.r2


def _fraction_walls(t: TripleInvariants, tau_lo, tau_hi):
    tau_lo, tau_hi = Fraction(tau_lo), Fraction(tau_hi)
    if tau_lo >= tau_hi:
        raise ValueError("empty tau interval")
    found = {}
    for r1p, r2p in _cells(t):
        det = r2p * t.r1 - r1p * t.r2
        if det == 0:
            continue
        # dsum' at the interval ends; tau is monotone in dsum'
        at_lo = Fraction(r2p * t.dsum - tau_lo * det, t.r2)
        at_hi = Fraction(r2p * t.dsum - tau_hi * det, t.r2)
        lo_s, hi_s = min(at_lo, at_hi), max(at_lo, at_hi)
        for dsum_p in range(floor(lo_s) + 1, ceil(hi_s)):
            tau = Fraction(r2p * t.dsum - t.r2 * dsum_p, det)
            found.setdefault(tau, []).append((r1p, r2p, dsum_p))
    walls = [Wall(tau=tau, witnesses=tuple(sorted(ws)))
             for tau, ws in found.items()]
    walls.sort(key=lambda w: w.tau)
    return walls


def _fraction_verdict(t: TripleInvariants, sub, tau) -> str:
    r1p, r2p, dsum_p = sub
    tau = Fraction(tau)
    sigma = _sigma_of_tau(t, tau)
    sub_slope = Fraction(dsum_p + sigma * r2p, r1p + r2p)
    if sub_slope < tau:
        return "below"
    if sub_slope == tau:
        return "equal"
    return "above"


@pytest.mark.parametrize("r1, r2", [(r1, r2) for r1 in range(1, 5)
                                    for r2 in range(1, 5)])
def test_integer_walls_match_fraction_oracle(r1, r2):
    # ends k/q for every q in 1..8, some of them on walls, plus a float end
    # and a string end; equal under == and under repr
    intervals = [(frac(-q - 1, q), frac(2 * q - 1, q)) for q in range(1, 9)]
    intervals += [(frac(-5, 7), 0.1), (0.1, "1/3"), ("1/3", frac(17, 8))]
    for d1 in range(-3, 4):
        for d2 in range(-3, 4):
            t = TripleInvariants(r1, r2, d1, d2)
            for lo, hi in intervals:
                got = candidate_walls(t, lo, hi)
                want = _fraction_walls(t, lo, hi)
                assert got == want, (t, lo, hi)
                assert repr(got) == repr(want), (t, lo, hi)


@pytest.mark.parametrize("r1, r2", [(r1, r2) for r1 in range(1, 5)
                                    for r2 in range(1, 5)])
def test_integer_verdicts_match_fraction_oracle(r1, r2):
    # every rank cell and dsum' in -6..6, at every wall of (-1, 2) and at
    # every chamber midpoint between them
    for d1, d2 in ((3, -2), (-1, 2)):
        t = TripleInvariants(r1, r2, d1, d2)
        lo, hi = frac(-1), frac(2)
        taus = [lo] + [w.tau for w in candidate_walls(t, lo, hi)] + [hi]
        points = taus + [(a + b) / 2 for a, b in zip(taus, taus[1:])]
        for r1p, r2p in _cells(t):
            for dsum_p in range(-6, 7):
                sub = (r1p, r2p, dsum_p)
                for tau in points:
                    assert stability_verdict(t, sub, tau) == \
                        _fraction_verdict(t, sub, tau), (t, sub, tau)


def test_ranks_must_be_positive():
    with pytest.raises(ValueError):
        TripleInvariants(0, 1, 2, 3)


@pytest.mark.parametrize("value", [3.5, 2.0])
def test_fields_refuse_floats(value):
    # integer arithmetic would floor a float degree silently
    with pytest.raises(TypeError) as exc:
        TripleInvariants(2, 1, value, 0)
    assert str(exc.value) == f"d1 must be an integer, got {value}"
    with pytest.raises(TypeError) as exc:
        TripleInvariants(2, value, 3, 0)
    assert str(exc.value) == f"r2 must be an integer, got {value}"


@pytest.mark.parametrize("value, want", [(np.int64(3), 3), (True, 1)])
def test_fields_store_plain_ints(value, want):
    t = TripleInvariants(value, 1, value, 0)
    assert type(t.r1) is int and type(t.d1) is int
    assert t == TripleInvariants(want, 1, want, 0)
    assert candidate_walls(t, -2, 3) == \
        candidate_walls(TripleInvariants(want, 1, want, 0), -2, 3)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_tau_is_refused_by_name(value):
    t = TripleInvariants(2, 1, 3, 0)
    sub = (1, 0, 1)
    for name, call in (("tau_lo", lambda: candidate_walls(t, value, 3)),
                       ("tau_hi", lambda: candidate_walls(t, 0, value)),
                       ("tau", lambda: stability_verdict(t, sub, value))):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == \
            f"{name} must be a finite rational, got {value!r}"


def test_verdict_refuses_non_integer_subtriples():
    t = TripleInvariants(2, 1, 3, 0)
    with pytest.raises(TypeError):
        stability_verdict(t, (1, 0, 1.0), frac(1))
    with pytest.raises(TypeError):
        stability_verdict(t, (1, 0, frac(3, 2)), frac(1))


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
    with pytest.raises(ValueError) as exc:
        candidate_walls(t, 3, 0)
    assert str(exc.value) == \
        "empty tau interval: tau_lo = 3 is not below tau_hi = 0"
    with pytest.raises(ValueError) as exc:
        candidate_walls(t, 0.5, "1/2")
    assert str(exc.value) == \
        "empty tau interval: tau_lo = 1/2 is not below tau_hi = 1/2"


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
