"""Candidate walls for the stability parameter of a triple.

A triple has ranks (r1, r2) and degrees (d1, d2); the weighted slope is
mu_sigma = (d1 + d2 + sigma*r2)/(r1 + r2), reparametrized by tau, its
own value.  Numerical subtriple data (r1', r2', dsum') destabilizes at
the tau where its slope equals tau, giving the wall equation

    tau * (r2'*r1 - r1'*r2) = r2'*(d1 + d2) - r2*dsum'.

Everything here is exact rational arithmetic: walls are equalities of
rationals, and floating point would invent or lose them.  The walls are
candidates only; whether a subtriple with given invariants exists inside
a particular stable triple is sheaf theory and out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

__all__ = [
    "TripleInvariants",
    "Wall",
    "candidate_walls",
    "degeneration_cells",
    "stability_verdict",
]


@dataclass(frozen=True)
class TripleInvariants:
    r1: int
    r2: int
    d1: int
    d2: int

    def __post_init__(self):
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("ranks must be positive integers")

    @property
    def dsum(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class Wall:
    tau: Fraction
    witnesses: tuple  # (r1', r2', dsum') triples achieving equality


def _sigma_of_tau(t: TripleInvariants, tau: Fraction) -> Fraction:
    return (tau * (t.r1 + t.r2) - t.d1 - t.d2) / t.r2


def _cells(t: TripleInvariants):
    for r1p in range(t.r1 + 1):
        for r2p in range(t.r2 + 1):
            if (r1p, r2p) in ((0, 0), (t.r1, t.r2)):
                continue
            yield r1p, r2p


def candidate_walls(t: TripleInvariants, tau_lo, tau_hi):
    """All wall values in the open interval, merged by tau.

    For each subtriple rank cell with r2'*r1 != r1'*r2 the wall equation
    is linear in dsum', so the taus inside the window come from a finite
    integer range of dsum'.  Proportional cells never produce isolated
    walls; they are either never critical or critical for every tau (see
    degeneration_cells).
    """
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


def degeneration_cells(t: TripleInvariants):
    """Subtriple data critical for every tau at once.

    These are the proportional rank cells (r2'*r1 = r1'*r2) whose wall
    equation degenerates to 0 = 0, which needs r2 | r2'*(d1 + d2).
    """
    out = []
    for r1p, r2p in _cells(t):
        if r2p * t.r1 != r1p * t.r2:
            continue
        num = r2p * t.dsum
        if num % t.r2 == 0:
            out.append((r1p, r2p, num // t.r2))
    return out


def stability_verdict(t: TripleInvariants, sub, tau) -> str:
    """Compare the subtriple slope against tau: below, equal, or above."""
    r1p, r2p, dsum_p = sub
    if r1p + r2p == 0:
        raise ValueError("subtriple has zero total rank")
    if not (0 <= r1p <= t.r1 and 0 <= r2p <= t.r2):
        raise ValueError(f"rank cell ({r1p}, {r2p}) outside the box")
    tau = Fraction(tau)
    sigma = _sigma_of_tau(t, tau)
    sub_slope = Fraction(dsum_p + sigma * r2p, r1p + r2p)
    if sub_slope < tau:
        return "below"
    if sub_slope == tau:
        return "equal"
    return "above"
