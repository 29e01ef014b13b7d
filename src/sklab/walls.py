"""Candidate walls for the stability parameter of a triple.

A triple has ranks (r1, r2) and degrees (d1, d2); the weighted slope is
mu_sigma = (d1 + d2 + sigma*r2)/(r1 + r2), reparametrized by tau, its
own value.  Numerical subtriple data (r1', r2', dsum') destabilizes at
the tau where its slope equals tau, giving the wall equation

    tau * (r2'*r1 - r1'*r2) = r2'*(d1 + d2) - r2*dsum'.

Walls and verdicts are exact integer cross-multiplications, with `Fraction`
only as the type of the taus handed out; floating point would invent or lose
walls.  The walls are candidates only; whether a subtriple with given
invariants exists inside a stable triple is sheaf theory and out of scope.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
        for name in ("r1", "r2", "d1", "d2"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") \
                    from None
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("ranks must be positive integers")

    @property
    def dsum(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class Wall:
    tau: Fraction
    witnesses: tuple  # (r1', r2', dsum') triples achieving equality


def _rational(name: str, value) -> Fraction:
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{name} must be a finite rational, got {value!r}") \
            from None


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
    tau_lo, tau_hi = _rational("tau_lo", tau_lo), _rational("tau_hi", tau_hi)
    if tau_lo >= tau_hi:
        raise ValueError(f"empty tau interval: tau_lo = {tau_lo} is not "
                         f"below tau_hi = {tau_hi}")
    (a, b), (c, e) = tau_lo.as_integer_ratio(), tau_hi.as_integer_ratio()
    r2, s, m = t.r2, t.dsum, b * e * t.r2
    found = {}
    for r1p, r2p in _cells(t):
        det = r2p * t.r1 - r1p * t.r2
        if det == 0:
            continue
        # dsum' at the interval ends, over m > 0; tau is monotone in dsum'
        num = r2p * s
        x, y = (num * b - a * det) * e, (num * e - c * det) * b
        for dsum_p in range(min(x, y) // m + 1, -(-max(x, y) // m)):
            # tau = (num - r2*dsum')/det, keyed by its reduced (p, q), q > 0
            p = num - r2 * dsum_p
            g = gcd(p, det) if det > 0 else -gcd(p, det)
            found.setdefault((p // g, det // g), []).append((r1p, r2p, dsum_p))
    walls = [Wall(tau=Fraction(p, q), witnesses=tuple(sorted(ws)))
             for (p, q), ws in found.items()]
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
    r1p, r2p, dsum_p = map(operator.index, sub)
    if r1p + r2p == 0:
        raise ValueError("subtriple has zero total rank")
    if not (0 <= r1p <= t.r1 and 0 <= r2p <= t.r2):
        raise ValueError(f"rank cell ({r1p}, {r2p}) outside the box")
    p, q = _rational("tau", tau).as_integer_ratio()
    # (sub-slope - tau) times r2*q*(r1' + r2') > 0
    diff = (t.r2 * q * dsum_p + r2p * (p * (t.r1 + t.r2) - t.dsum * q)
            - t.r2 * p * (r1p + r2p))
    if diff < 0:
        return "below"
    if diff == 0:
        return "equal"
    return "above"
