"""The residue set R_d and its symmetric-group action.

R_d collects the residues r mod d with both r and r + 1 invertible.
Two maps act on it: phi(r) = -(r+1)^{-1} of order three and the
involution beta(r) = r^{-1}.  They satisfy phi beta = beta phi^{-1},
so together they generate a copy of S3 permuting R_d.

For even d the set is empty (one of r, r+1 is even), so everything
interesting happens at odd d, where phi beta has the single fixed point
r = -2 and phi fixes exactly the roots of r^2 + r + 1 = 0 mod d.

``apply`` acts on a single residue.  The whole-set checks (relations,
fixed points, orbits) compute the action once per call instead, from one
table of inverses mod d: phi and beta are then lookups into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

__all__ = [
    "PHI",
    "BETA",
    "IDENTITY",
    "ResidueSet",
    "S3Element",
    "all_elements",
    "apply",
    "check_group_relations",
    "fixed_points",
    "orbit_report",
    "residue_set",
]


@dataclass(frozen=True)
class S3Element:
    """Canonical form phi^k beta^e with k mod 3, e mod 2.

    Multiplication uses phi^a beta phi^b = phi^{a-b} beta, the dihedral
    normal form; there are six elements in total.
    """

    k: int
    e: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % 3)
        object.__setattr__(self, "e", self.e % 2)

    def __mul__(self, other: "S3Element") -> "S3Element":
        # (phi^k1 b^e1)(phi^k2 b^e2): move b^e1 across phi^k2
        k2 = -other.k if self.e else other.k
        return S3Element(self.k + k2, self.e + other.e)

    def inverse(self) -> "S3Element":
        if self.e:
            return self  # reflections are involutions
        return S3Element(-self.k, 0)

    def __str__(self) -> str:
        phi_part = ("", "phi", "phi^2")[self.k]
        beta_part = "beta" if self.e else ""
        if not phi_part and not beta_part:
            return "id"
        return (phi_part + (" " if phi_part and beta_part else "") + beta_part)


IDENTITY = S3Element(0, 0)
PHI = S3Element(1, 0)
BETA = S3Element(0, 1)


def all_elements():
    return tuple(S3Element(k, e) for e in (0, 1) for k in (0, 1, 2))


@dataclass(frozen=True)
class ResidueSet:
    d: int
    members: tuple

    def __contains__(self, r: int) -> bool:
        return r in self.members


def _in_residue_set(r: int, d: int) -> bool:
    """The membership rule of R_d: r and r + 1 (so r(r + 1)) are units mod d."""
    return gcd(r * (r + 1), d) == 1


def residue_set(d: int) -> ResidueSet:
    """Residues r mod d with gcd(r, d) = gcd(r + 1, d) = 1."""
    if d < 2:
        raise ValueError("modulus must be at least 2")
    members = tuple(r for r in range(1, d) if _in_residue_set(r, d))
    return ResidueSet(d=d, members=members)


def apply(g: S3Element, r: int, d: int) -> int:
    """Act by g on a residue.  Raises if d < 2 or r is outside R_d."""
    if d < 2:
        raise ValueError("modulus must be at least 2")
    if not _in_residue_set(r, d):
        raise ValueError(f"residue {r} is not in R_{d}")
    out = r % d
    if g.e:
        out = pow(out, -1, d)
    for _ in range(g.k):
        out = (-pow(out + 1, -1, d)) % d
    return out


def _action_tables(d: int):
    """R_d with phi and beta as lists indexed by residue (0 off R_d).

    inv[u] = u^{-1} mod d at every unit u, one pow per pair {u, u^{-1}};
    then beta(r) = inv[r] and phi(r) = -inv[r + 1] for each member r.
    """
    members = residue_set(d).members
    inv = [0] * d
    for u in range(1, d):
        if not inv[u] and gcd(u, d) == 1:
            v = pow(u, -1, d)
            inv[u], inv[v] = v, u
    phi, beta = [0] * d, [0] * d
    for r in members:
        # r + 1 < d, since r = d - 1 has r + 1 = 0, which is no unit
        phi[r] = d - inv[r + 1]
        beta[r] = inv[r]
    return members, phi, beta


def _closed_action(d: int):
    """The action tables, checked to map R_d into itself.

    An image outside R_d raises the ValueError ``apply`` raises when it is
    fed that image.
    """
    members, phi, beta = _action_tables(d)
    inside = set(members)
    for r in members:
        for image in (phi[r], beta[r]):
            if image not in inside:
                raise ValueError(f"residue {image} is not in R_{d}")
    return members, phi, beta


def check_group_relations(d: int) -> bool:
    """phi^3 = beta^2 = (phi beta)^2 = id pointwise on R_d."""
    members, phi, beta = _closed_action(d)
    for r in members:
        if phi[phi[phi[r]]] != r or beta[beta[r]] != r:
            return False
        if phi[beta[phi[beta[r]]]] != r:
            return False
    return True


def fixed_points(d: int) -> dict:
    """Fixed residues of phi and of phi beta, by direct scan.

    The scan is cross-checked against the defining congruences:
    phi-fixed means r^2 + r + 1 = 0 mod d, and for odd d the phi beta
    fixed set is exactly {d - 2} when that residue lies in R_d.  A failed
    cross-check raises ArithmeticError.
    """
    members, phi, beta = _closed_action(d)
    phi_fixed = tuple(r for r in members if phi[r] == r)
    pb_fixed = tuple(r for r in members if phi[beta[r]] == r)
    for r in phi_fixed:
        if (r * r + r + 1) % d:
            raise ArithmeticError(
                f"phi fixes {r} mod {d} but r^2 + r + 1 = "
                f"{(r * r + r + 1) % d} mod {d}, not 0")
    if d % 2:
        expected = tuple(r for r in ((d - 2) % d,) if r in members)
        if pb_fixed != expected:
            raise ArithmeticError(
                f"phi beta fixes {pb_fixed} mod {d}, expected {expected}")
    return {"phi_fixed": phi_fixed, "phibeta_fixed": pb_fixed}


def orbit_report(d: int):
    """Partition of R_d into orbits of the full six-element group."""
    members, phi, beta = _closed_action(d)
    remaining = set(members)
    orbits = []
    for r in members:
        if r not in remaining:
            continue
        # phi^k beta^e for k = 0, 1, 2 and e = 0, 1
        b = beta[r]
        orbit = sorted({r, phi[r], phi[phi[r]], b, phi[b], phi[phi[b]]})
        orbits.append(tuple(orbit))
        remaining.difference_update(orbit)
    return orbits
