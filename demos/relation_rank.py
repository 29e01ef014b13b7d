"""Rank of the quadratic relation space across (d, r).

For each coprime pair the d^2 relation rows should span exactly
d(d-1)/2 independent directions, independently of the generic
parameter x.  The table prints the measured rank and the singular
value gap that separates signal from numerical noise.
"""

import math

import numpy as np

from sklab.sklyanin import (AlgebraParams, build_relations, relation_rank,
                            sample_generic_x)
from sklab.theta import CurveModulus

OMEGA = 0.2 + 1.3j


def main():
    modulus = CurveModulus(OMEGA)
    rng = np.random.default_rng(7)

    print(f"{'d':>3} {'r':>3} {'rank':>5} {'expected':>9} {'gap':>10}")
    for d in range(2, 8):
        for r in range(1, d):
            if math.gcd(r, d) != 1:
                continue
            x = sample_generic_x(d, modulus, rng)
            params = AlgebraParams(d, r, x, modulus)
            system = build_relations(params)
            rank, gap = relation_rank(system)
            expected = d * (d - 1) // 2
            gap = np.inf if gap is None else gap
            mark = "" if rank == expected else "  <-- MISMATCH"
            print(f"{d:>3} {r:>3} {rank:>5} {expected:>9} {gap:>10.2e}{mark}")


if __name__ == "__main__":
    main()
