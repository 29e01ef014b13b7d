"""Degeneration of the relations into a quadratic Poisson bracket.

As x -> 0 the algebra becomes commutative and the first-order part of
the relations defines a Poisson tensor on the polynomial ring.  The
extractor reads that tensor off theta(0) and theta'(0) in closed form and
checks it against the relations at x = h u (the tangent residual); the
checks below confirm skew symmetry, the Jacobi identity, and equivariance
of the bracket under r -> r^{-1} mod d.
"""

import numpy as np

from sklab.poisson import (extract_bracket, jacobi_check, scale_match_deviation,
                           skew_check, substituted_tensor)
from sklab.theta import CurveModulus

OMEGA = 0.2 + 1.3j


def main():
    modulus = CurveModulus(OMEGA)

    for d, r in [(3, 1), (4, 1), (5, 2)]:
        tensor = extract_bracket(d, r, modulus)
        jac = jacobi_check(tensor, trials=40, seed=3)
        print(f"(d, r) = ({d}, {r}):")
        print(f"  max |pi|            = {np.abs(tensor.pi).max():.6f}")
        print(f"  tangent residual    = {tensor.richardson_error:.2e}")
        print(f"  skew residual       = {skew_check(tensor):.2e}")
        print(f"  jacobi residual     = {jac:.2e}")

    d, r = 5, 2
    tensor = extract_bracket(d, r, modulus)
    partner = extract_bracket(d, pow(r, -1, d), modulus)
    lam, dev = scale_match_deviation(substituted_tensor(tensor), partner)
    print(f"\nequivariance ({d},{r}) -> ({d},{pow(r, -1, d)}):")
    print(f"  matched scale lambda = {lam:+.6f}")
    print(f"  relative deviation   = {dev:.2e}")

    d, r = 3, 2
    tensor = extract_bracket(d, r, modulus)
    print(f"\ntop-degree case (d, r) = ({d}, {r}), r = d - 1:")
    print(f"  max |pi| = {np.abs(tensor.pi).max():.2e}  (bracket vanishes)")


if __name__ == "__main__":
    main()
