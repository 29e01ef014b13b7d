"""Tour of the theta basis: values, functional equations, zeros, symmetry.

The d basis functions live on the curve C/(Z + Z*omega); everything
below checks the structure that the relation-space machinery relies on.
"""

from sklab.theta import (CurveModulus, ThetaBasis, theta_functional_residuals,
                         theta_symmetry_constants, theta_zero_count)

OMEGA = 0.2 + 1.3j


def main():
    d = 5
    modulus = CurveModulus(OMEGA)
    basis = ThetaBasis(d, modulus)

    z = 0.13 + 0.21j
    print(f"basis values at z = {z} (d = {d}):")
    for m, value in enumerate(basis.values_at(z)):
        print(f"  theta_{m}(z) = {value:+.12f}")

    print("\nquasi-periodicity residuals at the same z (relative):")
    res1, res2 = theta_functional_residuals(basis, range(d), [z] * d)
    for m, (r1, r2) in enumerate(zip(res1, res2)):
        print(f"  m = {m}: shift 1/d -> {r1:.2e}, shift omega -> {r2:.2e}")

    print("\nzeros per fundamental cell (contour count):")
    for m in range(d):
        print(f"  theta_{m}: {theta_zero_count(basis, m)} zeros")

    x = 0.31 + 0.17j
    a, b, fit = theta_symmetry_constants(basis, x)
    print(f"\nreflection constants at x = {x}:")
    print(f"  a = {a:+.12f}  (expected -1)")
    print(f"  b = {b:+.12f}  (expected exp(-2 pi i/d))")
    print(f"  fit residual = {fit:.2e}, |b^d - 1| = {abs(b**d - 1):.2e}")


if __name__ == "__main__":
    main()
