import numpy as np
import pytest

from sklab.theta import (CurveModulus, ThetaBasis, reduce_to_cell,
                         theta_symmetry_constants, theta_zero_count)

# Values computed independently with 45-digit summation of the defining
# series, then rounded to double precision.
ORACLE_VALUES = [
    (5, 1, 0.2 + 1.3j, 0.13 + 0.21j,
     -0.35594162848769000 - 1.0954768564590336j),
    (3, 0, 0.2 + 1.3j, 0.05 + 0.3j,
     -0.0022374445945132054 - 0.78845569033449024j),
    (7, 4, 0.3 + 0.9j, -0.11 + 0.44j,
     1.6007392943886915 + 2.0325869843354265j),
    (4, 3, 0.2 + 1.3j, 0.0 + 0.0j,
     0.21179684905165847 + 0.29134808660390879j),
]


@pytest.mark.parametrize("d,m,omega,z,want", ORACLE_VALUES)
def test_values_against_high_precision_series(d, m, omega, z, want):
    basis = ThetaBasis(d, CurveModulus(omega))
    got = basis.eval(m, z)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_modulus_requires_upper_half_plane():
    with pytest.raises(ValueError):
        CurveModulus(0.5 - 0.1j)
    with pytest.raises(ValueError):
        CurveModulus(0.5 + 0.0j)


def test_reduce_to_cell_lands_in_cell(modulus, rng):
    omega = modulus.omega
    for _ in range(50):
        z = complex(rng.uniform(-4, 4) + rng.uniform(-4, 4) * omega)
        z_red, p, q = reduce_to_cell(z, omega)
        z_red = complex(z_red)
        p, q = int(p), int(q)
        # lattice coordinates of the reduced point: centered unit cell
        beta = z_red.imag / omega.imag
        alpha = z_red.real - beta * omega.real
        assert -0.5 - 1e-12 <= alpha <= 0.5 + 1e-12
        assert -0.5 - 1e-12 <= beta <= 0.5 + 1e-12
        assert z_red + p + q * omega == pytest.approx(z, abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_quasi_periodicity(d, modulus, rng):
    basis = ThetaBasis(d, modulus)
    omega = modulus.omega
    for _ in range(25):
        m = int(rng.integers(0, d))
        z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * omega)
        v = basis.eval(m, z)
        lhs = basis.eval(m, z + 1.0 / d)
        rhs = -np.exp(2j * np.pi * m / d) * v
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        lhs = basis.eval(m, z + omega)
        rhs = -np.exp(-1j * np.pi * d * omega - 2j * np.pi * d * z) * v
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_index_wraps_mod_d(modulus):
    basis = ThetaBasis(5, modulus)
    z = 0.21 + 0.13j
    assert basis.eval(7, z) == basis.eval(2, z)
    assert basis.eval(-1, z) == basis.eval(4, z)


def test_first_basis_function_vanishes_at_origin(modulus):
    for d in (3, 4, 5):
        basis = ThetaBasis(d, modulus)
        values = basis.values_at_zero()
        assert values[0] == 0.0
        assert all(abs(v) > 1e-3 for v in values[1:])


@pytest.mark.parametrize("d", [3, 5])
def test_zero_count_per_cell(d, modulus):
    basis = ThetaBasis(d, modulus)
    for m in range(d):
        assert theta_zero_count(basis, m) == d


def test_symmetry_constants(modulus, rng):
    for d in (3, 5, 7):
        basis = ThetaBasis(d, modulus)
        for _ in range(5):
            x = complex(rng.uniform(0.05, 0.95)
                        + rng.uniform(0.05, 0.95) * modulus.omega)
            a, b, residual = theta_symmetry_constants(basis, x)
            assert residual < 1e-8
            assert abs(b ** d - 1.0) < 1e-8
            # the constants are not just any unit: a is -1 and b is the
            # primitive root exp(-2 pi i / d)
            assert abs(a + 1.0) < 1e-8
            assert abs(b - np.exp(-2j * np.pi / d)) < 1e-8


def test_dlog_matches_finite_difference(modulus):
    basis = ThetaBasis(5, modulus)
    z = 0.17 + 0.29j
    h = 1e-6
    for m in range(5):
        numeric = (basis.eval(m, z + h) - basis.eval(m, z - h)) \
            / (2 * h * basis.eval(m, z))
        assert abs(basis.dlog(m, z) - numeric) < 1e-6 * max(1.0, abs(numeric))
