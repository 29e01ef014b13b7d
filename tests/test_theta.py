import numpy as np
import pytest

from sklab.theta import (CurveModulus, ThetaBasis, ThetaOverflowError,
                         _unit_nodes, reduce_to_cell,
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


# Cells (p, q) of z = z0 + p + q*omega, from the origin's to far ones.
CELLS = [(0, 0), (1, 0), (0, 1), (-2, 1), (3, -2), (-3, 3), (2, -3),
         (3, 3)]


def cell_overflows(d, omega, z):
    """The cell multiplier of z, common to every index, overflows a float:
    its exponent has real part pi d q (q Im omega + 2 Im z_red)."""
    z_red, _, q = reduce_to_cell(z, omega)
    expo = np.pi * d * q * (q * omega.imag + 2.0 * z_red.imag)
    return expo > np.log(np.finfo(float).max)


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.05j])
def test_values_at_matches_scalar_eval(omega):
    """All d series summed at once equal one scalar eval per index; where
    the cell multiplier overflows, both refuse instead of returning nan."""
    compared = 0
    for d in range(1, 31):
        basis = ThetaBasis(d, CurveModulus(omega))
        points = [0.0] + [0.13 + 0.21 * omega + p + q * omega
                          for p, q in CELLS]
        for z in points:
            if cell_overflows(d, omega, z):
                with pytest.raises(ThetaOverflowError, match=f"d={d}, q="):
                    basis.values_at(z)
                for m in range(d):
                    with pytest.raises(ThetaOverflowError):
                        basis.eval(m, z)
                continue
            want = np.array([basis.eval(m, z) for m in range(d)])
            got = basis.values_at(z)
            assert got.shape == (d,)
            assert np.all(np.isfinite(want))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            compared += 1
    assert compared >= 0.6 * 30 * (len(CELLS) + 1)


def test_overflow_error_names_d_q_exponent_and_bound():
    basis = ThetaBasis(9, CurveModulus(3j))
    with pytest.raises(ThetaOverflowError) as info:
        basis.eval(0, 0.1 + 9.2j)
    assert isinstance(info.value, ArithmeticError)
    message = ("theta value is not a finite float at d=9, q=3: "
               "cell exponent 797.3, bound 709.78")
    assert str(info.value) == message
    # among several z the message names the one that overflows
    with pytest.raises(ThetaOverflowError) as info:
        basis.eval(0, np.array([0.1 + 0.2j, 0.1 + 3.2j, 0.1 + 9.2j]))
    assert str(info.value) == message


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j])
def test_zero_count_is_d_for_every_index(omega):
    for d in range(1, 13):
        basis = ThetaBasis(d, CurveModulus(omega))
        assert [theta_zero_count(basis, m) for m in range(d)] == [d] * d


@pytest.mark.parametrize("n", [1, 7, 160, 320])
def test_unit_nodes_are_leggauss_on_unit_interval(n):
    t, weights = _unit_nodes(n)
    ref_t, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(t, 0.5 * (ref_t + 1.0))
    assert np.array_equal(weights, 0.5 * ref_weights)
    assert not t.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    assert _unit_nodes(n)[0] is t


def scalar_symmetry_fit(basis, x):
    """Reference fit: 2d scalar evals, as theta_symmetry_constants once did."""
    d = basis.d
    idx = np.arange(d)
    plus = np.array([basis.eval(i, x) for i in idx])
    minus = np.array([basis.eval(-i, -x) for i in idx])
    rho = minus / plus
    if d == 1:
        b, a = 1.0 + 0.0j, rho[0]
    else:
        b = complex(np.mean(rho[1:] / rho[:-1]))
        a = complex(np.mean(rho * b ** (-idx.astype(float))))
    residual = float(np.abs(minus - a * b ** idx * plus).max()
                     / np.abs(plus).max())
    return a, b, residual


def test_symmetry_constants_match_scalar_eval_fit(modulus, rng):
    for d in (1, 2, 3, 4, 5, 8, 12):
        basis = ThetaBasis(d, modulus)
        for _ in range(3):
            x = complex(rng.uniform(0.05, 0.95)
                        + rng.uniform(0.05, 0.95) * modulus.omega)
            got = theta_symmetry_constants(basis, x)
            want = scalar_symmetry_fit(basis, x)
            assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
        # theta_0 vanishes at 0: the fit is refused at every d
        with pytest.raises(ValueError):
            theta_symmetry_constants(basis, 0.0)


def test_symmetry_constants_refuse_torsion_points(modulus):
    w = modulus.omega
    # d = 1: min and max |theta| are one number, so only the lattice
    # test on d*x can refuse x = 0
    for x in (0.0, 1e-13, 1.0 + w):
        with pytest.raises(ValueError, match="from the lattice"):
            theta_symmetry_constants(ThetaBasis(1, modulus), x)
    # d*x = 1 + omega is a lattice point; theta_2 vanishes at x
    with pytest.raises(ValueError, match="from the lattice"):
        theta_symmetry_constants(ThetaBasis(3, modulus), (1 + w) / 3)
    # a point off the torsion points still fits
    theta_symmetry_constants(ThetaBasis(3, modulus), (1 + w) / 3 + 0.05)


@pytest.mark.parametrize("x", [complex("nan"), complex("inf"),
                               complex(0.1, float("-inf"))])
def test_symmetry_constants_refuse_non_finite_x(modulus, x):
    with pytest.raises(ValueError, match="x must be finite"):
        theta_symmetry_constants(ThetaBasis(3, modulus), x)
