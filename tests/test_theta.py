import numpy as np
import pytest

from sklab import theta
from sklab.cli import FUNCTIONAL_EQ_TOL
from sklab.sklyanin import AlgebraParams, build_relations, sample_generic_x
from sklab.theta import (CurveModulus, DenominatorNearZero, ThetaBasis,
                         ThetaOverflowError, _panel_nodes, reduce_to_cell, theta_functional_residuals,
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


@pytest.mark.parametrize("omega", [complex("nan"), complex(0.2, float("inf"))])
def test_modulus_refusal_names_omega(omega):
    with pytest.raises(ValueError) as info:
        CurveModulus(omega)
    assert str(info.value) == f"omega must be finite, got {omega}"


@pytest.mark.parametrize("d", [0, -3])
def test_level_refusal_names_d(d, modulus):
    with pytest.raises(ValueError) as info:
        ThetaBasis(d, modulus)
    assert str(info.value) == f"level d must be >= 1, got {d}"


@pytest.mark.parametrize("value", [2.5, 2.0])
def test_level_must_be_an_integer(value, modulus):
    # a float level would sum d = 2.5 series and count 3 zeros for it
    with pytest.raises(TypeError) as info:
        ThetaBasis(value, modulus)
    assert str(info.value) == f"d must be an integer, got {value}"


@pytest.mark.parametrize("value, want", [(np.int64(5), 5), (True, 1)])
def test_level_is_stored_as_a_plain_int(value, want, modulus):
    basis = ThetaBasis(value, modulus)
    assert type(basis.d) is int and basis == ThetaBasis(want, modulus)
    assert np.array_equal(basis.values_at(0.1 + 0.2j),
                          ThetaBasis(want, modulus).values_at(0.1 + 0.2j))


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 25])
def test_functional_residuals_match_pointwise(d, modulus, rng):
    basis = ThetaBasis(d, modulus)
    omega = modulus.omega
    # repeated, unsorted and negative m (and m past d); z and z + omega up
    # to two cells out
    ms = [2 * d + 1, 0, -1, d - 1, 0, -d - 2, 1, 2 * d + 1] * 4
    zs = [complex(rng.uniform(-2.5, 2.5) + rng.uniform(-2.5, 1.5) * omega)
          for _ in ms]
    zs[1] = zs[4]
    got1, got2 = theta_functional_residuals(basis, ms, zs)
    # batching by index hands each point its own residuals: the same as
    # checking the points one at a time
    want1, want2 = np.array([theta_functional_residuals(basis, [m], [z])
                             for m, z in zip(ms, zs)])[:, :, 0].T
    assert got1.shape == got2.shape == (len(ms),)
    assert np.abs(got1 - want1).max() <= 1e-15
    assert np.abs(got2 - want2).max() <= 1e-15
    assert max(got1.max(), got2.max()) < 1e-10


def not_quasi_periodic(scaled_series):
    """_scaled_series for theta_m + 3 + z^2, in the same scaled form: a
    function with no quasi-periodicity at all."""
    def series(basis, m, z, want_deriv=False):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        scale, *rest = scaled_series(basis, m, z, want_deriv)
        unscale = np.exp(-scale)
        out = (scale, rest[0] + (3.0 + z * z) * unscale)
        return out + (rest[1] + 2.0 * z * unscale,) if want_deriv else out
    return series


@pytest.mark.parametrize("d", [3, 5, 7, 11, 21])
def test_zero_count_fails_on_a_series_that_is_not_quasi_periodic(
        d, modulus, monkeypatch):
    monkeypatch.setattr(theta, "_scaled_series",
                        not_quasi_periodic(theta._scaled_series))
    basis = ThetaBasis(d, modulus)
    counts = []
    for m in range(d):
        try:
            counts.append(theta_zero_count(basis, m))
        except theta.ConvergenceError:
            counts.append(None)
    assert counts != [d] * d


@pytest.mark.parametrize("d", [3, 5, 7])
def test_functional_residuals_fail_on_a_series_that_is_not_quasi_periodic(
        d, modulus, monkeypatch, rng):
    monkeypatch.setattr(theta, "_scaled_series",
                        not_quasi_periodic(theta._scaled_series))
    ms = rng.integers(0, d, 20)
    zs = rng.uniform(-1, 1, 20) + rng.uniform(-1, 1, 20) * modulus.omega
    res1, res2 = theta_functional_residuals(ThetaBasis(d, modulus), ms, zs)
    assert res1.max() > FUNCTIONAL_EQ_TOL
    assert res2.max() > FUNCTIONAL_EQ_TOL


@pytest.mark.parametrize("z", [complex("nan"), complex(0.1, float("inf"))])
def test_functional_residuals_refuse_non_finite_z(modulus, z):
    with pytest.raises(ValueError) as info:
        theta_functional_residuals(ThetaBasis(3, modulus), [0, 1],
                                   [0.1 + 0.2j, z])
    assert str(info.value) == f"z must be finite, got {z}"


@pytest.mark.parametrize("z", [complex("nan"), complex(0.1, float("inf")),
                               complex(float("-inf"), 0.2)])
@pytest.mark.parametrize("evaluate", [
    lambda basis, z: reduce_to_cell(z, basis.omega),
    lambda basis, z: basis.eval(1, z),
    lambda basis, z: basis.values_at(z),
    lambda basis, z: basis.dlog(1, z),
    lambda basis, z: basis.dlog(1, [0.1 + 0.2j, z]),
], ids=["reduce_to_cell", "eval", "values_at", "dlog", "dlog-array"])
def test_evaluators_refuse_non_finite_z(modulus, evaluate, z):
    # one check, in reduce_to_cell, before any series is summed: no numpy
    # warning (an error under this suite) and no truncation-window refusal;
    # the message names the point
    with pytest.raises(ValueError) as info:
        evaluate(ThetaBasis(3, modulus), z)
    assert str(info.value) == f"z must be finite, got {z}"


def test_index_wraps_mod_d(modulus):
    basis = ThetaBasis(5, modulus)
    z = 0.21 + 0.13j
    assert basis.eval(7, z) == basis.eval(2, z)
    assert basis.eval(-1, z) == basis.eval(4, z)


@pytest.mark.parametrize("d", [1, 5, 41])
def test_eval_over_indices_is_values_at(d, modulus):
    # indices broadcast against one point, as a ufunc's arguments do: one
    # value per index, bit for bit the value values_at gives, and one
    # logarithmic derivative per index, bit for bit its scalar call
    basis = ThetaBasis(d, modulus)
    idx = np.arange(d)
    for z in (0.13 + 0.21j, -0.37 + 1.42j, 1.9 - 0.6j):
        assert np.array_equal(basis.eval(idx, z), basis.values_at(z))
        got = basis.dlog(idx, z)
        assert got.shape == (d,)
        assert np.array_equal(got, [basis.dlog(m, z) for m in range(d)])


@pytest.mark.parametrize("z", [0.13 + 0.21j, np.complex128(0.13 + 0.21j),
                               np.array(0.13 + 0.21j)])
def test_scalar_eval_and_dlog_are_numpy_complex_scalars(z, modulus):
    # `theta eval` and the bench read .real and .imag of one value
    basis = ThetaBasis(5, modulus)
    for value in (basis.eval(2, z), basis.eval(np.int64(2), z),
                  basis.dlog(2, z)):
        assert type(value) is np.complex128


def test_functional_residuals_are_one_sum(modulus, monkeypatch, rng):
    # every (m, z) and both of its shifts in one kernel call, however many
    # distinct indices; each residual the one its (m, z) gives alone
    basis = ThetaBasis(41, modulus)
    ms = rng.integers(0, 41, 200)
    zs = rng.uniform(-1, 1, 200) + rng.uniform(-1, 1, 200) * modulus.omega
    assert len(set(ms.tolist())) > 30
    alone = np.array([theta_functional_residuals(basis, [m], [z])
                      for m, z in zip(ms, zs)])[..., 0]
    sums = []
    scaled_series = theta._scaled_series
    monkeypatch.setattr(theta, "_scaled_series",
                        lambda *args, **kwargs: sums.append(1)
                        or scaled_series(*args, **kwargs))
    res1, res2 = theta_functional_residuals(basis, ms, zs)
    assert len(sums) == 1
    assert np.array_equal(res1, alone[:, 0])
    assert np.array_equal(res2, alone[:, 1])


def test_functional_residuals_of_no_points_are_empty(modulus):
    res1, res2 = theta_functional_residuals(ThetaBasis(5, modulus), [], [])
    assert res1.shape == res2.shape == (0,)


def test_first_basis_function_vanishes_at_origin(modulus):
    for d in (3, 4, 5):
        basis = ThetaBasis(d, modulus)
        values = basis.values_at_zero()
        assert values[0] == 0.0
        assert all(abs(v) > 1e-3 for v in values[1:])


def test_values_at_zero_are_values_at_with_theta_0_pinned(modulus):
    # summed on every call, so each caller owns its array; bit-identical to
    # values_at(0) with the exact zero at m = 0
    basis = ThetaBasis(7, modulus)
    first = basis.values_at_zero()
    again = ThetaBasis(7, modulus).values_at_zero()
    assert again is not first and first.flags.writeable
    fresh = basis.values_at(0.0)
    fresh[0] = 0.0
    assert first.tobytes() == again.tobytes() == fresh.tobytes()


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


def leading_log_modulus(d, m, omega, z):
    """Log-modulus of the largest term of the defining series of theta_m at
    z, not reduced to the cell: the largest real part of
    pi i d omega c^2 + 2 pi i c (d z + 1/2), c = k + m/d + 1/2, over
    k in -20..20, which holds it for every point of CELLS."""
    c = np.arange(-20, 21) + (m % d) / d + 0.5
    return (-np.pi * d * c * (c * omega.imag + 2.0 * np.imag(z))).max()


def refused(d, m, omega, z):
    """theta_m(z) is refused: its leading term overflows a float."""
    return leading_log_modulus(d, m, omega, z) > np.log(np.finfo(float).max)


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.05j])
def test_values_at_matches_scalar_eval(omega):
    """All d series summed at once equal one scalar eval per index; where
    the leading term of a value overflows, both refuse instead of returning
    nan, and values_at refuses when one of its values does."""
    compared = 0
    for d in range(1, 31):
        basis = ThetaBasis(d, CurveModulus(omega))
        points = [0.0] + [0.13 + 0.21 * omega + p + q * omega
                          for p, q in CELLS]
        for z in points:
            out = [refused(d, m, omega, z) for m in range(d)]
            for m in np.flatnonzero(out):
                with pytest.raises(ThetaOverflowError,
                                   match=f"d={d}, m={m}: "):
                    basis.eval(m, z)
            if any(out):
                with pytest.raises(ThetaOverflowError, match=f"d={d}, m="):
                    basis.values_at(z)
                continue
            want = np.array([basis.eval(m, z) for m in range(d)])
            got = basis.values_at(z)
            assert got.shape == (d,)
            assert np.all(np.isfinite(want))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            compared += 1
    assert compared >= 0.6 * 30 * (len(CELLS) + 1)


def test_overflow_error_names_d_m_log_modulus_and_bound():
    basis = ThetaBasis(9, CurveModulus(3j))
    with pytest.raises(ThetaOverflowError) as info:
        basis.eval(0, 0.1 + 9.2j)
    assert isinstance(info.value, ArithmeticError)
    message = ("theta value is not a finite float at d=9, m=0: its leading "
               "term has log-modulus 781.8, above the bound 709.78")
    assert str(info.value) == message
    # among several z the message names the one that overflows
    with pytest.raises(ThetaOverflowError) as info:
        basis.eval(0, np.array([0.1 + 0.2j, 0.1 + 3.2j, 0.1 + 9.2j]))
    assert str(info.value) == message


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.3j])
def test_zero_count_is_d_for_every_index(omega):
    for d in (*range(1, 14), 21, 25, 41):
        basis = ThetaBasis(d, CurveModulus(omega))
        assert [theta_zero_count(basis, m) for m in range(d)] == [d] * d


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.3j])
@pytest.mark.parametrize("d", [101, 401, 1001])
def test_zero_count_and_residuals_at_large_d(d, omega):
    basis = ThetaBasis(d, CurveModulus(omega))
    assert [theta_zero_count(basis, m)
            for m in (0, 1, d // 2, d - 1)] == [d] * 4
    rng = np.random.default_rng(d)
    ms = rng.integers(0, d, 20)
    zs = rng.uniform(-1, 1, 20) + rng.uniform(-1, 1, 20) * omega
    res1, res2 = theta_functional_residuals(basis, ms, zs)
    assert max(res1.max(), res2.max()) < FUNCTIONAL_EQ_TOL


# theta_zero_count as it was before the count became one fixed rule: panels
# doubled from 1 up to 64 per edge until two estimates agreed, and up to 8
# placements nudged sideways, each rule built from one cached leggauss
# rule on [0, 1].  Kept as the oracle the fixed rule must match.

def leggauss_on_unit_interval(n):
    t, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * weights


def adaptive_panel_nodes(panels):
    t, weights = leggauss_on_unit_interval(theta.ZERO_COUNT_NODES)
    return (((np.arange(panels)[:, None] + t) / panels).ravel(),
            np.tile(weights / panels, panels))


def adaptive_winding(basis, m, base, panels):
    w = basis.omega
    t, weights = adaptive_panel_nodes(panels)
    pts = np.concatenate([base + t, base + 1.0 + t * w,
                          base + w + t, base + t * w])
    _, value, deriv = theta._scaled_series(basis, m, pts, want_deriv=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        fb, fr, ft, fl = (deriv / value).reshape(4, -1)
        return weights @ (fb - ft + w * (fr - fl)) / (2j * np.pi)


def adaptive_zero_count(basis, m):
    """The count, or None where the old search refused."""
    d = basis.d
    base = 1.0 / (2.0 * d) + (((-m) % d) / d - 0.5) * basis.omega
    for _ in range(8):
        panels, last = 1, adaptive_winding(basis, m, base, 1)
        while np.isfinite(last) and panels < 64:
            panels, prev = 2 * panels, last
            last = adaptive_winding(basis, m, base, panels)
            if abs(last - prev) < 1e-3:
                count = int(np.rint(last.real))
                if abs(last - count) < 0.01:
                    return count
                break
        base += 0.37 / d
    return None


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.3j, 0.2 + 0.05j])
def test_zero_count_matches_the_adaptive_search(omega):
    """The fixed rule on 1 and 2 panels counts what the old doubling and
    nudging search counted, at every index up to d = 41 and at four
    indices beyond, out to d = 1001."""
    for d in (*range(1, 14), 21, 41, 101, 401, 1001):
        basis = ThetaBasis(d, CurveModulus(omega))
        ms = range(d) if d <= 41 else (0, 1, d // 2, d - 1)
        want = [adaptive_zero_count(basis, m) for m in ms]
        assert want == [d] * len(ms), (d, omega)
        assert [theta_zero_count(basis, m) for m in ms] == want, (d, omega)


def test_zero_count_refusal_names_panels_and_estimates(monkeypatch):
    # estimates that disagree, and estimates that agree on no integer
    basis = ThetaBasis(5, CurveModulus(0.2 + 1.3j))
    for winding, broke in (
            (lambda panels: 0.01 * panels,
             "0.01 and 0.02, differ by 1e-3 or more"),
            (lambda panels: 2.5,
             "2.5 and 2.5, lie 0.01 or more from an integer")):
        monkeypatch.setattr(theta, "_windings",
                            lambda basis, m, base: (winding(1), winding(2)))
        with pytest.raises(theta.ConvergenceError) as info:
            theta_zero_count(basis, 7)
        assert str(info.value) == (
            f"zero count of theta_2 at d=5 did not settle: its estimates on "
            f"1 and 2 panels per edge, {broke}")


def test_zero_count_refuses_a_contour_through_zeros(monkeypatch):
    # a series that vanishes everywhere: both windings are not finite, and
    # no numpy warning escapes
    def vanishing(basis, m, z, want_deriv=False):
        scale, value, deriv = scaled_series(basis, m, z, want_deriv)
        return scale, 0.0 * value, deriv
    scaled_series = theta._scaled_series
    monkeypatch.setattr(theta, "_scaled_series", vanishing)
    with pytest.raises(theta.ConvergenceError,
                       match=r"^zero count of theta_2 at d=5 did not settle: "
                             r"its estimates on 1 and 2 panels per edge, "
                             r"nan\+nanj and nan\+nanj, differ by 1e-3 or "
                             r"more$"):
        theta_zero_count(ThetaBasis(5, CurveModulus(0.2 + 1.3j)), 2)


def test_zero_count_builds_one_rule(monkeypatch):
    # the ZERO_COUNT_NODES rule is built on 1 and 2 panels by the first
    # count and kept: later counts build no rule
    _panel_nodes.cache_clear()
    rules = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: rules.append(n) or leggauss(n))
    basis = ThetaBasis(5, CurveModulus(0.2 + 1.3j))
    assert [theta_zero_count(basis, m) for m in range(5)] == [5] * 5
    assert rules == [theta.ZERO_COUNT_NODES] * 2
    assert _panel_nodes.cache_info().misses == 2
    _panel_nodes.cache_clear()


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.05j])
def test_scaled_series_matches_eval(omega):
    """The unreduced series in scaled form is theta_m, and its derivative
    theta_m' / theta_m is dlog, in every cell the reduced path reaches.
    Reduction keeps d z small; the unreduced phases 2 pi c (d z) lose
    digits with |d z|, about 4e-13 at |d z| ~ 100."""
    for d in (1, 2, 3, 5, 8, 13, 21, 30):
        basis = ThetaBasis(d, CurveModulus(omega))
        cells = np.array([0.13 + 0.21 * omega + p + q * omega
                          for p, q in CELLS])
        for m in range(d):
            points = np.array([z for z in cells
                               if not refused(d, m, omega, z)])
            scale, value, deriv = theta._scaled_series(basis, m, points,
                                                       want_deriv=True)
            want = basis.eval(m, points)
            assert (np.abs(np.exp(scale) * value - want)
                    <= 1e-12 * np.abs(want)).all()
            want = basis.dlog(m, points)
            assert (np.abs(deriv / value - want)
                    <= 1e-12 * np.abs(want)).all()


@pytest.mark.parametrize("n", [1, 7, 160, 320])
def test_unit_nodes_are_leggauss_on_unit_interval(n):
    # on n panels, panel k holds the leggauss rule mapped onto [k/n,
    # (k+1)/n]
    t, weights = _panel_nodes(n)
    ref_t, ref_weights = np.polynomial.legendre.leggauss(
        theta.ZERO_COUNT_NODES)
    assert np.array_equal(t.reshape(n, -1),
                          (np.arange(n)[:, None] + 0.5 * (ref_t + 1.0)) / n)
    assert np.array_equal(weights.reshape(n, -1),
                          np.tile(0.5 * ref_weights / n, (n, 1)))
    assert not t.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    assert _panel_nodes(n)[0] is t


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


def test_symmetry_constants_match_scalar_eval_fit(rng):
    """The fit on the unreduced scaled series against the fit on reduced
    float values.  Measured: a, b and the residual agree to 4.9e-14 (d = 41,
    omega = 3i), over three x per (d, omega)."""
    for omega in (0.2 + 1.3j, 3j, 0.2 + 0.3j):
        for d in (*range(1, 14), 21, 25, 41):
            basis = ThetaBasis(d, CurveModulus(omega))
            for _ in range(3):
                x = complex(rng.uniform(0.05, 0.95)
                            + rng.uniform(0.05, 0.95) * omega)
                got = theta_symmetry_constants(basis, x)
                want = scalar_symmetry_fit(basis, x)
                assert all(abs(g - w) <= 1e-13 for g, w in zip(got, want))
            # theta_0 vanishes at 0: the fit is refused at every d
            with pytest.raises(ValueError):
                theta_symmetry_constants(basis, 0.0)


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.3j])
def test_symmetry_constants_at_d_1001(omega):
    # theta(x) at d = 1001 leaves the float range by hundreds of orders of
    # magnitude; its scaled form does not.  Measured residuals are at most
    # 1.8e-12, and a, b within 6.1e-13 of -1 and exp(-2 pi i / d)
    modulus = CurveModulus(omega)
    basis = ThetaBasis(1001, modulus)
    for seed in range(3):
        x = sample_generic_x(1001, modulus, np.random.default_rng(seed))
        a, b, residual = theta_symmetry_constants(basis, x)
        assert residual < 1e-11
        assert abs(a + 1.0) < 1e-11
        assert abs(b - np.exp(-2j * np.pi / 1001)) < 1e-11


def test_symmetry_constants_refuse_torsion_points(modulus):
    w = modulus.omega
    # d = 1: the only 1-torsion point is 0 mod the lattice
    for x in (0.0, 1e-13, 1.0 + w):
        with pytest.raises(ValueError, match="from the lattice"):
            theta_symmetry_constants(ThetaBasis(1, modulus), x)
    # d*x = 1 + omega is a lattice point; theta_2 vanishes at x
    with pytest.raises(ValueError, match="from the lattice"):
        theta_symmetry_constants(ThetaBasis(3, modulus), (1 + w) / 3)
    # a point off the torsion points still fits
    theta_symmetry_constants(ThetaBasis(3, modulus), (1 + w) / 3 + 0.05)


def test_symmetry_fit_and_relation_gate_refuse_the_same_x(modulus):
    # just inside and just outside each bound, near 0 and near
    # (1 + omega)/d, in the cell and one lattice step away
    w = modulus.omega
    for d in (1, 3, 5):
        basis = ThetaBasis(d, modulus)
        for p, bound in ((0.0, theta.TORSION_BOUND_AT_ZERO),
                         ((1 + w) / d, theta.TORSION_BOUND)):
            if d == 1 and p:
                continue
            for scale, refused in ((0.5, True), (2.0, False)):
                for shift in (0.0, 1.0 - w):
                    x = p + shift + scale * bound / d * (0.6 + 0.8j)
                    if not refused:
                        theta_symmetry_constants(basis, x)
                        build_relations(AlgebraParams(d, 1, x, modulus))
                        continue
                    with pytest.raises(DenominatorNearZero) as fit:
                        theta_symmetry_constants(basis, x)
                    with pytest.raises(DenominatorNearZero) as gate:
                        build_relations(AlgebraParams(d, 1, x, modulus))
                    assert str(fit.value) == str(gate.value)
                    assert f"below the bound {bound:g}" in str(fit.value)
                    assert fit.value.distance == pytest.approx(
                        scale * bound, rel=1e-6)


@pytest.mark.parametrize("x", [complex("nan"), complex("inf"),
                               complex(0.1, float("-inf"))])
def test_symmetry_constants_refuse_non_finite_x(modulus, x):
    with pytest.raises(ValueError) as info:
        theta_symmetry_constants(ThetaBasis(3, modulus), x)
    assert str(info.value) == f"x must be finite, got {x}"


def mp_theta(d, m, omega, z, mpmath):
    """theta_m(z) from the defining series, summed with mpmath."""
    w, z = mpmath.mpc(omega), mpmath.mpc(z)
    total = mpmath.mpc(0)
    for k in range(-12, 13):
        c = k + mpmath.mpf(m) / d + mpmath.mpf(1) / 2
        total += mpmath.exp(mpmath.pi * 1j * d * w * c * c
                            + 2 * mpmath.pi * 1j * c * (d * z + 0.5))
    return total


@pytest.mark.parametrize("d", [101, 1001])
def test_scaled_series_at_large_d_against_mpmath_series(d):
    """Past the reach of a float theta value, the scaled form is the series:
    theta_m(z) exp(-log_scale) summed with mpmath.  The exponents add
    terms up to 2 pi d |z| |c| in size, each rounded in floats where
    mpmath takes them exactly, so the bound grows like d (1 + |z|)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(d)
    for omega in (0.2 + 1.3j, 3j, 0.2 + 0.3j):
        basis = ThetaBasis(d, CurveModulus(omega))
        for _ in range(3):
            z = complex(rng.uniform(-1, 1) + rng.uniform(-1, 1) * omega)
            for m in (0, 1, d // 2, d - 1):
                scale, got = theta._scaled_series(basis, m, z)
                with mpmath.workdps(40):
                    want = complex(mp_theta(d, m, omega, z, mpmath)
                                   * mpmath.exp(-mpmath.mpc(scale)))
                assert abs(got - want) <= \
                    2e-15 * np.pi * d * (1.0 + abs(z)) * abs(want)


@pytest.mark.parametrize("d", [25, 41])
def test_values_at_large_d_against_mpmath_series(d, modulus):
    mpmath = pytest.importorskip("mpmath")
    basis = ThetaBasis(d, modulus)
    rng = np.random.default_rng(d)
    for _ in range(3):
        z = complex(rng.uniform(-0.5, 0.5)
                    + rng.uniform(-0.5, 0.5) * modulus.omega)
        got = basis.values_at(z)
        with mpmath.workdps(30):
            want = np.array([complex(mp_theta(d, m, modulus.omega, z,
                                              mpmath)) for m in range(d)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # each value to its own relative accuracy too, although at d = 41
        # they span 18 orders of magnitude: a small denominator is not an
        # inaccurate one
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-12


# The reduced path as it was before one kernel summed every theta value:
# ThetaBasis._series (one window of k for all indices, grown by 1.5, the
# edge test against the unscaled sum) and ThetaBasis._from_cell (the cell
# multiplier applied to the unscaled values), kept as the oracle the one
# kernel must match.

def two_window_series(basis, ms, z_red, want_deriv=False):
    d = basis.d
    w = basis.omega
    mu = (np.atleast_1d(ms)[:, None] % d) / d + 0.5
    lin = d * z_red + 0.5
    half_width = 3.0 + 6.0 / np.sqrt(np.pi * d * w.imag)
    while True:
        lo = np.ceil(-half_width - mu.max())
        size = int(np.floor(half_width - mu.min()) + 1 - lo)
        if size > theta.SERIES_WINDOW_MAX:
            raise theta.ConvergenceError(f"window of {size} terms")
        k = lo + np.arange(size)
        c = k + mu
        terms = np.exp(((1j * np.pi * d * w) * c * c)[:, None, :]
                       + 2j * np.pi * (lin[:, None] * c[:, None, :]))
        total = terms.sum(axis=2)
        edge = np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1]))
        if np.all(edge < theta.TAIL_EPS * np.abs(total)):
            break
        half_width *= 1.5
    if not want_deriv:
        return total
    return total, (terms * (2j * np.pi * d * c)[:, None, :]).sum(axis=2)


def two_window_from_cell(basis, series, z_red, p, q):
    d = basis.d
    sign = 1.0 - 2.0 * ((d * p + q) % 2)
    if not np.count_nonzero(q):
        return sign * series
    with np.errstate(over="ignore", invalid="ignore"):
        vals = sign * np.exp(-1j * np.pi * d * basis.omega * q * q
                             - 2j * np.pi * d * q * z_red) * series
    if not np.isfinite(vals).all():
        raise ThetaOverflowError("cell multiplier overflows")
    return vals


def two_window_values_at(basis, z):
    z_red, p, q = reduce_to_cell(np.asarray([complex(z)]), basis.omega)
    series = two_window_series(basis, np.arange(basis.d), z_red)[:, 0]
    return two_window_from_cell(basis, series, z_red, p, q)


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.05j])
def test_one_kernel_matches_the_two_window_path(omega):
    """values_at, and theta_m'(0) as the bracket rows read it, against the
    old path at every index, wherever the old path returns values.  Each
    value is compared to its own modulus (theta_0(0), an exact zero summed
    to rounding, is left out); theta_m'(0) vanishes at m = d/2, so each
    slope is compared to 2 pi d times its largest term.  Measured, over
    the three moduli: values 6.8e-13 (d = 301, omega = 0.2+0.05i,
    z = -0.11-0.17i), slopes 9.3e-15 (the same d and omega)."""
    shifts = [(0, 0), (1, 1), (-2, 1)]
    compared = 0
    for d in (*range(1, 14), 21, 41, 61, 101, 301):
        basis = ThetaBasis(d, CurveModulus(omega))
        idx = np.arange(d)
        points = [0.0, 0.11 + 0.17j, -0.11 - 0.17j] + [
            0.13 + 0.21 * omega + p + q * omega for p, q in shifts]
        for z in points:
            try:
                want = two_window_values_at(basis, z)
            except (ThetaOverflowError, theta.ConvergenceError):
                continue
            got = basis.values_at(z)
            kept = idx > 0 if z == 0 else idx >= 0
            assert (np.abs(got - want)[kept]
                    <= 1.5e-12 * np.abs(want)[kept]).all(), (d, z)
            compared += 1
        try:
            _, want = two_window_series(basis, idx, np.zeros(1), True)
        except theta.ConvergenceError:
            continue
        scale, _, deriv = theta._scaled_series(basis, idx[:, None],
                                               np.zeros(1), True)
        got = theta._unscale(basis, idx[:, None], scale, deriv)
        assert (np.abs(got - want)
                <= 2e-14 * 2 * np.pi * d * np.exp(scale.real)).all(), d
    assert compared >= 5 * 18


# The kernel as it was before its window came in closed form: a width of
# 3 + 6/sqrt(pi d Im omega) terms either side, grown by half until the edge
# terms of every sum fell below 1e-14 of it.  Kept as the oracle the closed
# form must match.

def adaptive_scaled_series(basis, ms, z, want_deriv=False):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    d, w = basis.d, basis.omega
    mu = np.asarray(ms)[..., None] % d / d + 0.5
    c0 = np.rint(-z.imag / w.imag - mu) + mu
    a = (2j * np.pi * d) * z + 1j * np.pi
    step = (2j * np.pi * d * w) * c0 + a
    log_scale = c0 * ((1j * np.pi * d * w) * c0 + a)
    half = int(3.0 + 6.0 / np.sqrt(np.pi * d * w.imag))
    while True:
        if 2 * half + 1 > theta.SERIES_WINDOW_MAX:
            raise theta.ConvergenceError(f"window of {2 * half + 1} terms")
        j = np.arange(-half, half + 1)
        terms = np.exp((1j * np.pi * d * w) * (j * j) + step[..., None] * j)
        value = terms.sum(axis=-1)
        edge = np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1]))
        if np.all(edge < 1e-14 * np.abs(value)):
            break
        half += half // 2 + 1
    if not want_deriv:
        return log_scale, value
    return log_scale, value, 2j * np.pi * d * (c0 * value + terms @ j)


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.05j])
def test_closed_form_window_matches_the_adaptive_kernel(omega):
    """Mantissas and derivatives of every index against the adaptive
    kernel, at 0, +-(0.11 + 0.17i) and 0.13 + 0.21 omega in every cell of
    CELLS.  The leading term is 1 in scaled form, so values are compared
    to 1 and derivatives to 2 pi d (|c0| + 1).  Measured, over the three
    moduli: values 5.0e-16 and derivatives 4.5e-16 (both d = 1,
    omega = 0.2+0.05i)."""
    for d in (*range(1, 14), 21, 41, 101, 301):
        basis = ThetaBasis(d, CurveModulus(omega))
        idx = np.arange(d)
        points = np.array([0.0, 0.11 + 0.17j, -0.11 - 0.17j] + [
            0.13 + 0.21 * omega + p + q * omega for p, q in CELLS])
        want_scale, want, want_deriv = adaptive_scaled_series(
            basis, idx, points, True)
        scale, value = theta._scaled_series(basis, idx[:, None], points)
        _, with_deriv, deriv = theta._scaled_series(basis, idx[:, None],
                                                    points, True)
        assert np.array_equal(scale, want_scale)
        assert np.abs(value - want).max() <= 1e-15, d
        assert np.abs(with_deriv - want).max() <= 1e-15, d
        mu = idx[:, None] / d + 0.5
        c0 = np.rint(-points.imag / omega.imag - mu) + mu
        assert (np.abs(deriv - want_deriv)
                <= 1e-15 * 2 * np.pi * d * (np.abs(c0) + 1)).all(), d


@pytest.mark.parametrize("omega", [0.2 + 1.3j, 3j, 0.2 + 0.3j, 0.2 + 0.05j])
def test_omitted_terms_are_below_tail_eps(omega):
    """Terms h+1 .. h+30 on either side of the window sum to at most
    TAIL_EPS of the leading term, and so do they times |j| for the wider
    window the derivative takes; at points drawn across cells, and at
    points halfway between two peaks, where the tail is largest."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 5, 8, 13, 21, 101, 1001):
        for weighted in (False, True):
            h = theta._half_width(d, omega, weighted)
            j = np.concatenate([np.arange(h + 1, h + 31),
                                -np.arange(h + 1, h + 31)])
            for _ in range(20):
                m = int(rng.integers(0, d))
                mu = m / d + 0.5
                z = complex(rng.uniform(-2, 2) + rng.uniform(-2, 2) * omega)
                for y in (z.imag, (0.5 - mu - 1e-9) * omega.imag):
                    c0 = np.rint(-y / omega.imag - mu) + mu
                    step = 2j * np.pi * d * (omega * c0 + z.real + 1j * y) \
                        + 1j * np.pi
                    terms = np.abs(np.exp(1j * np.pi * d * omega * j * j
                                          + step * j))
                    tail = (terms * np.abs(j)).sum() if weighted \
                        else terms.sum()
                    assert tail <= theta.TAIL_EPS, (d, m, y, weighted)


@pytest.mark.parametrize("im, message", [
    (1e-320, r"Im omega=9\.99989e-321 needs a window of \d+ terms"),
    (1e308, r"Im omega=1e\+308: 4 pi d Im omega overflows")])
def test_extreme_im_omega_is_refused_by_name(im, message):
    # a subnormal Im omega asks for a window far past the bound (its size
    # capped so it stays an int), and at 1e308 the exponents overflow:
    # theta_1(0) at d = 2 would read nan there
    basis = ThetaBasis(2, CurveModulus(complex(0.2, im)))
    with pytest.raises(theta.ConvergenceError,
                       match=f"^theta series at d=2, {message}"):
        basis.values_at(0.0)


def test_zero_count_sums_both_contours_in_one_call(monkeypatch):
    # one kernel call per count, bit-identical to one call per contour
    sums = []
    scaled_series = theta._scaled_series
    monkeypatch.setattr(theta, "_scaled_series",
                        lambda *args, **kwargs: sums.append(1)
                        or scaled_series(*args, **kwargs))
    for omega in (0.2 + 1.3j, 3j, 0.2 + 0.05j):
        for d in (1, 3, 8, 41):
            basis = ThetaBasis(d, CurveModulus(omega))
            for m in (0, 1, d - 1):
                base = 1.0 / (2.0 * d) + (((-m) % d) / d - 0.5) * omega
                sums.clear()
                got = theta._windings(basis, m, base)
                assert len(sums) == 1
                want = tuple(adaptive_winding(basis, m, base, panels)
                             for panels in (1, 2))
                assert np.array_equal(got, want), (d, m, omega)


def test_refusal_below_the_normal_doubles_names_index_and_log_modulus():
    # at d = 701 the leading terms of theta_m(0) at m = 1 and m = d - 1 fall
    # below the smallest normal double: the refusal names the first of
    # them and that quantity, not the series window
    basis = ThetaBasis(701, CurveModulus(0.2 + 1.3j))
    with pytest.raises(ThetaOverflowError) as info:
        basis.values_at_zero()
    message = str(info.value)
    assert message == ("theta value is not a normal float at d=701, m=1: its "
                       "leading term has log-modulus -711.7, below the bound "
                       "-708.40")
    assert "window" not in message
    assert isinstance(info.value, ArithmeticError)


def test_values_at_zero_pin_theta_0_before_the_range_check():
    # theta_0's leading term at 0 leaves the normal doubles from d = 694
    # at omega = 0.2+1.3i, but theta_0(0) is the exact zero and is not
    # range-checked; values at zero are returned until theta_1(0)'s leading
    # term leaves too, and that refusal names m = 1
    omega = 0.2 + 1.3j
    low = np.log(np.finfo(float).tiny)
    assert leading_log_modulus(694, 0, omega, 0.0) < low
    d = 694
    while leading_log_modulus(d, 1, omega, 0.0) >= low:
        values = ThetaBasis(d, CurveModulus(omega)).values_at_zero()
        assert values[0] == 0.0
        assert np.isfinite(values).all() and (values[1:] != 0.0).all()
        d += 1
    assert d == 698
    with pytest.raises(ThetaOverflowError,
                       match=f"^theta value is not a normal float at d={d}, "
                             f"m=1: "):
        ThetaBasis(d, CurveModulus(omega)).values_at_zero()


def test_value_small_near_a_zero_is_not_refused():
    # at d = 685 every leading term of theta_m near 0 is a normal double
    # (theta_0's is exp(-699.3)); theta_0 vanishes at 0, so its values there
    # and at z = 1e-10 are below the normal doubles, and are returned
    basis = ThetaBasis(685, CurveModulus(0.2 + 1.3j))
    tiny = np.finfo(float).tiny
    values = basis.values_at(0.0)
    assert abs(values[0]) < tiny <= np.abs(values[1:]).min()
    near, twice = basis.eval(0, 1e-10), basis.eval(0, 2e-10)
    assert 0.0 < abs(near) < tiny
    # a simple zero: the value is linear in z there
    assert abs(abs(twice) / abs(near) - 2.0) < 1e-6
    assert abs(basis.dlog(0, 1e-10) * 1e-10 - 1.0) < 1e-6
