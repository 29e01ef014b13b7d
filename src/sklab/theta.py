"""Theta functions of level d on a complex torus.

For a torus C/(Z + omega Z) with Im(omega) > 0 the functions implemented
here form a d-dimensional family theta_m, m in Z/dZ,

    theta_m(z) = sum_k exp( pi i d omega (k + m/d + 1/2)^2
                            + 2 pi i (k + m/d + 1/2) (d z + 1/2) ),

an eigenbasis for translation by 1/d.  The family satisfies, for every d,

    theta_m(z + 1/d) = -exp(2 pi i m / d) * theta_m(z)
    theta_m(z + omega) = -exp(-pi i d omega - 2 pi i d z) * theta_m(z)
    theta_{-m}(-z)    = -exp(-2 pi i m / d) * theta_m(z)

and each theta_m has exactly d zeros per fundamental cell.

One kernel, _scaled_series, sums the series for every value: at each
(m, z) over a window centred on its largest term, whose exponent it
returns as a log-scale beside a mantissa of modulus about 1, so the sum
overflows and underflows at no d.  The evaluators reduce z to the cell
first, since the unreduced phases lose digits as |d z| grows, and fold the
cell multiplier into the log-scale.  A value whose leading term leaves the
normal doubles (z many cells out, or theta_m(0) near m = 0 at d ~ 700)
raises ThetaOverflowError naming d, m, the log-modulus and the bound.

The checks of these facts, theta_functional_residuals and
theta_zero_count, do not reduce: reduction takes z and z + omega to one
cell point and one series, so the omega equation and the contour's
opposite edges would hold by construction, for any function of the cell.
They compare the scaled forms, so they test the series at every d.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "CurveModulus",
    "DenominatorNearZero",
    "ThetaBasis",
    "ThetaOverflowError",
    "reduce_to_cell",
    "theta_functional_residuals",
    "theta_symmetry_constants",
    "theta_zero_count",
    "torsion_gate",
]

_TWO_PI_I = 2j * np.pi
# logs of the smallest and largest normal doubles
_LOG_NORMAL = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)

# Relative truncation tolerance of the defining series, and the most terms
# of k one series window may hold (the window widens as d Im(omega) -> 0).
TAIL_EPS = 1e-14
SERIES_WINDOW_MAX = 512

# Bounds on d |x - p|, p the nearest d-torsion point, below which
# torsion_gate refuses x.  Near p = 0 the relations tend to the commutators
# (the classical limit samples x = h u there), so the bound is smaller.
TORSION_BOUND_AT_ZERO = 2e-7
TORSION_BOUND = 3e-5

# Fit tolerance of theta_symmetry_constants.
FIT_TOL = 1e-8

# Gauss-Legendre nodes per panel, the most panels per contour edge, and the
# contour placements tried, of theta_zero_count.
ZERO_COUNT_NODES = 16
ZERO_COUNT_PANELS_MAX = 64
ZERO_COUNT_TRIES = 8


def reduce_to_cell(z, omega: complex):
    """Write z = z_red + p + q*omega with z_red in the centered unit cell.

    Works elementwise on arrays; p and q come back as int64 arrays.
    ValueError is raised when z is not finite, and when |p| or |q| reaches
    2^53, where a float has no fractional part left to reduce.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]}")
    beta = z.imag / omega.imag
    q = np.rint(beta)
    p = np.rint(z.real - beta * omega.real)
    far = np.fmax(np.abs(p), np.abs(q))
    if far.max(initial=0.0) >= 2.0 ** 53:
        raise ValueError(f"cannot reduce z = {complex(z.flat[far.argmax()])} "
                         f"to the cell: it lies 2^53 or more cells out")
    z_red = z - p - q * omega
    return z_red, p.astype(np.int64), q.astype(np.int64)


class DenominatorNearZero(ValueError):
    """x is too close to a d-torsion point, where a denominator theta
    vanishes; move x."""

    def __init__(self, d: int, point, distance: float, bound: float):
        self.distance = distance
        super().__init__(
            f"x is near the {d}-torsion point p = ({point[0]} + {point[1]} "
            f"omega)/{d} mod the lattice: d*|x - p| = {distance:.2e}, the "
            f"distance of d*x from the lattice, is below the bound {bound:g}")


def torsion_gate(d: int, x: complex, omega: complex) -> None:
    """Refuse x near a d-torsion point p, by the distance d |x - p|.

    theta_m vanishes exactly at z = k/d - m omega/d (mod the lattice), so
    every theta_m(+-x) is nonzero unless x is a d-torsion point
    p = (P + Q omega)/d.  Reducing d x to the cell gives d x - P - Q omega,
    whose modulus is d |x - p| for the nearest p.  DenominatorNearZero is
    raised when that is below TORSION_BOUND_AT_ZERO for p = 0 mod the
    lattice (d divides P and Q), or below TORSION_BOUND for any other p;
    ValueError, naming x and d, when x is not finite or d x lies 2^53 or
    more cells out.  No theta value is computed.
    """
    x = complex(x)
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    try:
        y, p, q = reduce_to_cell(d * x, omega)
    except ValueError:
        raise ValueError(f"cannot reduce z = {x} times d = {d} to the cell: "
                         f"it lies 2^53 or more cells out") from None
    dist = abs(complex(y))
    point = (int(p) % d, int(q) % d)
    bound = TORSION_BOUND_AT_ZERO if point == (0, 0) else TORSION_BOUND
    if dist < bound:
        raise DenominatorNearZero(d, point, dist, bound)


def _integer(name: str, value) -> int:
    """value as a plain int; TypeError naming it otherwise (2.0 too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


class ConvergenceError(ArithmeticError):
    """Adaptive truncation, contour placement, or a constants fit failed."""


def _check_window(d: int, omega: complex, size: int) -> None:
    """Refuse a series window of more than SERIES_WINDOW_MAX terms."""
    if size > SERIES_WINDOW_MAX:
        raise ConvergenceError(
            f"theta series at d={d}, Im omega={omega.imag:g} needs a "
            f"window of {size} terms, above the bound "
            f"SERIES_WINDOW_MAX={SERIES_WINDOW_MAX}")


class ThetaOverflowError(ArithmeticError):
    """The leading term of a theta value leaves the normal doubles."""


@dataclass(frozen=True)
class CurveModulus:
    """Lattice modulus omega of the torus C/(Z + omega Z), Im(omega) > 0."""

    omega: complex

    def __post_init__(self):
        w = complex(self.omega)
        if not np.isfinite(w.real) or not np.isfinite(w.imag):
            raise ValueError(f"omega must be finite, got {w}")
        if w.imag <= 0.0:
            raise ValueError(f"Im(omega) must be positive, got {w.imag}")
        object.__setattr__(self, "omega", w)


@dataclass(frozen=True)
class ThetaBasis:
    """Evaluator for the d theta functions of level d at fixed modulus.

    Parameters
    ----------
    d : int
        Level; also the number of basis functions and of zeros per cell.
    modulus : CurveModulus
        The curve.

    Notes
    -----
    Instances are immutable and safe to share between threads.  The index
    m is reduced mod d on entry, so ``eval(m + d, z) == eval(m, z)``
    exactly.
    """

    d: int
    modulus: CurveModulus

    def __post_init__(self):
        object.__setattr__(self, "d", _integer("d", self.d))
        if self.d < 1:
            raise ValueError(f"level d must be >= 1, got {self.d}")

    @property
    def omega(self) -> complex:
        return self.modulus.omega

    def _from_cell(self, ms, z):
        """theta_m(z) for the indices ms against the 1-d array z, from the
        series at z reduced to the cell: the cell multiplier of
        theta_m(z_red + p + q omega) = (-1)^(d p + q) exp(-pi i d omega q^2
        - 2 pi i d q z_red) theta_m(z_red) joins its log-scale."""
        z_red, p, q = reduce_to_cell(z, self.omega)
        scale, value = _scaled_series(self, ms, z_red)
        if np.count_nonzero(p) or np.count_nonzero(q):
            scale = scale + 1j * np.pi * ((self.d * p + q) % 2 - self.d * q
                                          * (self.omega * q + 2.0 * z_red))
        return _unscale(self, ms, scale, value)

    # -- public evaluation ---------------------------------------------------

    def eval(self, m: int, z) -> complex:
        """Evaluate theta_m at z (scalar or array), index m taken mod d."""
        vals = self._from_cell(m, np.atleast_1d(z))
        return vals[0] if np.isscalar(z) or np.ndim(z) == 0 else vals

    def values_at(self, z: complex) -> np.ndarray:
        """All d values theta_0(z), ..., theta_{d-1}(z) at a single point."""
        return self._from_cell(np.arange(self.d), [complex(z)])[:, 0]

    def values_at_zero(self) -> np.ndarray:
        """The d values theta_m(0) with the exact zero at m = 0.

        The reflection identity theta_{-m}(-z) = -exp(-2 pi i m/d) theta_m(z)
        forces theta_0(0) = 0 identically.  Summing the series leaves rounding
        residue of order 1e-16 there instead, which matters to callers that
        divide by quantities vanishing at the same point, so this entry is
        pinned to exact zero.  The series are summed once per basis (equal
        bases share the result), which is returned read-only.
        """
        return _values_at_zero(self)

    def dlog(self, m: int, z) -> np.ndarray:
        """Logarithmic derivative theta_m'(z)/theta_m(z), vectorized in z."""
        z_red, _, q = reduce_to_cell(np.atleast_1d(z), self.omega)
        _, value, deriv = _scaled_series(self, m, z_red, want_deriv=True)
        vals = deriv / value - _TWO_PI_I * self.d * q
        return vals[0] if np.isscalar(z) or np.ndim(z) == 0 else vals


@functools.lru_cache(maxsize=64)
def _values_at_zero(basis: ThetaBasis) -> np.ndarray:
    """ThetaBasis.values_at_zero, cached per basis, so read-only."""
    vals = basis.values_at(0.0)
    vals[0] = 0.0
    vals.flags.writeable = False
    return vals


def theta_symmetry_constants(basis: ThetaBasis, x: complex):
    """Fit the constants of the reflection identity of the family.

    The basis satisfies theta_{-i}(-x) = a * b^i * theta_i(x) for constants
    a, b independent of i with b^d = 1.  The constants are recovered from
    the d value ratios by averaging consecutive quotients (b) and de-biased
    ratios (a), and the identity is then re-checked directly.

    Returns
    -------
    (a, b, residual) : complex, complex, float
        ``residual`` is max_i |theta_{-i}(-x) - a b^i theta_i(x)|
        normalized by max_i |theta_i(x)|.

    Raises
    ------
    ValueError
        If x is not finite, or DenominatorNearZero if torsion_gate refuses
        x (near a d-torsion point some theta_i(x) vanishes): the same test
        the relation builder applies.
    ConvergenceError
        If the fitted constants violate the identity or |b^d - 1| >= FIT_TOL.
    """
    d = basis.d
    torsion_gate(d, x, basis.omega)
    idx = np.arange(d)
    plus = basis.values_at(x)
    minus = basis.values_at(-x)[(-idx) % d]
    scale = np.abs(plus).max()
    rho = minus / plus
    if d == 1:
        b = 1.0 + 0.0j
        a = rho[0]
    else:
        b = complex(np.mean(rho[1:] / rho[:-1]))
        a = complex(np.mean(rho * b ** (-idx.astype(float))))
    residual = float(np.abs(minus - a * b ** idx * plus).max() / scale)
    if not residual < FIT_TOL:
        raise ConvergenceError(
            f"symmetry fit residual {residual:.3e} exceeds {FIT_TOL:g}")
    if abs(b ** d - 1.0) >= FIT_TOL:
        raise ConvergenceError(
            f"|b^d - 1| = {abs(b ** d - 1.0):.3e} exceeds {FIT_TOL:g}")
    return a, b, residual


def _scaled_series(basis: ThetaBasis, ms, z, want_deriv=False):
    """theta_m (and theta_m') in scaled form: the one sum of the series.

    ms is an index or an array of them, z a point or a 1-d array of points,
    not reduced; the outputs have shape np.shape(ms) + (len(z),).  Returns
    (log_scale, value[, deriv]), theta_m(z) = exp(log_scale) value and
    theta_m'(z) = exp(log_scale) deriv.  Each (m, z) sums over a window of
    k centred on its largest term, at k + m/d + 1/2 = -Im z / Im omega,
    whose exponent is log_scale, so no term exceeds 1 in modulus at any d
    or z.  The window grows by half until the edge terms of every sum are
    below TAIL_EPS times it (ConvergenceError past SERIES_WINDOW_MAX
    terms); ValueError if a z is not finite.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z[~np.isfinite(z)][0]}")
    d, w = basis.d, basis.omega
    mu = np.asarray(ms)[..., None] % d / d + 0.5
    c0 = np.rint(-z.imag / w.imag - mu) + mu
    # the exponent of term c is pi i d omega c^2 + c a, a = 2 pi i (d z +
    # 1/2); that of c0 + j, less that of c0, is pi i d omega j^2 + j step
    a = (_TWO_PI_I * d) * z + 1j * np.pi
    step = (_TWO_PI_I * d * w) * c0 + a
    log_scale = c0 * ((1j * np.pi * d * w) * c0 + a)
    half = int(3.0 + 6.0 / math.sqrt(np.pi * d * w.imag))
    while True:
        _check_window(d, w, 2 * half + 1)
        j = np.arange(-half, half + 1)
        terms = np.exp((1j * np.pi * d * w) * (j * j) + step[..., None] * j)
        value = terms.sum(axis=-1)
        edge = np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1]))
        if np.all(edge < TAIL_EPS * np.abs(value)):
            break
        half += half // 2 + 1
    if not want_deriv:
        return log_scale, value
    return log_scale, value, _TWO_PI_I * d * (c0 * value + terms @ j)


def _unscale(basis: ThetaBasis, ms, log_scale, value) -> np.ndarray:
    """exp(log_scale) value, from _scaled_series at the indices ms.

    ThetaOverflowError, naming d, m, the log-modulus and the bound, where a
    leading term exp(log_scale) lies outside the normal doubles; a value
    small only because z is near a zero of theta_m is not refused."""
    log_mod = log_scale.real
    low, high = _LOG_NORMAL
    if log_mod.min(initial=high) < low or log_mod.max(initial=low) > high:
        at = np.argmax(np.maximum(log_mod - high, low - log_mod))
        m = np.broadcast_to(np.asarray(ms)[..., None], log_mod.shape).flat[at]
        kind, side, bound = (("finite", "above", high) if log_mod.flat[at]
                             > high else ("normal", "below", low))
        raise ThetaOverflowError(
            f"theta value is not a {kind} float at d={basis.d}, "
            f"m={m % basis.d}: its leading term has log-modulus "
            f"{log_mod.flat[at]:.1f}, {side} the bound {bound:.2f}")
    return np.exp(log_scale) * value


def _relative_gap(lhs_scale, lhs, rhs_scale, rhs):
    """|L - R| / max(|L|, |R|, 1e-300) for L = exp(lhs_scale) lhs and
    R = exp(rhs_scale) rhs, with the larger real scale divided out."""
    top = np.maximum(lhs_scale.real, rhs_scale.real)
    lhs = np.exp(lhs_scale - top) * lhs
    rhs = np.exp(rhs_scale - top) * rhs
    return np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)


def theta_functional_residuals(basis: ThetaBasis, ms, zs):
    """Relative residuals (res1, res2) of the functional equations under
    z -> z + 1/d and z -> z + omega at each (m, z), |lhs - rhs| / max(|lhs|,
    |rhs|, 1e-300) with the phases of m as given; ValueError if a z is not
    finite.

    Both sides come from the unreduced series (_scaled_series), one call
    per distinct m for its points and both shifts, compared as mantissas
    once their log-scales are combined; theta_m at z + omega is its own sum.
    """
    d, omega = basis.d, basis.omega
    ms, zs = np.asarray(ms), np.asarray(zs, dtype=complex)
    res = np.empty((2, len(zs)))
    # a set, not np.unique: the latter imports numpy.ma on its first call
    for m in set(ms.tolist()):
        at = np.flatnonzero(ms == m)
        z = zs[at]
        scale, value = _scaled_series(
            basis, m, np.concatenate([z, z + 1.0 / d, z + omega]))
        (s, s1, s2), (v, v1, v2) = scale.reshape(3, -1), value.reshape(3, -1)
        # the multipliers -exp(2 pi i m/d) and -exp(-pi i d omega - 2 pi i
        # d z) of the right-hand sides join the log-scale of theta_m(z)
        res[0, at] = _relative_gap(s1, v1, s + _TWO_PI_I * m / d, -v)
        res[1, at] = _relative_gap(
            s2, v2, s - 1j * np.pi * d * omega - _TWO_PI_I * d * z, -v)
    return res[0], res[1]


@functools.lru_cache(maxsize=16)
def _unit_nodes(n):
    """Gauss-Legendre nodes and weights on [0, 1]; cached, so read-only."""
    t, weights = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (t + 1.0), 0.5 * weights
    for a in nodes:
        a.flags.writeable = False
    return nodes


@functools.lru_cache(maxsize=ZERO_COUNT_PANELS_MAX.bit_length())
def _panel_nodes(panels):
    """The ZERO_COUNT_NODES rule on each of `panels` equal pieces of [0, 1];
    cached, so read-only."""
    t, weights = _unit_nodes(ZERO_COUNT_NODES)
    nodes = (((np.arange(panels)[:, None] + t) / panels).ravel(),
             np.tile(weights / panels, panels))
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _winding(basis, m, base, panels):
    w = basis.omega
    t, weights = _panel_nodes(panels)
    pts = np.concatenate([base + t, base + 1.0 + t * w,
                          base + w + t, base + t * w])
    _, value, deriv = _scaled_series(basis, m, pts, want_deriv=True)
    # a zero on the contour leaves a winding that is not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        fb, fr, ft, fl = (deriv / value).reshape(4, -1)
        return weights @ (fb - ft + w * (fr - fl)) / _TWO_PI_I


def theta_zero_count(basis: ThetaBasis, m: int) -> int:
    """Count zeros of theta_m in a fundamental cell by contour integration.

    Integrates theta'/theta around a fundamental parallelogram with
    ZERO_COUNT_NODES-point Gauss-Legendre panels on each edge.  The zeros
    of theta_m fill a single horizontal line per cell (d of them, spaced
    1/d apart), so the contour is based half a lattice period below that
    line and 1/(2d) to the side of the nearest zero.  The panels per edge
    double from 1 until two successive estimates agree within 1e-3 (at
    most ZERO_COUNT_PANELS_MAX), and the count is accepted only within
    0.01 of an integer; otherwise the base is nudged sideways and the
    count retried, ConvergenceError after ZERO_COUNT_TRIES placements.

    theta'/theta comes from the unreduced series (_scaled_series) on all
    four edges, so opposite edges are independent sums and the count reads
    d only if the series is quasi-periodic.
    """
    d = basis.d
    height = ((-m) % d) / d
    base = 1.0 / (2.0 * d) + (height - 0.5) * basis.omega
    for attempt in range(ZERO_COUNT_TRIES):
        panels, prev, last = 1, np.nan, _winding(basis, m, base, 1)
        while np.isfinite(last) and panels < ZERO_COUNT_PANELS_MAX:
            panels, prev = 2 * panels, last
            last = _winding(basis, m, base, panels)
            if abs(last - prev) < 1e-3:
                count = int(np.rint(last.real))
                if abs(last - count) < 0.01:
                    return count
                break
        base += 0.37 / d
    raise ConvergenceError(
        f"no clean contour found for zero count after {ZERO_COUNT_TRIES} "
        f"attempts; the last reached {panels} panel(s) per edge, with "
        f"estimates {prev:.6g} and {last:.6g}")
