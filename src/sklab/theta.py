"""Theta functions of level d on a complex torus.

For a torus C/(Z + omega Z) with Im(omega) > 0 the functions implemented
here form a d-dimensional family theta_m, m in Z/dZ,

    theta_m(z) = sum_k exp( pi i d omega (k + m/d + 1/2)^2
                            + 2 pi i (k + m/d + 1/2) (d z + 1/2) ),

an eigenbasis for translation by 1/d.  The family satisfies, for every d,

    theta_m(z + 1/d) = -exp(2 pi i m / d) * theta_m(z)
    theta_m(z + omega) = -exp(-pi i d omega - 2 pi i d z) * theta_m(z)
    theta_{-m}(-z)    = -exp(-2 pi i m / d) * theta_m(z)

and each theta_m has exactly d zeros per fundamental cell.  Evaluation
reduces the argument to the fundamental cell first and then sums the
series adaptively, so values stay accurate (and finite) for any z a
moderate number of cells away from the origin; farther out, a value too
large for a float raises ThetaOverflowError instead of turning into nan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "CurveModulus",
    "ThetaBasis",
    "ThetaOverflowError",
    "reduce_to_cell",
    "theta_symmetry_constants",
    "theta_zero_count",
]

_TWO_PI_I = 2j * np.pi
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def reduce_to_cell(z, omega: complex):
    """Write z = z_red + p + q*omega with z_red in the centered unit cell.

    Works elementwise on arrays; p and q come back as int64 arrays.
    """
    z = np.asarray(z, dtype=complex)
    beta = z.imag / omega.imag
    q = np.rint(beta)
    p = np.rint(z.real - beta * omega.real)
    z_red = z - p - q * omega
    return z_red, p.astype(np.int64), q.astype(np.int64)


class ConvergenceError(RuntimeError):
    """Adaptive truncation, contour placement, or a constants fit failed."""


class ThetaOverflowError(ArithmeticError):
    """A theta value is too large for a float: z lies too many cells out."""


@dataclass(frozen=True)
class CurveModulus:
    """Lattice modulus omega of the torus C/(Z + omega Z), Im(omega) > 0."""

    omega: complex

    def __post_init__(self):
        w = complex(self.omega)
        if not np.isfinite(w.real) or not np.isfinite(w.imag):
            raise ValueError("omega must be finite")
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
    tail_eps : float, optional
        Relative truncation tolerance for the defining series.

    Notes
    -----
    Instances are immutable and safe to share between threads.  The index
    m is reduced mod d on entry, so ``eval(m + d, z) == eval(m, z)``
    exactly.
    """

    d: int
    modulus: CurveModulus
    tail_eps: float = 1e-14

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("level d must be >= 1")
        if not (0.0 < self.tail_eps < 1.0):
            raise ValueError("tail_eps must be in (0, 1)")

    @property
    def omega(self) -> complex:
        return self.modulus.omega

    def _from_cell(self, series, z_red, p, q):
        # theta_m(z_red + p + q*omega) =
        #   (-1)^(d p + q) exp(-pi i d omega q^2 - 2 pi i d q z_red) theta_m(z_red)
        # (independent of m); series holds theta_m(z_red).
        d = self.d
        sign = 1.0 - 2.0 * ((d * p + q) % 2)
        if not np.count_nonzero(q):
            return sign * series  # the exponential is exp(0) = 1
        with np.errstate(over="ignore", invalid="ignore"):
            vals = sign * np.exp(-1j * np.pi * d * self.omega * q * q
                                 - _TWO_PI_I * d * q * z_red) * series
        if not np.isfinite(vals).all():
            # real part of the exponent, per z; the largest overflows first
            expo = np.pi * d * q * (q * self.omega.imag + 2.0 * z_red.imag)
            j = np.argmax(expo)
            raise ThetaOverflowError(
                f"theta value is not a finite float at d={d}, q={q[j]}: "
                f"cell exponent {expo[j]:.1f}, bound {_LOG_FLOAT_MAX:.2f}")
        return vals

    # -- series --------------------------------------------------------------

    def _series(self, ms, z_red, want_deriv=False):
        """Sum the defining series: one row per index in ms, one column per
        reduced argument in z_red; each row passes its own truncation test."""
        d = self.d
        w = self.omega
        mu = (np.atleast_1d(ms)[:, None] % d) / d + 0.5
        lin = d * z_red + 0.5
        half_width = 3.0 + 6.0 / np.sqrt(np.pi * d * w.imag)
        cap = 16.0 * half_width + 64.0
        while True:
            # one window of k covering [-half_width, half_width] for every mu
            k = np.arange(np.ceil(-half_width - mu.max()),
                          np.floor(half_width - mu.min()) + 1)
            c = k + mu
            terms = np.exp(((1j * np.pi * d * w) * c * c)[:, None, :]
                           + _TWO_PI_I * (lin[:, None] * c[:, None, :]))
            total = terms.sum(axis=2)
            edge = np.maximum(np.abs(terms[..., 0]), np.abs(terms[..., -1]))
            if np.all(edge < self.tail_eps * np.abs(total)):
                break
            half_width *= 1.5
            if half_width > cap:
                raise ConvergenceError(
                    f"series truncation did not converge (d={d}, "
                    f"Im omega={w.imag:g})")
        if not want_deriv:
            return total
        return total, (terms * (_TWO_PI_I * d * c)[:, None, :]).sum(axis=2)

    # -- public evaluation ---------------------------------------------------

    def eval(self, m: int, z) -> complex:
        """Evaluate theta_m at z (scalar or array), index m taken mod d."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if not np.all(np.isfinite(z_arr)):
            raise ValueError("z must be finite")
        z_red, p, q = reduce_to_cell(z_arr, self.omega)
        vals = self._from_cell(self._series(m, z_red)[0], z_red, p, q)
        return vals[0] if np.isscalar(z) or np.ndim(z) == 0 else vals

    def values_at(self, z: complex) -> np.ndarray:
        """All d values theta_0(z), ..., theta_{d-1}(z) at a single point."""
        z_red, p, q = reduce_to_cell(np.asarray([complex(z)]), self.omega)
        return self._from_cell(self._series(np.arange(self.d), z_red)[:, 0],
                               z_red, p, q)

    def values_at_zero(self) -> np.ndarray:
        """The d values theta_m(0) with the exact zero at m = 0.

        The reflection identity theta_{-m}(-z) = -exp(-2 pi i m/d) theta_m(z)
        forces theta_0(0) = 0 identically.  Summing the series leaves rounding
        residue of order 1e-16 there instead, which matters to callers that
        divide by quantities vanishing at the same point, so this entry is
        pinned to exact zero.
        """
        vals = self.values_at(0.0)
        vals[0] = 0.0
        return vals

    def dlog(self, m: int, z) -> np.ndarray:
        """Logarithmic derivative theta_m'(z)/theta_m(z), vectorized in z."""
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        z_red, p, q = reduce_to_cell(z_arr, self.omega)
        total, deriv = self._series(m, z_red, want_deriv=True)
        vals = deriv[0] / total[0] - _TWO_PI_I * self.d * q
        return vals[0] if np.isscalar(z) or np.ndim(z) == 0 else vals


def theta_symmetry_constants(basis: ThetaBasis, x: complex,
                             zero_tol: float = 1e-9,
                             fit_tol: float = 1e-8):
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
        If x is not finite, if d*x lies within 1e-12 (1 + |omega|) of the
        lattice Z + Z omega (x is a d-torsion point, where some theta_i(x)
        vanishes exactly), or if some |theta_i(x)| is below zero_tol
        relative to the largest, i.e. x sits too close to a zero divisor of
        the identity.
    ConvergenceError
        If the fitted constants violate the identity or |b^d - 1| >= fit_tol.
    """
    d = basis.d
    if not np.isfinite(complex(x)):
        raise ValueError("x must be finite")
    dx_red, _, _ = reduce_to_cell(d * complex(x), basis.omega)
    dist = abs(complex(dx_red))
    bound = 1e-12 * (1.0 + abs(basis.omega))
    if dist < bound:
        raise ValueError(f"d*x is {dist:.3e} from the lattice Z + Z omega, "
                         f"below {bound:.3e}")
    idx = np.arange(d)
    plus = basis.values_at(x)
    minus = basis.values_at(-x)[(-idx) % d]
    scale = np.abs(plus).max()
    if scale == 0.0 or np.abs(plus).min() < zero_tol * scale:
        raise ValueError("x is too close to a theta zero for the fit")
    rho = minus / plus
    if d == 1:
        b = 1.0 + 0.0j
        a = rho[0]
    else:
        b = complex(np.mean(rho[1:] / rho[:-1]))
        a = complex(np.mean(rho * b ** (-idx.astype(float))))
    residual = float(np.abs(minus - a * b ** idx * plus).max() / scale)
    if residual >= fit_tol:
        raise ConvergenceError(
            f"symmetry fit residual {residual:.3e} exceeds {fit_tol:g}")
    if abs(b ** d - 1.0) >= fit_tol:
        raise ConvergenceError(
            f"|b^d - 1| = {abs(b ** d - 1.0):.3e} exceeds {fit_tol:g}")
    return a, b, residual


@functools.lru_cache(maxsize=16)
def _unit_nodes(n):
    """Gauss-Legendre nodes and weights on [0, 1]; cached, so read-only."""
    t, weights = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (t + 1.0), 0.5 * weights
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _winding(basis, m, base, n):
    w = basis.omega
    t, weights = _unit_nodes(n)
    pts = np.concatenate([base + t, base + 1.0 + t * w,
                          base + w + t, base + t * w])
    f = basis.dlog(m, pts)
    if not np.all(np.isfinite(f)):
        return None
    fb, fr, ft, fl = f.reshape(4, n)
    return weights @ (fb - ft + w * (fr - fl)) / _TWO_PI_I


def theta_zero_count(basis: ThetaBasis, m: int, nodes: int = 160,
                     max_retries: int = 8) -> int:
    """Count zeros of theta_m in a fundamental cell by contour integration.

    Integrates theta'/theta around a fundamental parallelogram with
    Gauss-Legendre quadrature on each edge.  The zeros of theta_m fill a
    single horizontal line per cell (d of them, spaced 1/d apart), so the
    contour is based half a lattice period below that line and 1/(2d) to
    the side of the nearest zero.  The winding number is accepted only if
    it is stable under doubling the node count and within 0.01 of an
    integer; otherwise the base is nudged sideways and the count retried.
    """
    d = basis.d
    height = ((-m) % d) / d
    base = 1.0 / (2.0 * d) + (height - 0.5) * basis.omega
    for attempt in range(max_retries):
        w1 = _winding(basis, m, base, nodes)
        w2 = _winding(basis, m, base, 2 * nodes)
        if w1 is not None and w2 is not None and abs(w2 - w1) < 1e-3:
            count = int(np.rint(w2.real))
            if abs(w2 - count) < 0.01:
                return count
        base += 0.37 / d
    raise ConvergenceError(
        f"no clean contour found for zero count after {max_retries} attempts")
