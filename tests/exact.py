"""Exact referee for the nonadiabatic Duan total, in ``fractions.Fraction``.

:func:`exact_total` evaluates the I_2/I_4 total of either pair at the floats
a route receives: each unit's (gamma, kappa, G, n_th) and the bath's N and
M are taken as exact rationals, ``e^{2r} = 2N + 1 + 2M`` and ``e^{-2r}`` its
reciprocal. The integrals are the table's own formulas over the polynomial
coefficients (James, Nichols & Phillips 1947; Astrom 1970, ch. 5), with no
regrouping, so that nothing here shares an op with the routes. The square
roots of gamma and kappa are exact where those are squares of dyadic
rationals, as squares of floats with at most 26 significant bits are, and
within 2^-200 relative otherwise. Standard library only.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_SQRT_BITS = 200


def exact_sqrt(x) -> Fraction:
    """sqrt(x) for a float or rational ``x >= 0``: exact for a square of a dyadic
    rational, else rounded down to ``2**-_SQRT_BITS`` relative."""
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    return Fraction(isqrt(n * d * 4**_SQRT_BITS), d * 2**_SQRT_BITS)


def _poly_mul(a, b):
    """Coefficients, lowest power first, of the product of two polynomials."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _i2(b, d):
    """1/pi times the integral over all w of |(b1 s + b0) / (s^2 + a1 s + a0)|^2 at s = iw."""
    (b0, b1), (a0, a1, _) = b, d
    return (b1 * b1 + b0 * b0 / a0) / a1


def _i4(b, a):
    """1/pi times the integral over all w of |B / A|^2 at s = iw, with B of degree 3 and
    A of degree 4, monic, both lowest power first."""
    c0, c1, c2, c3 = b
    a0, a1, a2, a3, _ = a
    h = a1 * a2 * a3 - a0 * a3 * a3 - a1 * a1
    return (c3 * c3 * (a1 * a2 - a0 * a3) + (c2 * c2 - 2 * c1 * c3) * a1
            + (c1 * c1 - 2 * c0 * c2) * a3 + c0 * c0 * (a2 * a3 - a1) / a0) / h


def exact_total(unit1, unit2, N, M, pair: str = "mirror") -> Fraction:
    """The exact nonadiabatic Duan total of ``pair`` at these floats.

    Each unit is ``(gamma, kappa, G, n_th)``. With ``d_j = s^2 + (gamma_j +
    kappa_j)/2 s + G_j^2 + gamma_j kappa_j / 4``, the mirrors' squeezed
    numerator is ``G_j sqrt(kappa_j)`` and their thermal one ``sqrt(gamma_j)
    (s + kappa_j / 2)``; the fields' are ``sqrt(kappa_j) (s + gamma_j / 2)``
    and ``G_j sqrt(gamma_j)``. The total is ``sum_j (2 n_th_j + 1) I_2(b_j) / 2
    + (e^{2r} I_4(a_1 - a_2) + e^{-2r} I_4(a_1 + a_2)) / 4``.
    """
    if pair not in ("mirror", "field"):
        raise ValueError(f"pair must be 'mirror' or 'field', got {pair!r}")
    total, squeezed, dens = Fraction(0), [], []
    for gamma, kappa, G, n_th in (unit1, unit2):
        gamma, kappa, G, n_th = map(Fraction, (gamma, kappa, G, n_th))
        sg, sk = exact_sqrt(gamma), exact_sqrt(kappa)
        d = [G * G + gamma * kappa / 4, (gamma + kappa) / 2, Fraction(1)]
        if pair == "mirror":
            a, b = [G * sk, Fraction(0)], [sg * kappa / 2, sg]
        else:
            a, b = [sk * gamma / 2, sk], [G * sg, Fraction(0)]
        total += (2 * n_th + 1) * _i2(b, d) / 2
        squeezed.append(a)
        dens.append(d)
    (a1, a2), (d1, d2) = squeezed, dens
    # a_1 -+ a_2 = (a_1 d_2 -+ a_2 d_1) / (d_1 d_2)
    A = _poly_mul(d1, d2)
    left, right = _poly_mul(a1, d2), _poly_mul(a2, d1)
    difference = [x - y for x, y in zip(left, right)]
    both = [x + y for x, y in zip(left, right)]
    e2r = 2 * Fraction(N) + 1 + 2 * Fraction(M)
    return total + (e2r * _i4(difference, A) + _i4(both, A) / e2r) / 4
