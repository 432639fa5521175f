"""Block determinants, above the rank tables.

Determinants of multilinear blocks (every letter count 0 or 1) skip the
matrix: Varchenko's formula for the bilinear form of a hyperplane
configuration gives det Sh as a product of powers of 1 - q_S over subsets
S of the letters (multilinear_determinant). When that product is nonzero
the block has full rank. Every other block takes its rank from the
certified table route (growth.compute_blocks), so a singular block has
determinant 0 without its Sh matrix; only a full-rank block without a
closed form is built and eliminated, for the value, by functions called
through the shapovalov module, so that a tracer's patches of them hold.
"""

from __future__ import annotations

import itertools
from math import factorial, isqrt, prod

from . import shapovalov
from .growth import compute_blocks
from .scalars import (
    QT, _P_ONE, Poly, RatFunc, Record, _phi_terms, _synthetic_division,
    squarefree_cofactors)
from .words import DEFAULT_BLOCK_LIMIT, block_size, check_block_sizes


class DetReport(Record):
    """The determinant of one block, its cyclotomic factors (k, 1, mult)
    and the unfactored remainder."""

    __slots__ = _fields = ("multidegree", "size", "rank", "determinant",
                           "factors", "remainder")


def _varchenko_exponent(n, k):
    """Multiplicity of the factor of a k-letter subset in the determinant
    of a multilinear block of n letters."""
    return factorial(k - 2) * factorial(n - k + 1)


def _varchenko_factors(datum, deg):
    """Varchenko's product on a multilinear block (every letter count 0 or
    1) as {(top, bottom): exponent}: with n letters present, each subset S
    of them of k >= 2 letters gives 1 - q_S = top / bottom to the power
    (k-2)! (n-k+1)!, q_S the product of b_ij over the ordered pairs i != j
    in S, and equal factors add their exponents. Over QQ(t) top and bottom
    are integer Polys; over other fields bottom is one."""
    if any(d > 1 for d in deg):
        raise ValueError(f"multidegree {tuple(deg)} is not multilinear")
    b = datum.braiding_matrix
    qt = datum.field == QT
    one = _P_ONE if qt else datum.field.one()
    letters = [i for i, d in enumerate(deg) if d]
    n = len(letters)
    out = {}
    for k in range(2, n + 1):
        for subset in itertools.combinations(letters, k):
            q = [b[i][j] for i in subset for j in subset if i != j]
            if qt:
                bottom = prod((x.den for x in q), start=one)
                top = bottom - prod((x.num for x in q), start=one)
            else:
                bottom, top = one, one - prod(q, start=one)
            out[top, bottom] = (out.get((top, bottom), 0)
                                + _varchenko_exponent(n, k))
    return out


def _expand(closed, side, one):
    """The product of the tops (side 0) or bottoms (side 1) of Varchenko's
    factors, each to its exponent."""
    return prod((f[side] for f, e in closed.items() for _ in range(e)),
                start=one)


def multilinear_determinant(datum, deg):
    """Determinant of a multilinear block (every letter count 0 or 1) by
    Varchenko's formula for the bilinear form of a hyperplane configuration
    (Adv. Math. 97, 1993), without building the matrix: a scalar of the
    datum's field (a Fraction over QQ), zero when some q_S is 1. Over QQ(t)
    the tops and the bottoms multiply as integer polynomials into one
    RatFunc, which normalises once instead of after every factor.
    """
    return _closed_value(datum.field, _varchenko_factors(datum, deg))


def _closed_value(field, closed):
    """The scalar of field Varchenko's factors multiply to."""
    if not all(top for top, _ in closed):
        return field.zero()
    if field != QT:
        return _expand(closed, 0, field.one())
    return RatFunc(_expand(closed, 0, _P_ONE), _expand(closed, 1, _P_ONE))


def _small_totients(degree, bound):
    """(k, phi(k), primes of k) for every k <= bound with phi(k) <= degree,
    in ascending k. Each such k is a product of prime powers p**e with
    p - 1 <= degree, so they are built from the primes up to degree + 1,
    smallest prime first, stopping at the first prime that passes either
    limit: about 2 * degree of them, whatever the bound."""
    sieve = bytearray([1]) * (degree + 2)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(degree + 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, degree + 2, p)))
    primes = [p for p, live in enumerate(sieve) if live]
    out = []
    stack = [(1, 1, (), 0)] if min(bound, degree) >= 1 else []
    while stack:
        k, phi, factors, start = stack.pop()
        out.append((k, phi, factors))
        for i in range(start, len(primes)):
            p = primes[i]
            k_p, phi_p = k * p, phi * (p - 1)
            if k_p > bound or phi_p > degree:
                break
            while k_p <= bound and phi_p <= degree:
                stack.append((k_p, phi_p, factors + (p,), i + 1))
                k_p, phi_p = k_p * p, phi_p * p
    return sorted(out)


def _cyclotomic_at_2(k, primes):
    """Phi_k(2) = prod over d | k of (2**d - 1)**mu(k/d)."""
    top = bottom = 1
    for d, odd in squarefree_cofactors(k, primes):
        if odd:
            bottom *= (1 << d) - 1
        else:
            top *= (1 << d) - 1
    return top // bottom


def cyclotomic_factors(parts, bound):
    """Split Phi_k(t) for k up to bound off the product of the nonzero
    integer Polys of (Poly, multiplicity) parts, each searched on its own:
    ((k, 1, mult), ...) in ascending k, and what is left of the product.

    No Phi_k(t**j) with j >= 2 and k*j up to the bound is tried, since
    none can divide: it is squarefree, the product of the Phi_m with
    m | k*j, and each such m <= k*j has already been divided out. A
    candidate is skipped unbuilt when its degree phi(k) is above that of
    what is left of the part, or when Phi_k(2) does not divide the value of
    what is left at t = 2 (a divisor in ZZ[t] divides at every integer
    point; a value 0 rejects nothing). So a bound of a million tries only
    the k with phi(k) up to the part's degree, about twice that many, and
    divides by a few, each over its nonzero terms alone (scalars._phi_terms).
    """
    found = {}
    rest = _P_ONE
    for num, times in parts:
        coeffs = list(num.coeffs)
        at_2 = num.eval_at(2)
        for k, phi, primes in _small_totients(num.degree, bound):
            if phi >= len(coeffs):  # above the degree of what is left
                continue
            value = _cyclotomic_at_2(k, primes)
            while phi < len(coeffs) and not at_2 % value:
                rem = list(coeffs)
                _synthetic_division(rem, phi, 1, _phi_terms(k)[1])
                if any(rem[:phi]):
                    break
                coeffs, at_2 = rem[phi:], at_2 // value
                found[k] = found.get(k, 0) + times
        for _ in range(times):
            rest = rest * Poly(tuple(coeffs))
    return tuple((k, 1, found[k]) for k in sorted(found)), rest


def gram_determinant(datum, deg, factor_bound=24,
                     block_limit=DEFAULT_BLOCK_LIMIT):
    """Determinant of the block matrix, with cyclotomic factors split off.

    Elimination is symbolic over QQ(t), so intended for moderate blocks.
    Over QQ(t) the numerator is then probed by trial exact division against
    Phi_k(t) for k up to factor_bound (cyclotomic_factors), reported as
    (k, 1, mult), Phi_k(t**1). That finds every Phi_k(t**j) with k*j up to
    the bound that divides, since Phi_k(t**j) is a product of distinct Phi_m
    with m <= k*j. A closed form is searched by its factors 1 - q_S, unless
    its reduction cancelled more than powers of t (maybe a Phi_k). The
    unfactored remainder keeps whatever is left, including the denominator.
    """
    deg = tuple(deg)
    check_block_sizes([deg], block_limit)
    n = block_size(deg)
    closed = _varchenko_factors(datum, deg) if set(deg) <= {0, 1} else None
    det = None if closed is None else _closed_value(datum.field, closed)
    r = n
    if not det:
        r = compute_blocks(datum, [deg])[0].rank
        det = datum.field.zero()
        if r == n:
            det = shapovalov.determinant_by_elimination(
                shapovalov.symmetrizer(datum, deg, block_limit=None))[1]
    factors, remainder = (), det
    if datum.field == QT and det:
        parts, den = [(det.num, 1)], det.den
        if closed is not None:  # and det nonzero, so it is the closed form
            bottom = _expand(closed, 1, _P_ONE)
            if (bottom.degree - bottom.trailing_zeros()
                    == det.den.degree - det.den.trailing_zeros()):
                parts = [(top, e) for (top, _), e in closed.items()]
                den = bottom
        factors, rest = cyclotomic_factors(parts, factor_bound)
        remainder = RatFunc(rest, den)
    return DetReport(deg, n, r, det, factors, remainder)
