"""Highest-weight modules for sl2 over QQ, as the classical mirror.

The graded machinery of this package - free algebra mapping onto the shuffle
algebra with the minimal quotient in between - runs parallel to the classical
triple of Verma module, its contragredient dual, and the simple quotient.
This module computes the classical side for sl2 so the two can be laid side
by side: pairing values on the standard basis F**k v of a Verma module of
highest weight lambda, and the dimension of the simple quotient, where the
first value vanishes.

The pairing values come from a genuine operator computation: E F**k v is
expanded by commuting E through one F at a time (E F = F E + H), not from a
closed formula. The dimension is read from the closed product, whose k-th
factor is k(lambda + 1 - k); the test suite checks it against a scan of the
computed values for small weights.
"""

from __future__ import annotations

from fractions import Fraction


def _e_on_f_powers(lam, k):
    """E F**i v for i = 1..k in the Verma module of highest weight lam,
    each built from the one before by the commutation
    E F**i = F (E F**(i-1)) + H F**(i-1), with E v = 0 and
    H F**j v = (lam - 2j) F**j v; yields dicts {j: coefficient} meaning
    sum_j coeff * F**j v."""
    vec = {}
    for i in range(1, k + 1):
        vec = {j + 1: c for j, c in vec.items()}
        h_eigen = lam - 2 * (i - 1)
        merged = vec.get(i - 1, Fraction(0)) + h_eigen
        if merged:
            vec[i - 1] = merged
        else:
            vec.pop(i - 1, None)
        yield vec


def e_action_on_f_power(lam, k):
    """E applied to F**k v in the Verma module of highest weight lam, as a
    dict {j: coefficient} meaning sum_j coeff * F**j v."""
    vec = {}
    for vec in _e_on_f_powers(Fraction(lam), k):
        pass
    return vec


def shapovalov_value(lam, k):
    """The pairing of F**k v with itself, normalized so k = 0 gives 1.

    Uses contravariance step by step: pairing(F**k v, F**k v) equals the
    coefficient of F**(k-1) v in E F**k v times the previous value.
    """
    return shapovalov_values(lam, k)[k]


def shapovalov_values(lam, kmax):
    """Pairing values for k = 0..kmax as a list."""
    out = [Fraction(1)]
    for i, vec in enumerate(_e_on_f_powers(Fraction(lam), kmax), start=1):
        out.append(out[-1] * vec.get(i - 1, Fraction(0)))
    return out


def dim_L(lam):
    """Dimension of the simple highest-weight module of weight lam.

    Each basis vector F**k v survives into the simple quotient precisely
    while the pairing values up to depth k are nonzero. The k-th value is
    the one before times k(lam + 1 - k), zero only at integer
    lam = k - 1 >= 0; so the dimension is lam + 1 when lam is a nonnegative
    integer, and infinite otherwise.
    """
    lam = Fraction(lam)
    if lam.denominator == 1 and lam >= 0:
        return lam.numerator + 1
    return float("inf")


def parallel_report(lam, depth=8):
    """Side-by-side summary of the classical and braided pictures.

    Graded dimensions are listed by depth k = 0..depth: the Verma module
    has a one-dimensional weight space at every depth, the simple quotient
    keeps those below dim_L(lam).
    """
    lam = Fraction(lam)
    values = shapovalov_values(lam, depth)
    d = dim_L(lam)
    simple_dims = [1 if (d == float("inf") or k < d) else 0
                   for k in range(depth + 1)]
    return {
        "highest_weight": str(lam),
        "depth": depth,
        "pairing_values": [str(v) for v in values],
        "verma_graded_dims": [1] * (depth + 1),
        "simple_graded_dims": simple_dims,
        "simple_dim": "infinite" if d == float("inf") else d,
        "first_vanishing": next(
            (k for k, v in enumerate(values) if k and v == 0), None),
        "correspondence": [
            {"classical": "Verma module (free over F)",
             "braided": "free braided algebra: one word per depth here"},
            {"classical": "contragredient dual of the Verma module",
             "braided": "shuffle algebra"},
            {"classical": "simple quotient, image of the pairing",
             "braided": "minimal quotient, image of the block matrices"},
            {"classical": "pairing value at depth k",
             "braided": "1x1 block determinant in single-letter degree k"},
        ],
    }
