"""Exact coefficient arithmetic for the engine.

Three coefficient fields are supported, all with canonical internal forms so
that equal values compare equal structurally and render to identical strings:

* rational numbers, taken directly from ``fractions.Fraction``;
* rational functions QQ(t), stored as a reduced pair of integer-coefficient
  polynomials (``RatFunc``);
* cyclotomic fields QQ(zeta_N), stored as integer coordinate vectors modulo
  the N-th cyclotomic polynomial over one positive denominator
  (``Cyclotomic``); the denominator is 1 on Z[zeta_N], where +, - and *
  are int arithmetic, and an inverse is the product of the other Galois
  conjugates over the norm, an int.

One synthetic division on int coefficient lists (_synthetic_division)
serves exact quotients in ZZ[t], pseudo-remainders and reduction mod
Phi_N; so a value at zeta_N is a remainder mod Phi_N (specialize).

Every scalar supports +, -, *, ** with integer exponents (negative allowed
for invertible values), division, exact equality, hashing, and a falsy zero.
RatFunc and Cyclotomic share one protocol (_Scalar): each supplies _coerce,
which takes an int, a Fraction or a value of its own field to that field
(None for anything else), +, unary -, * and inverse, and the base derives
-, / and ** from those once. Python ints and Fractions mix freely with
RatFunc and Cyclotomic values, and a constant compares and hashes like its
Fraction; mixing the t-function field with a cyclotomic field raises
FieldMismatchError rather than guessing an embedding.

The field objects share one protocol too (_Field): equality and hashing by
the name tag, one() and zero() as coerce(1) and coerce(0), and render(s) as
str(coerce(s)), the form parse reads back. A field's coerce is its scalars'
_coerce (QQ's also takes a constant RatFunc to its Fraction), raising
FieldMismatchError for anything else; coerce copies no field value.

Record is the immutable base of the package's value types (Poly, RatFunc,
Datum, the block and report types): fields named once, equality, hashing
and a repr over them, and assignment refused.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd as _int_gcd, lcm, log2, prod


class FieldMismatchError(TypeError):
    """Raised when scalars from incompatible fields meet in one operation."""


class ScalarParseError(ValueError):
    """Raised when a scalar literal does not match the grammar."""


class SpecializationPoleError(ArithmeticError):
    """Raised when a rational function has a pole at the requested root of unity."""


# ---------------------------------------------------------------------------
# bases: immutable records, and the field scalars' shared operations

# records set their fields past their own __setattr__, which refuses
_setattr = object.__setattr__


class Record:
    """Immutable record over the names in _fields, built from positional or
    keyword values, with _defaults for the fields left out. Equality, hashing
    and the repr read every field but those in _hidden, a record of the run
    rather than of the value. A subclass sets __slots__ = _fields, or leaves
    __slots__ out to keep an instance __dict__ (for cached_property)."""

    __slots__ = ()
    _fields = ()
    _defaults = {}
    _hidden = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if (len(args) > len(names) or not given.keys().isdisjoint(kwargs)
                or values.keys() != set(names)):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            _setattr(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple(getattr(self, n) for n in self._fields
                     if n not in self._hidden)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields
                          if n not in self._hidden)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)


class _Scalar:
    """The operations every field scalar derives from its subclass's
    _coerce, +, unary -, * and inverse. The subclasses keep their own
    +, *, their reflected aliases, truth, equality and hashing, which the
    symmetrizer and elimination call on every entry."""

    __slots__ = ()

    def is_zero(self):
        return not self

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return self.inverse() * other  # an int numerator only scales

    def power(self, n, digits=0):
        """self ** n by repeated squaring. Given digits (Cyclotomic values
        only), None as soon as a coordinate or the denominator of a partial
        power or square has more than digits digits."""
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        base = self
        if n < 0:
            base, n = self.inverse(), -n
        out = self._coerce(1)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            base = base * base if n else base
            if digits and max(out.den, base.den, *map(
                    abs, out.num + base.num)) >= 10 ** digits:
                return None
        return out

    __pow__ = power


# ---------------------------------------------------------------------------
# integer-coefficient polynomials


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _lower_terms(coeffs):
    """The nonzero terms of a polynomial below its leading one, as (i, c)
    pairs: the divisor form _synthetic_division takes."""
    return [(i, c) for i, c in enumerate(coeffs[:-1]) if c]


def _synthetic_division(coeffs, degree, lead, terms):
    """Divide the int list coeffs in place by lead * t**degree plus the
    (i, c) terms below it: coeffs[:degree] becomes the remainder and
    coeffs[degree:] the quotient. False, coeffs part-way, when a lead
    other than 1 does not divide a quotient coefficient."""
    for top in range(len(coeffs) - 1, degree - 1, -1):
        f = coeffs[top]
        if f:
            if lead != 1:
                f, r = divmod(f, lead)
                if r:
                    return False
                coeffs[top] = f
            base = top - degree
            for i, c in terms:
                if c == 1:
                    coeffs[base + i] -= f
                elif c == -1:
                    coeffs[base + i] += f
                else:
                    coeffs[base + i] -= f * c
    return True


class Poly(Record):
    """Polynomial in t over the integers, coefficients ascending, trimmed.

    The zero polynomial is the empty tuple and has degree -1.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        if not isinstance(coeffs, tuple) or (coeffs and not coeffs[-1]):
            coeffs = _trim(tuple(coeffs))
        _setattr(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is Poly:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    @classmethod
    def const(cls, n):
        return cls((int(n),))

    @classmethod
    def monomial(cls, coeff, exp):
        if exp < 0:
            raise ValueError("Poly exponents must be nonnegative")
        return cls((0,) * exp + (int(coeff),))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(tuple(out))

    @property
    def content(self):
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, c)
        return g

    def primitive_part(self):
        c = self.content
        if c in (0, 1):
            return self
        return Poly(tuple(x // c for x in self.coeffs))

    def trailing_zeros(self):
        k = 0
        for c in self.coeffs:
            if c:
                break
            k += 1
        return k

    def exact_div(self, other):
        """Exact quotient in ZZ[t]; raises ValueError when not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dd = other.degree
        rem = list(self.coeffs)
        if not _synthetic_division(rem, dd, other.lc, _lower_terms(
                other.coeffs)) or any(rem[:dd]):
            raise ValueError("not divisible")
        return Poly(tuple(rem[dd:]))

    def divides(self, other):
        try:
            other.exact_div(self)
        except ValueError:
            return False
        return True

    def eval_at(self, x):
        """Horner evaluation; x may be any scalar with * and +."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return poly_str(self.coeffs)

    __repr__ = __str__


_P_ZERO = Poly(())
_P_ONE = Poly((1,))


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b over ZZ[t]: lc(b)**k * a mod b, with
    k = deg a - deg b + 1 (0 below deg b), which makes the division exact."""
    dd = b.degree
    scale = b.lc ** max(a.degree - dd + 1, 0)
    rem = [c * scale for c in a.coeffs]
    _synthetic_division(rem, dd, b.lc, _lower_terms(b.coeffs))
    return Poly(tuple(rem[:dd]))


def poly_gcd(a, b):
    """Primitive gcd in ZZ[t] with positive leading coefficient.

    Runs the primitive polynomial remainder sequence, so contents never
    accumulate; gcd of the contents is intentionally not included.
    """
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, _pseudo_rem(a, b).primitive_part()
    if a.lc < 0:
        a = -a
    return a


def squarefree_cofactors(n, primes):
    """(d, odd) for each divisor d of n with n/d squarefree, given n's
    distinct primes: n/d is a product of some of them, and odd says
    mu(n/d) = -1. These are the only d in Moebius sums over d | n."""
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            yield n // prod(subset), r % 2


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial as an integer Poly.

    For n > 1, Phi_n(t) = prod over d | n of (1 - t**d)**mu(n/d), a power
    series that is a polynomial of degree phi(n); so it is built cut above
    that degree, one pass per squarefree n/d, multiplying by 1 - t**d or
    dividing by it (a running sum). A pass with d above phi(n) changes
    nothing and is skipped.

    >>> str(cyclotomic_polynomial(4))
    't^2 + 1'
    >>> str(cyclotomic_polynomial(6))
    't^2 - t + 1'
    """
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return Poly((-1, 1))
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    phi = n
    for p in primes:
        phi = phi // p * (p - 1)
    c = [1] + [0] * phi
    for d, odd in squarefree_cofactors(n, primes):
        if d > phi:
            continue
        if odd:
            for i in range(d, phi + 1):
                c[i] += c[i - d]
        else:
            for i in range(phi, d - 1, -1):
                c[i] -= c[i - d]
    return Poly(tuple(c))


# ---------------------------------------------------------------------------
# rational functions over QQ, canonical reduced pairs in ZZ[t]


def _canonical_pair(num, den):
    """Reduce to the unique form: coprime in QQ[t], coprime integer contents,
    positive leading coefficient on the denominator."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return _P_ZERO, _P_ONE
    k = min(num.trailing_zeros(), den.trailing_zeros())
    if k:
        num = Poly(num.coeffs[k:])
        den = Poly(den.coeffs[k:])
    cn = num.content
    cd = den.content
    c = _int_gcd(cn, cd)
    if c > 1:
        num = Poly(tuple(x // c for x in num.coeffs))
        den = Poly(tuple(x // c for x in den.coeffs))
    # after the strip a monomial c*t**d (d > 0) faces a nonzero constant
    # term, so only two non-monomials can share a factor
    if any(num.coeffs[:-1]) and any(den.coeffs[:-1]):
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
    if den.lc < 0:
        num, den = -num, -den
    return num, den


class RatFunc(_Scalar, Record):
    """Element of QQ(t) in canonical reduced form."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num=_P_ZERO, den=_P_ONE):
        if den.coeffs != (1,):
            num, den = _canonical_pair(num, den)
        _setattr(self, "num", num)
        _setattr(self, "den", den)

    @classmethod
    def const(cls, q):
        q = Fraction(q)
        return cls(Poly.const(q.numerator), Poly.const(q.denominator))

    @classmethod
    def t_power(cls, k):
        """The Laurent monomial t**k for any integer k."""
        if k >= 0:
            return cls(Poly.monomial(1, k), _P_ONE)
        return cls(_P_ONE, Poly.monomial(1, -k))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        if isinstance(x, Cyclotomic):
            raise FieldMismatchError(
                "cannot mix rational functions in t with cyclotomic values")
        return None

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.coeffs == (1,) == o.den.coeffs:
            return RatFunc(self.num + o.num, _P_ONE)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("zero rational function has no inverse")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.num.degree <= 0 and self.den.degree <= 0:
            return hash(Fraction(self.num.lc, self.den.lc or 1))
        return hash((self.num.coeffs, self.den.coeffs))

    def as_fraction(self):
        """The value as a Fraction when it is constant, else None."""
        if self.num.degree <= 0 and self.den.degree <= 0:
            return Fraction(self.num.lc, self.den.lc)
        return None

    def __str__(self):
        return render_ratfunc(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# cyclotomic fields, integer coordinates modulo Phi_N


@functools.lru_cache(maxsize=None)
def _phi_terms(n):
    """(phi(n), the nonzero terms of Phi_n below its leading 1): Phi_n as
    the monic divisor _synthetic_division takes."""
    coeffs = cyclotomic_polynomial(n).coeffs
    return len(coeffs) - 1, tuple(_lower_terms(coeffs))


def _mod_phi(coeffs, n):
    """The phi(n) coordinates of an int coefficient list of any length
    modulo Phi_n, the list taken as scratch."""
    d, terms = _phi_terms(n)
    coeffs += [0] * (d - len(coeffs))
    _synthetic_division(coeffs, d, 1, terms)
    return tuple(coeffs[:d])


class Cyclotomic(_Scalar, Record):
    """Element of QQ(zeta_N) as num / den, in the power basis of zeta.

    num holds the phi(N) int coordinates of 1, zeta, ..., zeta**(phi(N)-1)
    and den is a positive int prime to their content, so each value has
    one form. den is 1 on Z[zeta_N], which holds every specialized preset,
    and since Phi_N is monic, +, -, * and truth tests are int arithmetic;
    an int factor only scales num. The inverse is int arithmetic as well:
    the other Galois conjugates of num over their product with num, the
    norm, an int. coords is the Fraction view that rendering reads.
    """

    __slots__ = _fields = ("order", "num", "den")

    def __init__(self, order, num, den=1):
        """num: phi(order) int coordinates, already reduced; den > 0."""
        if den != 1:
            g = _int_gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        _setattr(self, "order", order)
        _setattr(self, "num", num)
        _setattr(self, "den", den)

    @classmethod
    def of(cls, order, coeffs):
        """sum(coeffs[k] * zeta**k) for int or Fraction coeffs of any length."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in fracs])
        return cls(order, _mod_phi(
            [c.numerator * (den // c.denominator) for c in fracs], order), den)

    @classmethod
    def zeta(cls, order):
        return cls.of(order, [0, 1])

    @classmethod
    def const(cls, order, q):
        return cls.of(order, [q])

    @property
    def coords(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def _coerce(self, x):
        if isinstance(x, Cyclotomic):
            if x.order != self.order:
                raise FieldMismatchError(
                    f"cannot mix cyclotomic orders {self.order} and {x.order}")
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(self.order,
                              (x.numerator,) + (0,) * (len(self.num) - 1),
                              x.denominator)
        if isinstance(x, RatFunc):
            raise FieldMismatchError(
                "cannot mix cyclotomic values with rational functions in t")
        return None

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2 == 1:
            return Cyclotomic(self.order,
                              tuple(a + b for a, b in zip(self.num, o.num)))
        return Cyclotomic(
            self.order,
            tuple(a * d2 + b * d1 for a, b in zip(self.num, o.num)), d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return Cyclotomic(self.order, tuple(a * other for a in self.num),
                              self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        out = [0] * (2 * len(a) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return Cyclotomic(self.order, _mod_phi(out, self.order),
                          self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """1 / self by the Galois norm: adj, the product of the conjugates
        sigma_k(num) (zeta -> zeta**k) over the units k != 1 mod N, makes
        num * adj = N(num) an int, so 1 / self = den * adj / N(num). A
        rational value inverts as a rational, with no conjugate taken."""
        if self.is_zero():
            raise ZeroDivisionError("zero cyclotomic value has no inverse")
        order, num = self.order, self.num
        if not any(num[1:]):
            return self._coerce(Fraction(self.den, num[0]))
        adj = self._coerce(1)
        for k in range(2, order):
            if _int_gcd(k, order) == 1:
                conj = [0] * order
                for i, a in enumerate(num):
                    conj[i * k % order] = a
                adj = adj * Cyclotomic(order, _mod_phi(conj, order))
        norm = (adj * Cyclotomic(order, num)).num
        if any(norm[1:]):
            raise ArithmeticError("cyclotomic norm is not rational")
        scale = self.den if norm[0] > 0 else -self.den
        return Cyclotomic(order, tuple(a * scale for a in adj.num),
                          abs(norm[0]))

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return (self.order == other.order and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            # both sides are in lowest terms
            return (self.num[0] == other.numerator
                    and self.den == other.denominator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __str__(self):
        return poly_str(self.coords)

    __repr__ = __str__


def specialize(f, n):
    """Evaluate a RatFunc at t = zeta_n inside QQ(zeta_n): num and den
    mod Phi_n, after den's factor t**j moves up as zeta**(-j mod n). Only a
    non-constant remainder of den is inverted, so a Laurent monomial
    point costs no Galois norm.

    Raises SpecializationPoleError when the denominator vanishes there,
    which happens exactly when Phi_n divides it.
    """
    j = f.den.trailing_zeros()
    den = _mod_phi(list(f.den.coeffs[j:]), n)  # ValueError for n < 1
    if not any(den):
        raise SpecializationPoleError(
            f"pole at t = zeta_{n}: denominator is divisible by Phi_{n}")
    num = _mod_phi([0] * (-j % n) + list(f.num.coeffs), n)
    if any(den[1:]):
        return Cyclotomic(n, num) / Cyclotomic(n, den)
    value = Cyclotomic(n, num, abs(den[0]))
    return value if den[0] > 0 else -value


# ---------------------------------------------------------------------------
# rendering


def _coeff_str(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def poly_str(coeffs):
    """Render ascending coefficients as a human-readable polynomial in t.

    The output reparses to the same value: explicit '*', '^' for powers.

    >>> poly_str((1, 0, -2, 1))
    't^3 - 2*t^2 + 1'
    """
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = _coeff_str(mag)
        else:
            pw = "t" if k == 1 else f"t^{k}"
            body = pw if mag == 1 else f"{_coeff_str(mag)}*{pw}"
        if not terms:
            terms.append(f"-{body}" if neg else body)
        else:
            terms.append(f" - {body}" if neg else f" + {body}")
    return "".join(terms) if terms else "0"


def render_ratfunc(f):
    num, den = f.num, f.den
    if den.coeffs == (1,):
        return poly_str(num.coeffs)
    nz = den.trailing_zeros()
    if den.coeffs == (0,) * nz + (1,):
        # pure power of t below the line; canonical form puts no shared
        # power of t above it, so the merged exponent k - nz is negative
        if len([c for c in num.coeffs if c]) == 1:
            k = num.trailing_zeros()
            c = num.coeffs[k]
            pw = f"t^{k - nz}"
            if c == 1:
                return pw
            if c == -1:
                return f"-{pw}"
            return f"{c}*{pw}"
        return f"({poly_str(num.coeffs)})/t^{nz}" if nz != 1 else f"({poly_str(num.coeffs)})/t"
    return f"({poly_str(num.coeffs)})/({poly_str(den.coeffs)})"


def too_long():
    """The end of an error for a value with an integer too long to write."""
    return (f"holds an integer of more than {sys.get_int_max_str_digits()} "
            f"digits, the interpreter's limit for writing one out")


def power_too_long(base, n):
    """Why base ** n (base an int, a Fraction or a RatFunc) could not be
    written out, or None; decided before the power is taken, which could
    take hours. With limit = sys.get_int_max_str_digits() (0: no limit), it
    is refused when the n-th power of a leading coefficient of base has
    more than limit digits, and when its degree in t passes limit. A
    Cyclotomic power is bounded as it is taken (power, Datum.q_matrix)."""
    limit = sys.get_int_max_str_digits()
    if isinstance(base, (int, Fraction)):
        base = RatFunc.const(base)
    if not limit or not isinstance(base, RatFunc):
        return None
    n = abs(n)
    for p in (base.num, base.den):
        # |lc| ** n >= 2 ** (n * (bits - 1)), which has more than limit
        # digits once n * (bits - 1) >= limit * log2(10)
        if n * (abs(p.lc).bit_length() - 1) >= limit * log2(10):
            return too_long()
    degree = n * max(base.num.degree, base.den.degree)
    if degree > limit:
        return (f"has degree {degree} in t, over the interpreter's limit of "
                f"{limit} digits")
    return None


# ---------------------------------------------------------------------------
# scalar literal grammar
#
#   expr    := term (('+' | '-') term)*
#   term    := unary (('*' | '/') unary | unary-adjacent)*
#   unary   := '-' unary | primary
#   primary := (INT | 't' | '(' expr ')') ['^' ['-'] INT]
#
# Adjacency such as "2t^3" multiplies. Values are built in QQ(t); each field
# then narrows or maps the result (for cyclotomic fields t denotes zeta_N).
# The parser recurses once per parenthesis and per sign, so their nesting
# is bounded well below the interpreter's recursion limit.
NESTING_LIMIT = 100


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ScalarParseError(
                    f"integer at position {i} has more than "
                    f"{sys.get_int_max_str_digits()} digits, the "
                    f"interpreter's limit for reading one") from None
            toks.append(("INT", value))
            i = j
        elif ch == "t":
            toks.append(("T", None))
            i += 1
        elif ch in "+-*/^()":
            toks.append((ch, None))
            i += 1
        else:
            raise ScalarParseError(f"unexpected character {ch!r} at position {i}")
    return toks


class _Parser:
    def __init__(self, toks, text):
        self.toks = toks
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise ScalarParseError(f"unexpected end of input in {self.text!r}")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ScalarParseError(
                f"expected {kind} but found {tok[0]} in {self.text!r}")
        self.pos += 1
        return tok

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.take()[0]
                rhs = self.unary()
                val = val * rhs if op == "*" else val / rhs
            elif nxt in ("INT", "T", "("):
                val = val * self.unary()
            else:
                return val

    def nest(self, step):
        self.depth += step
        if self.depth > NESTING_LIMIT:
            raise ScalarParseError(f"parentheses and signs nested more than "
                                   f"{NESTING_LIMIT} deep in the literal")

    def unary(self):
        if self.peek() != "-":
            return self.primary()
        self.take()
        self.nest(1)
        val = -self.unary()
        self.nest(-1)
        return val

    def primary(self):
        kind, value = self.take()
        if kind == "INT":
            base = RatFunc.const(value)
        elif kind == "T":
            base = RatFunc.t_power(1)
        elif kind == "(":
            self.nest(1)
            base = self.expr()
            self.take(")")
            self.nest(-1)
        else:
            raise ScalarParseError(f"unexpected token {kind} in {self.text!r}")
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exp = sign * self.take("INT")[1]
            reason = power_too_long(base, exp)
            if reason:
                raise ScalarParseError(
                    f"the power ^{exp} in {self.text!r} {reason}")
            base = base ** exp
        return base


def parse_scalar(text):
    """Parse a scalar literal into a RatFunc value.

    >>> str(parse_scalar("(t^2-1)/(t+1)"))
    't - 1'
    >>> str(parse_scalar("t^-2"))
    't^-2'
    """
    toks = _tokenize(text)
    if not toks:
        raise ScalarParseError("empty scalar literal")
    p = _Parser(toks, text)
    try:
        val = p.expr()
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"division by zero in {text!r}") from exc
    if p.pos != len(toks):
        raise ScalarParseError(f"trailing input in {text!r}")
    return val


# ---------------------------------------------------------------------------
# field objects


class _Field:
    """What every field object derives from its name tag, its coerce and
    its class name."""

    def one(self):
        return self.coerce(1)

    def zero(self):
        return self.coerce(0)

    def render(self, s):
        """s as text parse reads back: str of s, after coerce for an int."""
        return str(self.coerce(s))

    def __eq__(self, other):
        return isinstance(other, _Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"{type(self).__name__}()"


class RationalField(_Field):
    """The rational numbers; scalars are fractions.Fraction."""

    name = "rational"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, RatFunc):
            q = x.as_fraction()
            if q is not None:
                return q
        raise FieldMismatchError(f"{x!r} is not a rational number")

    def parse(self, text):
        val = parse_scalar(text)
        q = val.as_fraction()
        if q is None:
            raise ScalarParseError(f"{text!r} is not constant over the rational field")
        return q


class RationalFunctionField(_Field):
    """QQ(t); scalars are RatFunc values."""

    name = "rational_function"

    def gen(self):
        return RatFunc.t_power(1)

    def coerce(self, x):
        value = RatFunc._coerce(x)
        if value is None:
            raise FieldMismatchError(f"{x!r} is not a rational function in t")
        return value

    def parse(self, text):
        return parse_scalar(text)


# the largest order N of a cyclotomic field a datum may live over. It bounds
# the Galois-norm inverse that elimination takes once per pivot row,
# phi(N) - 1 products of values with phi(N) coordinates: at N = 1000
# (phi 400) one inverse of a dense value took 3.5-6.4 s on one CPU, while
# the table of cartan:A2 to total 2, whose pivots are sparse, took 0.12 s
ORDER_LIMIT = 1000


class CyclotomicField(_Field):
    """QQ(zeta_N); scalars are Cyclotomic values of order N.

    In literals for this field, t denotes zeta_N.
    """

    def __init__(self, order):
        if order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order
        self.name = f"cyclotomic({order})"

    def zeta(self):
        return Cyclotomic.zeta(self.order)

    @functools.cached_property
    def _zero(self):
        """The field's zero, whose _coerce coerce calls; built on first use,
        as parse_datum makes a field before it checks ORDER_LIMIT."""
        return Cyclotomic.const(self.order, 0)

    def coerce(self, x):
        value = self._zero._coerce(x)
        if value is None:
            raise FieldMismatchError(f"{x!r} is not a cyclotomic({self.order}) value")
        return value

    def parse(self, text):
        val = parse_scalar(text)
        try:
            return specialize(val, self.order)
        except SpecializationPoleError as exc:
            raise ScalarParseError(f"{text!r} has a pole at zeta_{self.order}") from exc

    def __repr__(self):
        return f"CyclotomicField({self.order})"


QQ = RationalField()
QT = RationalFunctionField()


def field_from_name(name):
    """Inverse of the field.name tag, e.g. 'cyclotomic(5)'."""
    if name == "rational":
        return QQ
    if name == "rational_function":
        return QT
    if name.startswith("cyclotomic(") and name.endswith(")"):
        inner = name[len("cyclotomic("):-1]
        if inner.isascii() and inner.isdigit():
            return CyclotomicField(int(inner))
    raise ValueError(f"unknown field tag {name!r}")
