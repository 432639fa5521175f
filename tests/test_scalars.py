"""Exact scalar arithmetic: integer polynomials, QQ(t), cyclotomic values."""

import pickle
import random
from fractions import Fraction

import pytest

from hopfmin.scalars import (
    NESTING_LIMIT,
    QQ,
    QT,
    Cyclotomic,
    CyclotomicField,
    FieldMismatchError,
    Poly,
    RatFunc,
    ScalarParseError,
    SpecializationPoleError,
    cyclotomic_polynomial,
    field_from_name,
    parse_scalar,
    poly_gcd,
    power_too_long,
    render_ratfunc,
    specialize,
)


def _random_poly(rng, max_deg=5, span=4):
    return Poly(tuple(rng.randint(-span, span)
                      for _ in range(rng.randint(0, max_deg))))


def _random_ratfunc(rng):
    num = _random_poly(rng)
    den = Poly(())
    while den.is_zero():
        den = _random_poly(rng)
    return RatFunc(num, den)


def test_poly_basics():
    p = Poly((1, 0, -2, 1))
    assert p.degree == 3
    assert p.lc == 1
    assert str(p) == "t^3 - 2*t^2 + 1"
    assert Poly((0, 0)).is_zero()
    assert Poly(()).degree == -1
    assert Poly((6, -9, 12)).content == 3
    assert Poly((6, -9, 12)).primitive_part() == Poly((2, -3, 4))
    assert Poly((0, 0, 5, 1)).trailing_zeros() == 2


def test_poly_arithmetic_matches_integer_evaluation():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_poly(rng)
        b = _random_poly(rng)
        for x in (-2, -1, 0, 1, 3):
            assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
            assert (a - b).eval_at(x) == a.eval_at(x) - b.eval_at(x)
            assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


def test_poly_exact_div():
    t4m1 = Poly((-1, 0, 0, 0, 1))
    assert t4m1.exact_div(Poly((-1, 1))) == Poly((1, 1, 1, 1))
    assert Poly((-1, 1)).divides(t4m1)
    with pytest.raises(ValueError):
        Poly((1, 1)).exact_div(Poly((0, 1)))
    with pytest.raises(ValueError):
        Poly((1, 0, 1)).exact_div(Poly((1, 1)))


def test_poly_gcd_divides_both():
    rng = random.Random(23)
    for _ in range(30):
        g = _random_poly(rng, max_deg=3)
        a = _random_poly(rng, max_deg=3) * g
        b = _random_poly(rng, max_deg=3) * g
        if a.is_zero() and b.is_zero():
            continue
        d = poly_gcd(a, b)
        if not a.is_zero():
            assert d.divides(a) or d.primitive_part().divides(a.primitive_part())
        if not g.is_zero() and not a.is_zero() and not b.is_zero():
            # the gcd contains the common factor up to content
            assert g.primitive_part().divides(d) or g.degree == 0


def test_cyclotomic_polynomials():
    assert str(cyclotomic_polynomial(1)) == "t - 1"
    assert str(cyclotomic_polynomial(2)) == "t + 1"
    assert str(cyclotomic_polynomial(4)) == "t^2 + 1"
    assert str(cyclotomic_polynomial(6)) == "t^2 - t + 1"
    assert str(cyclotomic_polynomial(12)) == "t^4 - t^2 + 1"
    # the product over all divisors of n recovers t^n - 1, past three odd
    # primes (Phi_105 has a coefficient -2) and past phi(n) = 100
    for n in (*range(1, 61), 105, 210, 231, 256, 385, 720):
        prod = Poly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod == Poly((-1,) + (0,) * (n - 1) + (1,)), n


def test_ratfunc_canonical_form():
    f = RatFunc(Poly((-1, 1)), Poly((-1, 0, 1)))
    assert f.num == Poly((1,))
    assert f.den == Poly((1, 1))
    g = RatFunc(Poly((0, 6)), Poly((0, 0, 4)))
    assert g.num == Poly((3,))
    assert g.den == Poly((0, 2))
    # denominator leading coefficient is normalized positive
    h = RatFunc(Poly((1,)), Poly((1, -1)))
    assert h.den.lc > 0
    assert h.num == Poly((-1,))


def test_ratfunc_field_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_ratfunc(rng)
        b = _random_ratfunc(rng)
        c = _random_ratfunc(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFunc.const(0)
        if b:
            assert (a / b) * b == a
        if a:
            assert a * a ** -1 == RatFunc.const(1)


def test_ratfunc_spec_values():
    t = RatFunc.t_power(1)
    assert (t - 1) / (t * t - 1) * (t + 1) == 1
    assert RatFunc.const(Fraction(5, 6)) + RatFunc.const(Fraction(1, 6)) == 1
    assert t ** -2 == RatFunc.t_power(-2)
    assert str(t ** -2) == "t^-2"
    assert str((t * t - 1) / (t * t)) == "(t^2 - 1)/t^2"


def test_ratfunc_mixed_arithmetic_and_eq():
    t = RatFunc.t_power(1)
    assert 1 + t == t + 1
    assert 2 * t == t + t
    assert RatFunc.const(3) == 3
    assert RatFunc.const(Fraction(1, 2)) == Fraction(1, 2)
    assert t != 1
    assert hash(RatFunc.const(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert RatFunc.const(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    assert t.as_fraction() is None
    with pytest.raises(FieldMismatchError):
        t + Cyclotomic.zeta(4)


def test_ratfunc_pow():
    t = RatFunc.t_power(1)
    f = (t + 1) / t
    assert f ** 0 == 1
    assert f ** 3 == f * f * f
    assert f ** -2 == 1 / (f * f)
    with pytest.raises(TypeError):
        f ** Fraction(1, 2)


def test_cyclotomic_arithmetic():
    z4 = Cyclotomic.zeta(4)
    assert z4 * z4 == -1
    assert z4 ** 4 == 1
    z3 = Cyclotomic.zeta(3)
    assert z3 * z3 + z3 + 1 == 0
    assert (1 + z3) * (1 + z3 * z3) == 1
    with pytest.raises(FieldMismatchError):
        z3 + z4


def test_cyclotomic_inverse_random():
    rng = random.Random(31)
    # every order to 16: primes with phi >= 6, odd composites (9, 15) and
    # twice an odd number (10, 14) besides the powers of two
    for order in range(1, 17):
        dim = max(1, cyclotomic_polynomial(order).degree)
        for _ in range(8):
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(dim)]
            x = Cyclotomic.of(order, coords)
            if not x:
                continue
            assert x * x.inverse() == 1
            assert x.inverse().den > 0
            assert x / x == 1
            assert x ** -2 * x * x == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.const(5, 0).inverse()


@pytest.mark.parametrize("order", [1, 3, 5, 12, 1000])
@pytest.mark.parametrize("c", [1, -1, 7, -4, Fraction(2, 3), Fraction(-5, 4)])
def test_cyclotomic_rational_inverse(order, c):
    x = Cyclotomic.const(order, c)
    assert x * x.inverse() == 1
    assert x.inverse() == 1 / Fraction(c)
    assert x.inverse().den > 0


def test_cyclotomic_division_by_one_takes_no_conjugates(monkeypatch):
    # a rational value inverts as a rational: x / 1 over QQ(zeta_1000) is
    # one product, not phi(1000) - 1 Galois conjugates multiplied together
    x = Cyclotomic.of(1000, [3, -1, Fraction(1, 2)])
    calls = []
    mul = Cyclotomic.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    assert x / 1 == x
    assert len(calls) <= 1


def test_cyclotomic_constant_hash_matches_fraction():
    x = Cyclotomic.const(7, Fraction(2, 3))
    assert x == Fraction(2, 3)
    assert hash(x) == hash(Fraction(2, 3))


def test_cyclotomic_integer_coordinates_and_pickle():
    z = Cyclotomic.zeta(5)
    x = z * z + Fraction(3, 2) * z
    # one form: coordinates over the least positive denominator
    assert (x.num, x.den) == ((0, 3, 2, 0), 2)
    assert (2 * x).den == 1 and 2 * x == 2 * z * z + 3 * z
    assert all(type(a) is int for a in (z * z * z * z).num)
    for v in (x, z, Cyclotomic.const(5, 0), Cyclotomic.const(3, Fraction(-4, 6))):
        back = pickle.loads(pickle.dumps(v))
        assert (back, hash(back), str(back)) == (v, hash(v), str(v))


def test_poly_ratfunc_and_cyclotomic_refuse_assignment_and_pickle():
    # a value's fields, and so its hash, cannot change under a datum
    p = Poly((1, 2))
    f = RatFunc(Poly((1,)), Poly((0, 1)))
    c = Cyclotomic.zeta(5)
    before = hash(c)
    for value, name in [(p, "coeffs"), (f, "num"), (f, "den"), (c, "order"),
                        (c, "num"), (c, "den")]:
        with pytest.raises(AttributeError):
            setattr(value, name, (0, 0, 0, 0))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (c.num, c.den, hash(c)) == ((0, 1, 0, 0), 1, before)
    assert not any(hasattr(v, "__dict__") for v in (p, f, c))
    for v in (p, Poly(()), f, RatFunc.const(Fraction(-4, 6)), c,
              Cyclotomic.of(12, [Fraction(1, 2), 0, Fraction(-3, 4)])):
        back = pickle.loads(pickle.dumps(v))
        assert (back, hash(back), str(back)) == (v, hash(v), str(v))


def test_poly_and_ratfunc_reprs_and_canonical_form_are_unchanged():
    assert repr(Poly((1, 2))) == "2*t + 1"
    assert repr(Poly([1, 2, 0, 0])) == "2*t + 1"
    assert Poly([1, 2, 0]).coeffs == (1, 2) and Poly((0, 0)).coeffs == ()
    assert repr(RatFunc(Poly((1,)), Poly((0, 1)))) == "t^-1"
    f = RatFunc(Poly((-2, 0, 2)), Poly((0, -4, -4)))  # (2t^2 - 2)/(-4t^2 - 4t)
    assert (f.num, f.den) == (Poly((1, -1)), Poly((0, 2)))
    assert repr(f) == "(-t + 1)/(2*t)"
    assert RatFunc() == 0 and RatFunc(Poly((5,))) == 5
    assert Poly((1, 2)) != (1, 2) and Poly((1, 2)) == Poly([1, 2])
    assert hash(Poly((1, 2))) == hash(((1, 2),))


def test_power_too_long_to_write_out_is_refused_before_it_is_taken(
        digit_limit):
    # 2**14284 has 4300 digits, 2**14285 has 4301; the check runs first, so
    # an exponent of a billion is refused at once
    assert parse_scalar("2^14284") == 2 ** 14284
    assert parse_scalar("(1/2)^-14284") == 2 ** 14284
    assert parse_scalar("t^4300") == RatFunc.t_power(4300)
    for text, reason in [("2^14285", "holds an integer of more than 4300"),
                         ("(1/2)^-14285", "holds an integer of more than"),
                         ("3^1000000000", "holds an integer of more than"),
                         ("(3t+1)^1000000000", "holds an integer of more"),
                         ("t^4301", "has degree 4301 in t"),
                         ("(t+1)^-1000000000", "has degree 1000000000"),
                         ("(t^2)^2151", "has degree 4302 in t")]:
        with pytest.raises(ScalarParseError) as exc:
            parse_scalar(text)
        assert reason in str(exc.value)
    assert parse_scalar("1^1000000000") == 1
    assert parse_scalar("(-1)^1000000001") == -1
    assert power_too_long(Fraction(2, 3), 10 ** 9).startswith("holds")
    assert power_too_long(Cyclotomic.zeta(5), 10 ** 9) is None


def test_specialize():
    t2 = RatFunc.t_power(2)
    assert specialize(t2, 4) == -1
    phi3 = RatFunc(Poly((1, 1, 1)), Poly((1,)))
    assert specialize(phi3, 3) == 0
    with pytest.raises(SpecializationPoleError):
        specialize(RatFunc(Poly((1,)), Poly((-1, 1))), 1)
    # a removable singularity is fine after cancellation
    t = RatFunc.t_power(1)
    f = (t * t - 1) / (t - 1)
    assert specialize(f, 1) == 2


def test_parse_scalar_grammar():
    assert parse_scalar("(t^2-1)/(t+1)") == RatFunc(Poly((-1, 1)), Poly((1,)))
    assert parse_scalar("2t^3") == RatFunc(Poly((0, 0, 0, 2)), Poly((1,)))
    assert parse_scalar("-t") == RatFunc(Poly((0, -1)), Poly((1,)))
    assert parse_scalar("t^-3") == RatFunc.t_power(-3)
    assert parse_scalar("5/6") == RatFunc.const(Fraction(5, 6))
    assert parse_scalar("1/2*t") == RatFunc(Poly((0, 1)), Poly((2,)))
    assert parse_scalar("(t+1)^2") == RatFunc(Poly((1, 2, 1)), Poly((1,)))
    for bad in ("t^", "1+", "(t", "q", "", "3..4", "t^x"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)
    with pytest.raises(ScalarParseError):
        parse_scalar("1/(t-t)")


@pytest.mark.parametrize("read, text, message", [
    (QQ.parse, "2\u00b2", "unexpected character '\u00b2' at position 1"),
    (QQ.parse, "\u0663", "unexpected character '\u0663' at position 0"),
    (field_from_name, "cyclotomic(\u00b2)", "unknown field tag"),
    (field_from_name, "cyclotomic(\u0661\u0662)", "unknown field tag"),
], ids=["superscript-two", "arabic-three", "superscript-order",
        "arabic-order"])
def test_only_ascii_digits_are_read(read, text, message):
    # str.isdigit is true for these, and int() refuses the superscript and
    # reads the Arabic-Indic digits as 3 and 12
    with pytest.raises(ValueError, match=message):
        read(text)


def test_literal_nesting_is_bounded():
    # the parser recurses once per parenthesis and per sign
    deep = NESTING_LIMIT
    assert parse_scalar("(" * deep + "t" + ")" * deep) == RatFunc.t_power(1)
    assert parse_scalar("-" * deep + "2") == 2
    for text in ("(" * 600 + "2" + ")" * 600, "-" * 3000 + "2",
                 "-(" * (deep // 2 + 1) + "1" + ")" * (deep // 2 + 1)):
        with pytest.raises(ScalarParseError, match="nested more than"):
            parse_scalar(text)


def test_render_parse_round_trip_random():
    # -t^k below the line, with its sign, beside the random values
    for f in (-RatFunc.t_power(-2), RatFunc.t_power(-3),
              RatFunc.t_power(-1) * 3):
        assert parse_scalar(render_ratfunc(f)) == f
    assert render_ratfunc(-RatFunc.t_power(-2)) == "-t^-2"
    rng = random.Random(47)
    for _ in range(60):
        f = _random_ratfunc(rng)
        assert parse_scalar(render_ratfunc(f)) == f


def test_rational_field():
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-2") == -2
    assert QQ.render(Fraction(-3, 7)) == "-3/7"
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.coerce(RatFunc.const(Fraction(1, 3))) == Fraction(1, 3)
    with pytest.raises(ScalarParseError):
        QQ.parse("t")
    with pytest.raises(FieldMismatchError):
        QQ.coerce(RatFunc.t_power(1))


def test_fields_share_equality_hashing_and_rendering():
    half = parse_scalar("1/2")  # a constant RatFunc, which QQ coerces
    assert QQ.render(half) == "1/2"
    assert QT.render(half) == str(half) == "(1)/(2)"
    assert type(QQ.one()) is Fraction and QQ.zero() == 0
    assert CyclotomicField(5).one() == Cyclotomic.const(5, 1)
    fields = [QQ, QT, CyclotomicField(5), CyclotomicField(5),
              CyclotomicField(7)]
    assert len(set(fields)) == 4
    assert all(field_from_name(f.name) == f for f in fields)


def test_ratfunc_inverse_and_the_derived_operations():
    t = RatFunc.t_power(1)
    f = (t + 1) / (2 * t - 3)
    assert f.inverse() == (2 * t - 3) / (t + 1)
    assert f * f.inverse() == 1
    assert 3 / f == 3 * f.inverse() and 1 - f == -(f - 1)
    assert f ** -2 == f.inverse() * f.inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc().inverse()
    # the shared base keeps Cyclotomic free of a per-instance dict
    assert not hasattr(Cyclotomic.zeta(5), "__dict__")


def test_rational_function_field():
    f = QT.parse("(t-1)/(t^2-1)")
    assert f == RatFunc(Poly((1,)), Poly((1, 1)))
    assert QT.parse(QT.render(f)) == f
    assert QT.coerce(3) == RatFunc.const(3)
    assert QT.one() + QT.zero() == 1


def test_cyclotomic_field():
    F = CyclotomicField(5)
    z = F.zeta()
    assert F.parse("t^7") == z * z
    assert F.parse(F.render(z * z + 1)) == z * z + 1
    assert F.coerce(Fraction(1, 2)) == Cyclotomic.const(5, Fraction(1, 2))
    with pytest.raises(ScalarParseError):
        F.parse("1/(t^5-1)")
    with pytest.raises(FieldMismatchError):
        F.coerce(Cyclotomic.zeta(3))


def test_field_from_name():
    assert field_from_name("rational") == QQ
    assert field_from_name("rational_function") == QT
    assert field_from_name("cyclotomic(6)") == CyclotomicField(6)
    with pytest.raises(ValueError):
        field_from_name("padic(5)")
