"""Each field's coerce: the kinds of value it accepts, the value it returns
for each, and FieldMismatchError for every other kind."""

from fractions import Fraction

import pytest

from hopfmin.scalars import (
    QQ, QT, Cyclotomic, CyclotomicField, FieldMismatchError, RatFunc)

FIELDS = {"QQ": QQ, "QT": QT, "zeta5": CyclotomicField(5),
          "zeta12": CyclotomicField(12)}
INPUTS = {
    "int": 3,
    "fraction": Fraction(-2, 3),
    "constant": RatFunc.const(Fraction(5, 2)),
    "ratfunc": RatFunc.t_power(1) + 1,
    "zeta5": Cyclotomic.zeta(5) + Fraction(1, 2),
    "zeta12": Cyclotomic.zeta(12),
}
# (field, input) -> the value coerce returns; every other pair is refused
ACCEPTED = {
    ("QQ", "int"): Fraction(3),
    ("QQ", "fraction"): Fraction(-2, 3),
    ("QQ", "constant"): Fraction(5, 2),
    ("QT", "int"): RatFunc.const(3),
    ("QT", "fraction"): RatFunc.const(Fraction(-2, 3)),
    ("QT", "constant"): INPUTS["constant"],
    ("QT", "ratfunc"): INPUTS["ratfunc"],
    ("zeta5", "int"): Cyclotomic.const(5, 3),
    ("zeta5", "fraction"): Cyclotomic.const(5, Fraction(-2, 3)),
    ("zeta5", "zeta5"): INPUTS["zeta5"],
    ("zeta12", "int"): Cyclotomic.const(12, 3),
    ("zeta12", "fraction"): Cyclotomic.const(12, Fraction(-2, 3)),
    ("zeta12", "zeta12"): INPUTS["zeta12"],
}


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("field", FIELDS)
def test_coerce(field, kind):
    x = INPUTS[kind]
    expected = ACCEPTED.get((field, kind))
    if expected is None:
        with pytest.raises(FieldMismatchError):
            FIELDS[field].coerce(x)
        return
    got = FIELDS[field].coerce(x)
    assert type(got) is type(expected) and got == expected
    if type(x) is type(got):
        assert got is x  # coerce copies no field value


def test_cyclotomic_one_and_zero_are_constants():
    for order in (1, 2, 5, 12):
        field = CyclotomicField(order)
        assert field.coerce(1) == Cyclotomic.const(order, 1)
        assert field.one() == Cyclotomic.const(order, 1)
        assert field.zero() == Cyclotomic.const(order, 0)
