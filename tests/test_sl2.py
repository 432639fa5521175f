"""The classical rank-one mirror: Verma pairing values and simple dimensions."""

import time
from fractions import Fraction

from hopfmin.sl2 import (
    dim_L,
    e_action_on_f_power,
    parallel_report,
    shapovalov_value,
    shapovalov_values,
)


def test_e_action_commutation():
    # E F^k v = k (lam + 1 - k) F^(k-1) v on a highest weight vector
    for lam in (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(-3)):
        assert e_action_on_f_power(lam, 0) == {}
        for k in range(1, 7):
            expected = {k - 1: k * (lam + 1 - k)}
            got = e_action_on_f_power(lam, k)
            got = {p: c for p, c in got.items() if c}
            want = {p: c for p, c in expected.items() if c}
            assert got == want


def test_shapovalov_value_closed_product():
    for lam in (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3),
                Fraction(7)):
        prod = Fraction(1)
        for k in range(9):
            if k:
                prod *= k * (lam + 1 - k)
            assert shapovalov_value(lam, k) == prod


def test_shapovalov_values_prefix():
    vals = shapovalov_values(Fraction(3), 6)
    assert vals[0] == 1
    assert vals == [shapovalov_value(Fraction(3), k) for k in range(7)]
    assert vals[4] == 0 and vals[3] != 0


def test_dim_L():
    for n in range(7):
        assert dim_L(Fraction(n)) == n + 1
    assert dim_L(10 ** 300) == 10 ** 300 + 1
    assert dim_L(Fraction(-1)) == float("inf")
    assert dim_L(Fraction(1, 2)) == float("inf")
    assert dim_L(Fraction(-7, 3)) == float("inf")


def test_values_build_each_e_action_once():
    for lam in (Fraction(4), Fraction(-5, 2), Fraction(9)):
        expected = [Fraction(1)]
        for i in range(1, 13):
            c = e_action_on_f_power(lam, i).get(i - 1, Fraction(0))
            expected.append(expected[-1] * c)
        assert shapovalov_values(lam, 12) == expected
    # lam + 2 values, each one step from the last: milliseconds, where
    # rebuilding E F**i v for every i took over ten seconds
    start = time.monotonic()
    values = shapovalov_values(3000, 3002)
    assert values[3000] != 0 and values[3001] == 0
    assert time.monotonic() - start < 5


def test_dim_L_against_a_scan_of_the_values():
    # the closed form is where the computed values first vanish
    for lam in range(40):
        values = shapovalov_values(lam, lam + 2)
        first = next(k for k, v in enumerate(values) if v == 0)
        assert dim_L(lam) == first == lam + 1
        assert all(values[:first])


def test_parallel_report_integer_weight():
    rep = parallel_report(3, depth=6)
    assert rep["highest_weight"] == "3"
    assert rep["verma_graded_dims"] == [1] * 7
    assert rep["simple_graded_dims"] == [1, 1, 1, 1, 0, 0, 0]
    assert rep["simple_dim"] == 4
    assert rep["first_vanishing"] == 4
    assert len(rep["correspondence"]) == 4
    for row in rep["correspondence"]:
        assert set(row) == {"classical", "braided"}


def test_parallel_report_generic_weight():
    rep = parallel_report(Fraction(1, 2), depth=5)
    assert rep["simple_dim"] == "infinite"
    assert rep["first_vanishing"] is None
    assert rep["simple_graded_dims"] == [1] * 6
