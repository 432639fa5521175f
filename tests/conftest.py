"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """The interpreter's default limit, 4300, on the digits of an integer
    read from or written to text, whatever the environment set; the old
    limit is restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
