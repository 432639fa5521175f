"""Property tests against symbolic elimination: small random QQ(t)
braidings ranked at integer points, QQ rows ranked as integer rows, and
multilinear block determinants from their closed form."""

from fractions import Fraction
from math import gcd

import pytest

from hopfmin.datum import datum_from_q_matrix
from hopfmin.growth import hilbert_table
from hopfmin.oracles import planted_q, random_q
from hopfmin.scalars import QQ, QT
from hopfmin.shapovalov import (
    SymMatrix,
    _int_row,
    determinant_by_elimination,
    gram_determinant,
    rank_rows,
    rank_symbolic,
    symmetrizer,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# Braiding entries: Laurent monomials, and non-monomial entries with zeros
# and poles at small integers, the seed point 2 among them.
_ENTRIES = ("t", "t^-1", "t^2", "-t", "2t", "1/2", "-1", "1", "1-t", "t+1",
            "t-2", "1/(t-2)", "(t-1)/(t-3)", "(t-2)/(t+1)", "t^2-t-2")


@st.composite
def _small_qt_tables(draw):
    m = draw(st.integers(1, 3))
    q = tuple(tuple(draw(st.sampled_from(_ENTRIES)) for _ in range(m))
              for _ in range(m))
    return q, draw(st.integers(1, 4))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_small_qt_tables())
def test_integer_points_match_symbolic_rank(case):
    q, max_total = case
    datum = datum_from_q_matrix(
        tuple(tuple(QT.parse(x) for x in row) for row in q), QT)
    for b in hilbert_table(datum, max_total).blocks:
        assert b.rank == rank_symbolic(symmetrizer(datum, b.deg)), b.deg


# raw symmetrizer rows mix ints with Fractions, integral ones among them
_FRACTIONS = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _fraction_rows(draw):
    """Small matrices of ints and Fractions, with rows scaled by a common
    factor, zero rows, and rows that repeat a multiple of another."""
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("plain", "scaled", "zero", "repeat")))
        if kind == "zero":
            rows.append([draw(st.sampled_from((0, Fraction(0))))] * ncols)
        elif kind == "repeat" and rows:
            k = draw(_FRACTIONS)
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            row = draw(st.lists(_FRACTIONS, min_size=ncols, max_size=ncols))
            if kind == "scaled":
                k = draw(st.integers(2, 12))
                row = [k * x for x in row]
            rows.append(row)
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fraction_rows())
def test_qq_integer_rows_match_fraction_elimination(rows):
    for row in rows:
        ints, mult = _int_row(row)
        assert all(type(x) is int for x in ints)
        assert gcd(*ints) in (0, 1)
        assert ints == [x * mult for x in row]
    mat = SymMatrix((), (), tuple(tuple(map(Fraction, r)) for r in rows), QQ)
    assert rank_rows(QQ, rows) == rank_symbolic(mat)


@st.composite
def _multilinear_blocks(draw):
    """A rational braiding on two to four letters, half of them with a
    planted q_S = 1 (so the blocks holding S have determinant 0), and a
    0/1 multidegree."""
    m = draw(st.integers(2, 4))
    braiding = draw(st.sampled_from((random_q, planted_q)))
    q = braiding(draw(st.randoms(use_true_random=False)), m)
    deg = draw(st.lists(st.sampled_from((1, 0)), min_size=m, max_size=m))
    return q, tuple(deg)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_multilinear_blocks())
def test_multilinear_determinant_matches_elimination(case):
    q, deg = case
    datum = datum_from_q_matrix(q, QQ)
    report = gram_determinant(datum, deg)
    r, det = determinant_by_elimination(symmetrizer(datum, deg))
    assert type(report.determinant) is Fraction
    assert (report.rank, report.determinant) == (r, det)
