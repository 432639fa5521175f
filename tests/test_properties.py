"""Property tests: small random QQ(t) braidings, ranked at integer points,
against symbolic elimination."""

import pytest

from hopfmin.datum import datum_from_q_matrix
from hopfmin.growth import hilbert_table
from hopfmin.scalars import QT
from hopfmin.shapovalov import rank_symbolic, symmetrizer

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
