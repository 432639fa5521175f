"""Property tests against independent routes: small random QQ(t)
braidings ranked at integer points against symbolic elimination, and the
bound that sizes their certificate points against the symbolic ranks;
cyclotomic blocks and table rows ranked over the field against a
test-local regular representation ranked over QQ; QQ rows ranked
as integer rows; multilinear block determinants from their closed form,
and every block determinant and rank det reports, against elimination;
cyclotomic arithmetic on integer coordinates against Fraction
coordinates; Sh((a,) + v) = a sh Sh(v), the identity tables build their
blocks by, against the braided shuffle; the maps table blocks keep,
against word vectors; and QQ and cyclotomic tables, built from the lower
images, against their full Sh blocks; the datum hash against hashlib's
SHA-256; the cyclotomic factor search against the search over every
Phi_k(t^j), and on a closed form's factors against the search on its
reduced numerator; and the one synthetic division: exact quotients and
pseudo-remainders in ZZ[t] against Fraction long division, and values at
zeta_N (Cyclotomic.of, specialize) against Horner's rule through
Cyclotomic products."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd, prod
from operator import truediv

import pytest

from hopfmin.datum import (
    CARTAN_TYPES, datum_from_q_matrix, datum_hash, emit_datum, parse_datum,
    preset_cartan, preset_doubled, preset_reductive, specialize_datum)
from hopfmin.det import (
    cyclotomic_factors, gram_determinant, multilinear_determinant)
from hopfmin.growth import compute_blocks, hilbert_table
from hopfmin.oracles import POOL, planted_q, random_q
from hopfmin.scalars import (
    QQ, QT, Cyclotomic, CyclotomicField, Poly, RatFunc,
    SpecializationPoleError, _pseudo_rem, cyclotomic_polynomial, poly_str,
    specialize)
from hopfmin.shapovalov import (
    POINT,
    SEED,
    IntegerPoints,
    SymEngine,
    _eliminate,
    _int_row,
    determinant_by_elimination,
    matrix_rows,
    rank,
    rank_rows,
    symmetrizer,
)
from hopfmin.words import block_size, multidegrees_up_to, shuffle

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


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
@example(((("1-t", "t"), ("t^-1", "t")), 4))  # the seed 2 is a root of 1 + q_11
def test_integer_points_match_symbolic_rank(case):
    # and the certificate point's premise: the rank of a block the seed does
    # not settle is at most the lesser of its bound and size, which sizes
    # the point; the block takes one exactly when its seed rank is below
    q, max_total = case
    datum = datum_from_q_matrix(
        tuple(tuple(QT.parse(x) for x in row) for row in q), QT)
    points = IntegerPoints(datum.braiding_matrix)
    for b in hilbert_table(datum, max_total).blocks:
        deg = b.deg
        want = rank(symmetrizer(datum, deg))
        assert b.rank == want, deg
        assert points.keep(deg, points.rows(deg)) == want, deg
        settled = points.blocks[deg].settled
        if settled == SEED:
            continue
        s = min(points.bound(deg), block_size(deg))
        assert s >= want, deg
        assert (settled == POINT) == (points.images[deg].rank < s), deg


_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)

# Roots of unity, whose powers make blocks lose rank, beside points whose
# coordinates are not integers (none of them vanishes at a root of unity).
_CYCLOTOMIC_ENTRIES = ("t", "-t", "t^2", "-1", "1", "t/2", "1/3", "(t+2)/3",
                       "2t^3")


@st.composite
def _small_cyclotomic_data(draw):
    m = draw(st.integers(1, 3))
    q = tuple(tuple(draw(st.sampled_from(_CYCLOTOMIC_ENTRIES))
                    for _ in range(m)) for _ in range(m))
    return draw(st.sampled_from(_ORDERS)), q


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_small_cyclotomic_data())
@example((3, (("t", "t/2"), ("t^2", "t"))))
@example((12, (("t", "t/2", "-1"), ("1/3", "-t", "t^2"), ("t", "1", "t"))))
def test_cyclotomic_ranks_match_regular_representation(case):
    order, q = case
    field = CyclotomicField(order)
    datum = datum_from_q_matrix(
        tuple(tuple(field.parse(x) for x in row) for row in q), field)
    for deg in multidegrees_up_to(datum.m, 4):
        mat = symmetrizer(datum, deg)
        expected = _regular_rank(field, mat.entries)
        assert rank(mat) == expected, deg
        rows = matrix_rows(deg, SymEngine(datum.braiding_matrix))[1]
        assert rank_rows(field, rows) == _regular_rank(field, rows) == expected, deg


def _regular_rank(field, rows):
    """Rank over QQ(zeta_N) in other arithmetic: each entry x becomes its
    phi(N) x phi(N) matrix on the regular representation, column l the
    coordinates of x * zeta**l; the expanded rows are ranked over QQ, and
    that rank is phi(N) times the rank over the field."""
    powers = [field.zeta() ** l for l in range(len(field.zeta().num))]
    d = len(powers)
    expanded = []
    for row in rows:
        blocks = [[(field.coerce(x) * z).coords for z in powers] for x in row]
        expanded += [[col[k] for cols in blocks for col in cols]
                     for k in range(d)]
    r = rank_rows(QQ, expanded)
    assert r % d == 0, r
    return r // d


def _reference_coords(coeffs, order):
    """Fraction coordinates of sum(coeffs[k] * zeta**k) by long division
    by Phi_order over QQ."""
    phi = cyclotomic_polynomial(order).coeffs
    d = len(phi) - 1
    rem = [Fraction(c) for c in coeffs] + [Fraction(0)] * d
    for k in range(len(rem) - 1, d - 1, -1):
        head = rem[k]
        for i, c in enumerate(phi):
            rem[k - d + i] -= head * c
    return tuple(rem[:d])


def _reference_product(a, b, order):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reference_coords(out, order)


_COORDS = st.builds(Fraction, st.integers(-5, 5),
                    st.sampled_from((1, 1, 1, 2, 3, 4)))


@st.composite
def _cyclotomic_operands(draw):
    """An order, two coefficient lists of any length (the first sometimes
    a constant), and a Fraction constant."""
    order = draw(st.sampled_from(_ORDERS))
    c = draw(_COORDS)
    if draw(st.booleans()):
        a = [c] + [0] * draw(st.integers(0, 2))
    else:
        a = draw(st.lists(_COORDS, min_size=1, max_size=9))
    return order, a, draw(st.lists(_COORDS, min_size=1, max_size=9)), c


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cyclotomic_operands())
def test_cyclotomic_arithmetic_matches_fraction_coordinates(case):
    order, a, b, c = case
    x, y = Cyclotomic.of(order, a), Cyclotomic.of(order, b)
    ra, rb = _reference_coords(a, order), _reference_coords(b, order)
    assert (x.coords, y.coords) == (ra, rb)
    assert (x + y).coords == tuple(u + v for u, v in zip(ra, rb))
    assert (x - y).coords == tuple(u - v for u, v in zip(ra, rb))
    assert (x * y).coords == _reference_product(ra, rb, order)
    assert (x * c).coords == (c * x).coords == tuple(u * c for u in ra)
    n = c.numerator
    assert (x * n).coords == (n * x).coords == tuple(u * n for u in ra)
    assert (x + c).coords == (ra[0] + c,) + ra[1:]
    if x:
        one = (Fraction(1),) + (Fraction(0),) * (len(ra) - 1)
        assert _reference_product(x.inverse().coords, ra, order) == one
    zeros = (Fraction(0),) * (len(ra) - 1)
    for k in (c, n):
        assert (x == k) == (ra == (k,) + zeros)
        assert (x != k) == (ra != (k,) + zeros)
        if x == k:
            assert hash(x) == hash(k)
    assert (x == y) == (ra == rb)
    if x == y:
        assert hash(x) == hash(y)
    assert str(x) == poly_str(ra)
    assert bool(x) == any(ra)


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
    fractions = [list(map(Fraction, r)) for r in rows]
    assert rank_rows(QQ, rows) == _eliminate(fractions, truediv)[0]


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


@st.composite
def _small_data(draw):
    """A field, a braiding on one to three letters as literals of that
    field (over QQ from random_q or planted_q, over QQ(t) and QQ(zeta_N)
    from the strategies above), and a total up to 4."""
    kind = draw(st.sampled_from(("rational", "function", "cyclotomic")))
    if kind == "function":
        q, max_total = draw(_small_qt_tables())
        return QT, q, max_total
    if kind == "cyclotomic":
        order, q = draw(_small_cyclotomic_data())
        return CyclotomicField(order), q, draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    braiding = draw(st.sampled_from((random_q, planted_q))) if m > 1 else random_q
    q = braiding(draw(st.randoms(use_true_random=False)), m)
    return QQ, tuple(tuple(map(str, row)) for row in q), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_data())
# singular blocks: (2, 0) and (0, 2) by 1 + q_ii = 0, (1, 1) by q_12 q_21 = 1
@example((QT, (("-1", "t^-1"), ("t", "-1")), 4))
@example((QQ, (("1/2", "2"), ("1/2", "-1")), 4))
# (3, 0) by 1 + q + q^2 = 0 at a cube root of unity
@example((CyclotomicField(3), (("t", "t^2"), ("t", "t")), 4))
def test_gram_determinant_matches_elimination(case):
    # gram_determinant takes its rank from the certified table, and
    # eliminates only full-rank blocks without a closed form
    field, q, max_total = case
    datum = datum_from_q_matrix(
        tuple(tuple(field.parse(x) for x in row) for row in q), field)
    for deg in multidegrees_up_to(datum.m, max_total):
        mat = symmetrizer(datum, deg)
        report = gram_determinant(datum, deg)
        assert report.rank == rank(mat), deg
        assert report.determinant == determinant_by_elimination(mat)[1], deg


@st.composite
def _letter_insertions(draw):
    """A random braiding over QQ, a cyclotomic field or QQ(t), a word v of
    at most four letters and a letter a."""
    kind = draw(st.sampled_from(("rational", "cyclotomic", "function")))
    if kind == "rational":
        field, entries = QQ, [str(x) for x in POOL]
    elif kind == "cyclotomic":
        field = CyclotomicField(draw(st.sampled_from(_ORDERS)))
        entries = _CYCLOTOMIC_ENTRIES
    else:
        field, entries = QT, _ENTRIES
    m = draw(st.integers(1, 3))
    braiding = tuple(tuple(field.parse(draw(st.sampled_from(entries)))
                           for _ in range(m)) for _ in range(m))
    v = tuple(draw(st.lists(st.integers(1, m), max_size=4)))
    return braiding, draw(st.integers(1, m)), v


def _insertion_mismatch(braiding, a, v, shuffle_braiding):
    """Whether Sh((a,) + v) differs from the braided shuffle of the letter a
    with Sh(v), the shuffle taken over shuffle_braiding."""
    engine = SymEngine(braiding)
    got = shuffle(shuffle_braiding, {(a,): 1}, engine.sym(v))
    return got != engine.sym((a,) + v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_letter_insertions())
def test_letter_insertion_is_the_shuffle_by_a_letter(case):
    # Sh((a,) + v) = a sh Sh(v), the identity table blocks are built by
    braiding, a, v = case
    assert not _insertion_mismatch(braiding, a, v, braiding)


def _sum(terms):
    """The word vector sum of s * x over (scalar s, word vector x) pairs,
    with no zero coefficient."""
    out = {}
    for s, x in terms:
        for w, c in x.items():
            merged = out.get(w, 0) + s * c
            if merged:
                out[w] = merged
            else:
                out.pop(w, None)
    return out


def _derivative(x, c, side):
    """d^R_c x (u -> x[u c]) or d^L_c x (u -> x[c u]) of a word vector."""
    if side == "right":
        return {w[:-1]: s for w, s in x.items() if w[-1:] == (c,)}
    return {w[1:]: s for w, s in x.items() if w[:1] == (c,)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_letter_insertions(), st.integers(1, 3))
def test_derivatives_of_a_letter_shuffle(case, c):
    # the recursion tables build their blocks by, for x = Sh(v) of
    # multidegree e:
    #   d^R_c (a sh x) = a sh d^R_c x + [a = c] chi_a(e) x,
    #   d^L_c (a sh x) = [a = c] x + b(a, c) a sh d^L_c x
    braiding, a, v = case
    m = len(braiding)
    c = min(c, m)
    x = SymEngine(braiding).sym(v)
    letter = {(a,): 1}
    ax = shuffle(braiding, letter, x)
    chi = prod(braiding[a - 1][k] ** v.count(k + 1) for k in range(m))
    right = [(1, shuffle(braiding, letter, _derivative(x, c, "right")))]
    left = [(braiding[a - 1][c - 1],
             shuffle(braiding, letter, _derivative(x, c, "left")))]
    if a == c:
        right.append((chi, x))
        left.append((1, x))
    assert _derivative(ax, c, "right") == _sum(right)
    assert _derivative(ax, c, "left") == _sum(left)


def _combination(coords, basis):
    """sum_k coords[k] * basis[k], for coords a list or (k, scalar) pairs."""
    pairs = coords if coords and isinstance(coords[0], tuple) else enumerate(coords)
    return _sum((v, basis[k]) for k, v in pairs)


@st.composite
def _table_braidings(draw):
    """A random braiding over QQ or a cyclotomic field, with the field its
    blocks are kept in: a QQ braiding as the seed of a QQ(t) table, which
    keeps the left derivatives too."""
    if draw(st.booleans()):
        field, entries = QQ, [str(x) for x in POOL]
    else:
        field = CyclotomicField(draw(st.sampled_from(_ORDERS)))
        entries = _CYCLOTOMIC_ENTRIES
    m = draw(st.integers(1, 3))
    braiding = tuple(tuple(field.parse(draw(st.sampled_from(entries)))
                           for _ in range(m)) for _ in range(m))
    return braiding, QT if field == QQ else field


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_table_braidings())
def test_kept_maps_match_word_vectors(case):
    # every map a block keeps, against word vectors: the basis of block d
    # is rebuilt as the columns a sh y_i (words.shuffle) that first reach
    # each coordinate of mul, in column order (letters ascending, then the
    # basis y_i of block d - e_a); then each column is mul's combination of
    # that basis, and right (left) gives the coordinates of the word
    # derivatives d^R_c x_k (d^L_c x_k)
    braiding, field = case
    m = len(braiding)
    engine = (IntegerPoints(tuple(tuple(map(QT.coerce, row)) for row in braiding))
              if field == QT else SymEngine(braiding))
    basis = {(0,) * m: [{(): 1}]}
    for deg in multidegrees_up_to(m, 4 if m < 3 else 3)[1:]:
        if deg not in engine.images:
            engine.keep(deg, engine.rows(deg))
        image = engine.images[deg]
        lowers = [(a, deg[:a - 1] + (deg[a - 1] - 1,) + deg[a:])
                  for a in range(1, m + 1) if deg[a - 1]]
        got = [None] * image.rank
        for a, low in lowers:
            for i, y in enumerate(basis[low]):
                column = shuffle(braiding, {(a,): 1}, y)
                coords = image.mul[a][i]
                for k, v in coords:
                    if got[k] is None:
                        assert coords == [(k, 1)], (deg, a, i)
                        got[k] = column
                assert column == _combination(coords, got), (deg, a, i)
        basis[deg] = got
        for c, low in lowers:
            for side, maps in (("right", image.right), ("left", image.left)):
                for k, x in enumerate(got):
                    if c in maps:
                        assert _derivative(x, c, side) == _combination(
                            maps[c][k], basis[low]), (deg, side, c, k)
        assert set(image.left) == (set(image.right) if field == QT else set())


def test_transposed_letter_insertion_is_caught():
    # a planted fault: scalars b(w_i, a) in place of b(a, w_i), which is
    # the shuffle over the transposed braiding
    braiding = ((Fraction(2), Fraction(-1, 3)), (Fraction(3), Fraction(-1)))
    transposed = tuple(zip(*braiding))
    cases = [(a, v) for n in range(4) for v in itertools.product((1, 2), repeat=n)
             for a in (1, 2)]
    assert not any(_insertion_mismatch(braiding, a, v, braiding)
                   for a, v in cases)
    assert any(_insertion_mismatch(braiding, a, v, transposed)
               for a, v in cases)


def _assert_table_matches_full_blocks(datum, max_total):
    degs = multidegrees_up_to(datum.m, max_total)
    for b in compute_blocks(datum, degs):
        full = symmetrizer(datum, b.deg)
        assert b.rank == rank(full), b.deg


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.sampled_from((random_q, planted_q)),
       st.randoms(use_true_random=False))
def test_rational_tables_match_full_blocks(m, draw, rng):
    if draw is planted_q and m < 2:
        draw = random_q
    datum = datum_from_q_matrix(draw(rng, m), QQ)
    _assert_table_matches_full_blocks(datum, 5 if m < 3 else 4)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_small_cyclotomic_data())
@example((3, (("t", "1"), ("t^2", "t"))))
def test_cyclotomic_tables_match_full_blocks(case):
    order, q = case
    field = CyclotomicField(order)
    datum = datum_from_q_matrix(
        tuple(tuple(field.parse(x) for x in row) for row in q), field)
    _assert_table_matches_full_blocks(datum, 5 if datum.m < 3 else 4)


def _presets():
    for name in CARTAN_TYPES:
        yield preset_cartan(name)
        yield preset_cartan(name, base=Fraction(-3, 2))
        yield preset_doubled(name)
        yield preset_reductive(name)
        yield specialize_datum(preset_cartan(name), 5)


# Nonzero literals in each field; none vanishes at a root of unity.
_HASH_FIELDS = {
    "rational": ("2", "-1", "1/3", "-7/2", "5"),
    "rational_function": ("t", "-t", "t + 1", "1/(t - 2)", "2*t^2 - 3"),
    "cyclotomic(3)": ("t", "-t", "t^2", "1/2", "2*t + 3"),
    "cyclotomic(8)": ("t", "t^3", "-1", "3/4", "t - 2"),
}


@st.composite
def _random_datum_docs(draw):
    field = draw(st.sampled_from(sorted(_HASH_FIELDS)))
    rank, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    alpha = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    alphas = [draw(alpha.filter(any)) for _ in range(m)]
    gammas = [[draw(st.sampled_from(_HASH_FIELDS[field])) for _ in range(rank)]
              for _ in range(m)]
    return json.dumps({"rank": rank, "field": field, "alphas": alphas,
                       "gammas": gammas})


def _assert_hash_is_sha256(datum):
    text = emit_datum(datum).encode("utf-8")
    assert datum_hash(datum) == hashlib.sha256(text).hexdigest()


def test_preset_hashes_are_sha256():
    # the built-in SHA-256 gives hashlib's digest, so every rank-cache key
    # and every `hash` field stays as it was
    for datum in _presets():
        _assert_hash_is_sha256(datum)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_datum_docs())
def test_datum_hashes_are_sha256(doc):
    _assert_hash_is_sha256(parse_datum(doc))


def _phi_of_power(k, j):
    """Phi_k(t**j), from the coefficients of Phi_k(t) spread j apart."""
    coeffs = cyclotomic_polynomial(k).coeffs
    out = [0] * ((len(coeffs) - 1) * j + 1)
    out[::j] = coeffs
    return Poly(tuple(out))


def _search_every_power(num, bound):
    """The factor search over every Phi_k(t^j) with k*j <= bound, in
    ascending (j, k) order, each tried until it no longer divides."""
    found = []
    for j in range(1, bound + 1):
        if j > num.degree:
            break
        for k in range(1, bound // j + 1):
            cand = _phi_of_power(k, j)
            if cand.degree > num.degree:
                continue
            mult = 0
            while cand.divides(num):
                num = num.exact_div(cand)
                mult += 1
            if mult:
                found.append((k, j, mult))
    return tuple(found), num


@st.composite
def _cyclotomic_products(draw):
    # products of Phi_k(t^j), some past the bound, times a cofactor with
    # a constant term that beats its other coefficients, so no root on
    # the unit circle, or times a cofactor that vanishes at t = 2
    num = Poly((draw(st.sampled_from((1, -1, 3, -12))),))
    for _ in range(draw(st.integers(0, 6))):
        k, j = draw(st.integers(1, 40)), draw(st.integers(1, 3))
        num = num * _phi_of_power(k, j)
    tail = draw(st.lists(st.integers(-2, 2), max_size=8))
    cofactor = draw(st.sampled_from((
        Poly((2 * len(tail) + 1, *tail)), Poly((-2, 1)), Poly((1,)))))
    return num * cofactor, draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cyclotomic_products())
def test_factor_search_matches_search_over_every_power(case):
    num, bound = case
    assert (cyclotomic_factors([(num, 1)], bound)
            == _search_every_power(num, bound))


# Laurent monomials and other points, among them denominators with
# cyclotomic factors, which reducing the closed form can cancel
_SPLIT_ENTRIES = ("t", "t^-1", "-t", "2t", "t^2", "-1", "1-t", "t+1",
                  "(t-1)/(t+3)", "t^2-t-2", "1/(t-2)", "1/(t+1)",
                  "t/(t^2+t+1)")


@st.composite
def _multilinear_qt(draw):
    """A QQ(t) braiding on two to four letters, some with a planted
    q_S = 1: one entry of S is the inverse of the product of the others."""
    m = draw(st.integers(2, 4))
    q = [[QT.parse(draw(st.sampled_from(_SPLIT_ENTRIES))) for _ in range(m)]
         for _ in range(m)]
    if draw(st.booleans()):
        subset = draw(st.lists(st.integers(0, m - 1), min_size=2,
                               max_size=m, unique=True))
        pairs = [(i, j) for i in subset for j in subset if i != j]
        (i, j), rest = pairs[0], pairs[1:]
        q[i][j] = prod((q[a][b] for a, b in rest), start=QT.one()).inverse()
    return tuple(map(tuple, q))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_multilinear_qt())
# 1 - q_12 q_21 = (t + 1)(2 - t) / (t + 1): Phi_2 cancels in the reduction
@example(tuple(tuple(map(QT.parse, row))
               for row in (("t", "t^2-1"), ("1/(t+1)", "t^2"))))
def test_split_factor_search_matches_the_expanded_numerator(q):
    # gram_determinant searches the closed form's factors 1 - q_S; the
    # reference searches the expanded, reduced numerator
    datum = datum_from_q_matrix(q, QT)
    deg = (1,) * datum.m
    expanded = multilinear_determinant(datum, deg)
    for bound in (0, 24, 10 ** 6):
        report = gram_determinant(datum, deg, factor_bound=bound)
        assert report.determinant == expanded
        if not expanded:
            assert (report.factors, report.remainder) == ((), expanded)
            break
        factors, rest = cyclotomic_factors([(expanded.num, 1)], bound)
        assert report.factors == factors
        assert report.remainder == RatFunc(rest, expanded.den)


_POLYS = st.lists(st.integers(-4, 4), max_size=7).map(Poly)


def _fraction_divmod(a, b):
    """Quotient and remainder of a by b in QQ[t], by long division on
    Fraction coefficients."""
    rem = [Fraction(c) for c in a.coeffs]
    dd = b.degree
    quot = [Fraction(0)] * max(len(rem) - dd, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + dd] / b.lc
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= quot[k] * c
    return quot, rem[:dd]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_POLYS, _POLYS.filter(bool))
def test_exact_division_matches_fraction_long_division(a, b):
    assert (a * b).exact_div(b) == a
    quot, rem = _fraction_divmod(a, b)
    if any(rem) or any(c.denominator != 1 for c in quot):
        with pytest.raises(ValueError):
            a.exact_div(b)
    else:
        assert a.exact_div(b) == Poly([int(c) for c in quot])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_POLYS, _POLYS.filter(bool))
def test_pseudo_remainder_matches_fraction_long_division(a, b):
    scale = Poly.const(b.lc ** max(a.degree - b.degree + 1, 0))
    rem = _fraction_divmod(a * scale, b)[1]
    assert all(c.denominator == 1 for c in rem)
    assert _pseudo_rem(a, b) == Poly([int(c) for c in rem])


_VALUE_ORDERS = st.one_of(st.integers(1, 30), st.sampled_from((105, 210)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_VALUE_ORDERS, st.lists(st.integers(-9, 9), max_size=120),
       st.integers(1, 6))
def test_values_at_zeta_are_remainders_mod_phi(n, coeffs, den):
    x = Cyclotomic.of(n, [Fraction(c, den) for c in coeffs])
    assert x == Poly(coeffs).eval_at(Cyclotomic.zeta(n)) * Fraction(1, den)


@st.composite
def _points(draw):
    """An order and a RatFunc whose denominator is t**j, c * t**j, or a
    non-monomial, sometimes a multiple of a cyclotomic polynomial."""
    n = draw(st.integers(1, 30))
    j, c = draw(st.integers(0, 40)), draw(st.sampled_from((1, -1, 2, -6)))
    den = Poly.monomial(c, j)
    kind = draw(st.sampled_from(("t^j", "c*t^j", "poly", "phi")))
    if kind == "t^j":
        den = Poly.monomial(1, j)
    elif kind == "poly":
        den = den * draw(_POLYS.filter(lambda p: p.degree > 0))
    elif kind == "phi":
        m = draw(st.one_of(st.just(n), st.integers(1, 30)))
        den = den * cyclotomic_polynomial(m) * draw(_POLYS.filter(bool))
    return n, RatFunc(draw(_POLYS), den)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_points())
def test_specialize_matches_horner_at_zeta(case):
    n, f = case
    zeta = Cyclotomic.zeta(n)
    den = f.den.eval_at(zeta)
    if not den:
        with pytest.raises(SpecializationPoleError):
            specialize(f, n)
    else:
        assert specialize(f, n) == f.num.eval_at(zeta) / den
    with pytest.raises(ValueError):
        specialize(f, 0)
