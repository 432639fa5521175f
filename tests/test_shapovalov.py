"""The canonical map between the free braided algebra and the shuffle
algebra: block matrices, the permutation-sum oracle, exact ranks and
determinants."""

import itertools
import random
import time
from fractions import Fraction
from operator import floordiv, truediv

import pytest

from hopfmin import det, shapovalov
from hopfmin.datum import (
    datum_from_q_matrix,
    positive_roots,
    preset_cartan,
    preset_doubled,
    specialize_datum,
)
from hopfmin.det import cyclotomic_factors, gram_determinant
from hopfmin.oracles import (
    all_reduced_words,
    apply_braid_word,
    bubble_word,
    pbw_dims,
    permutation_sum_oracle,
    symmetrizer_matches_permutation_sum,
)
from hopfmin.scalars import (
    QQ, QT, Cyclotomic, CyclotomicField, Poly, RatFunc,
    cyclotomic_polynomial)
from hopfmin.shapovalov import (
    SymEngine,
    SymMatrix,
    _certified_rank,
    _coordinates,
    _eliminate,
    _qt_row,
    determinant_by_elimination,
    matrix_rows,
    rank,
    rank_rows,
    symmetrizer,
)
from hopfmin.words import BlockSizeError, multidegrees_up_to


def _tp(k):
    return RatFunc.t_power(k)


def _random_q(rng, m):
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
            Fraction(-2, 3), Fraction(3), Fraction(-1, 2)]
    return tuple(tuple(rng.choice(pool) for _ in range(m)) for _ in range(m))


def _qt_matrix(entries):
    words = tuple((i + 1,) for i in range(len(entries)))
    return SymMatrix((0,), words, tuple(tuple(r) for r in entries), QT)


def _fraction_rank(mat):
    return _eliminate([list(map(Fraction, row)) for row in mat.entries],
                      truediv)[0]


def _evaluation_rank(rows):
    """The rank over QQ(t) of QQ(t) rows by the evaluation certificate:
    _certified_rank sized by the lesser side of the rows, with the largest
    1-norm of their entries cleared to ZZ[t]."""
    polys = [_qt_row(row)[0] for row in rows]

    def rows_at(x):
        return [[p.eval_at(x) for p in prow] for prow in polys]

    norm = max(sum(map(abs, p.coeffs)) for prow in polys for p in prow)
    return _certified_rank(min(len(rows), len(rows[0])), norm, rows_at)


def test_block_a2_degree_one_one():
    mat = symmetrizer(preset_cartan("A2"), (1, 1))
    assert mat.words == ((1, 2), (2, 1))
    assert mat.entries == ((_tp(0), _tp(-1)), (_tp(-1), _tp(0)))


def test_single_letter_blocks_are_braided_factorials():
    d = preset_cartan("A1")
    q = _tp(2)
    expected = QT.one()
    for k in range(1, 6):
        expected = expected * sum((q ** i for i in range(k)), QT.zero())
        mat = symmetrizer(d, (k,))
        assert mat.entries == ((expected,),)


def test_symmetrizer_matches_permutation_sum():
    rng = random.Random(101)
    data = [preset_cartan("A2"), datum_from_q_matrix(_random_q(rng, 2), QQ)]
    assert symmetrizer_matches_permutation_sum(data, 3) == (None, 10 + 10)


def test_oracle_bound_guard():
    with pytest.raises(ValueError):
        permutation_sum_oracle(preset_cartan("A2"), (4, 3), total_bound=5)


def test_reduced_words_agree_for_diagonal_braidings():
    # braided lifts do not depend on the chosen reduced word
    rng = random.Random(13)
    b = _random_q(rng, 3)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        word = tuple(rng.randint(1, 3) for _ in range(4))
        results = set()
        for seq in all_reduced_words(perm):
            results.add(apply_braid_word(b, word, seq))
        assert len(results) == 1
        assert len(bubble_word(perm)) == len(all_reduced_words(perm)[0])


def test_block_size_guard():
    d = preset_cartan("A2")
    with pytest.raises(BlockSizeError) as exc:
        symmetrizer(d, (4, 4), block_limit=50)
    assert "(4, 4)" in str(exc.value)
    assert exc.value.size == 70


def test_rank_certified_matches_symbolic_on_blocks():
    d = preset_cartan("A2")
    for deg in ((2, 2), (3, 1), (3, 2)):
        mat = symmetrizer(d, deg)
        assert _evaluation_rank(mat.entries) == rank(mat)


def test_rank_certified_matches_symbolic_random():
    rng = random.Random(211)
    for _ in range(15):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                num = Poly(tuple(rng.randint(-9, 9)
                                 for _ in range(rng.randint(0, 3))))
                den = Poly((rng.randint(1, 3), rng.choice((0, 1))))
                row.append(RatFunc(num, den))
            rows.append(row)
        if rng.random() < 0.5 and n >= 2:
            # plant a dependent row to exercise deficient ranks
            f = RatFunc(Poly((0, 1)), Poly((2,)))
            rows[-1] = [x * f for x in rows[0]]
        mat = _qt_matrix(rows)
        assert _evaluation_rank(mat.entries) == rank(mat)


def test_rank_integer_path_matches_symbolic_over_rationals():
    rng = random.Random(307)
    for _ in range(6):
        m = rng.randint(2, 3)
        q = _random_q(rng, m)
        # at least one non-integer entry, so rows really carry denominators
        q = ((Fraction(-2, 3),) + q[0][1:],) + q[1:]
        d = datum_from_q_matrix(q, QQ)
        for deg in multidegrees_up_to(m, 4):
            mat = symmetrizer(d, deg)
            assert all(type(x) is Fraction for row in mat.entries for x in row)
            assert rank(mat) == _fraction_rank(mat)
            _, raw = matrix_rows(deg, SymEngine(d.braiding_matrix))
            assert rank_rows(QQ, raw) == rank(mat)
            if len(mat.words) >= 3:
                # plant a dependent row: a Fraction combination of two others
                a, b = Fraction(rng.randint(-4, 4), 3), Fraction(1, rng.randint(1, 5))
                rows = [list(r) for r in mat.entries]
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
                planted = SymMatrix(mat.multidegree, mat.words,
                                    tuple(tuple(r) for r in rows), QQ)
                assert rank(planted) == _fraction_rank(planted)


def test_rank_certificate_sees_past_a_seed_rank_drop():
    # diag(1, t - p, t - p, 0) mixed by unimodular integer matrices: rank 3
    # over QQ(t) but 1 at p, so a point sized for p's rank + 1 (2 x 2
    # minors) only bounds the rank from below; one sized by the matrix's
    # side finds it
    p = 2
    diag = [[1, 0, 0, 0], [0, (-p, 1), 0, 0], [0, 0, (-p, 1), 0], [0, 0, 0, 0]]
    left = [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    right = [[1, 0, 0, 0], [1, 1, 0, 0], [-2, 1, 1, 0], [0, 3, 1, 1]]

    def poly(x):
        return Poly(x) if isinstance(x, tuple) else Poly((x,))

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(4)), Poly(()))
                 for j in range(4)] for i in range(4)]

    prod = matmul(matmul([[poly(x) for x in r] for r in left],
                         [[poly(x) for x in r] for r in diag]),
                  [[poly(x) for x in r] for r in right])
    mat = _qt_matrix([[RatFunc(e, Poly((1,))) for e in row] for row in prod])
    assert _evaluation_rank(mat.entries) == 3
    assert rank(mat) == 3


def test_rank_certificate_point_clears_minor_roots_above_the_norm():
    # det [[t - 5, 3], [3, t - 5]] = (t - 2)(t - 8): t = 2 and t = 8, just
    # above the entries' 1-norm 6, are both roots, so only a point sized
    # for 2 x 2 minors (2! * 6**2 + 2) sees the full rank
    rows = [[RatFunc(Poly((-5, 1)), Poly((1,))), RatFunc(Poly((3,)), Poly((1,)))],
            [RatFunc(Poly((3,)), Poly((1,))), RatFunc(Poly((-5, 1)), Poly((1,)))]]
    assert _evaluation_rank(rows) == 2
    assert rank(_qt_matrix(rows)) == 2


def test_rank_certificate_one_pass_on_g2():
    mat = symmetrizer(preset_cartan("G2"), (3, 3))
    assert _evaluation_rank(mat.entries) == pbw_dims(
        positive_roots("G2"), preset_cartan("G2").q_matrix, (3, 3))


def test_gram_determinant_rational_matches_fraction_elimination():
    # the doubled blocks are full rank and need an odd number of row swaps
    for preset, name, degs in (
            (preset_cartan, "B2", ((1, 1), (2, 1), (1, 2), (2, 2))),
            (preset_cartan, "G2", ((1, 1), (2, 1), (1, 2), (3, 1))),
            (preset_doubled, "B2", ((0, 1, 1, 1),)),
            (preset_doubled, "G2", ((1, 1, 1, 0),))):
        d = preset(name, base=Fraction(2))
        for deg in degs:
            report = gram_determinant(d, deg)
            mat = symmetrizer(d, deg)
            r, sign, last = _eliminate([list(row) for row in mat.entries],
                                       truediv)
            expected = sign * last if r == len(mat.words) else Fraction(0)
            assert report.rank == r
            assert type(report.determinant) is Fraction
            assert report.determinant == expected


def test_cyclotomic_determinant_inverts_each_pivot_once(monkeypatch):
    # a Gauss step inverts its pivot once and scales the rest of the pivot
    # row by it, so each of the 10 pivot rows of this 12 x 12 block, every
    # one with entries right of its pivot, costs one inverse, not one per
    # entry or per row below
    mat = symmetrizer(specialize_datum(preset_doubled("A2"), 5), (2, 1, 1, 0))
    assert len(mat.words) == 12
    r = _eliminate([list(row) for row in mat.entries], None)[0]
    inverse, calls = Cyclotomic.inverse, []

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    assert determinant_by_elimination(mat) == (r, 0)
    assert len(calls) == r == 10


def test_rank_handles_large_coefficients():
    big = 10 ** 40
    rows = [[RatFunc(Poly((big, 1)), Poly((1,))), RatFunc(Poly((1,)), Poly((1,)))],
            [RatFunc(Poly((big * 2, 2)), Poly((1,))), RatFunc(Poly((2,)), Poly((1,)))]]
    assert rank(_qt_matrix(rows)) == 1
    rows[1][1] = RatFunc(Poly((3,)), Poly((1,)))
    assert rank(_qt_matrix(rows)) == 2


def test_rank_over_rationals_and_cyclotomic():
    q = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    d = datum_from_q_matrix(q, QQ)
    for deg in multidegrees_up_to(2, 4):
        assert rank(symmetrizer(d, deg)) == 1
    from hopfmin.datum import specialize_datum
    dz = specialize_datum(preset_cartan("A1"), 3)
    assert rank(symmetrizer(dz, (2,))) == 1
    assert rank(symmetrizer(dz, (3,))) == 0


def test_gram_determinant_a1():
    d = preset_cartan("A1")
    report = gram_determinant(d, (3,))
    q = _tp(2)
    expected = QT.one()
    for k in (1, 2, 3):
        expected = expected * sum((q ** i for i in range(k)), QT.zero())
    assert report.determinant == expected
    assert report.rank == 1
    assert report.size == 1
    assert report.factors == ((3, 1, 1), (4, 1, 1), (6, 1, 1))
    assert report.remainder == QT.one()


def test_gram_determinant_a2_degree_one_one():
    report = gram_determinant(preset_cartan("A2"), (1, 1))
    assert report.determinant == (_tp(2) - 1) / _tp(2)
    assert report.factors == ((1, 1, 1), (2, 1, 1))
    assert report.remainder == _tp(-2)
    assert report.rank == 2


def test_gram_determinant_zero_block():
    # q = t^2 becomes -1 at a primitive fourth root of unity
    from hopfmin.datum import specialize_datum
    dz = specialize_datum(preset_cartan("A1"), 4)
    report = gram_determinant(dz, (2,))
    assert report.rank == 0
    assert not report.determinant
    assert report.factors == ()


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not run")


@pytest.mark.parametrize("datum, deg, size, block_rank", [
    (preset_cartan("G2"), (4, 3), 35, 12),
    (preset_doubled("A2"), (2, 1, 1, 1), 60, 54)])
def test_singular_determinant_takes_its_rank_from_the_table(
        monkeypatch, datum, deg, size, block_rank):
    # a block below full rank has determinant 0, and neither builds nor
    # eliminates its Sh matrix
    monkeypatch.setattr(shapovalov, "symmetrizer", _refuse)
    monkeypatch.setattr(shapovalov, "determinant_by_elimination", _refuse)
    report = gram_determinant(datum, deg)
    assert (report.size, report.rank) == (size, block_rank)
    assert report.determinant == datum.field.zero()
    assert report.factors == ()


def test_nonzero_closed_form_builds_no_table(monkeypatch):
    # the benchmark's det block: a nonzero closed form proves full rank
    monkeypatch.setattr(det, "compute_blocks", _refuse)
    report = gram_determinant(preset_doubled("G2"), (1, 1, 1, 1))
    assert (report.size, report.rank) == (24, 24)
    assert report.determinant


def test_doubled_g2_factors_are_found_on_the_closed_form_factors(
        monkeypatch):
    # the numerator has degree 336; the search runs on its factors 1 - q_S
    searched = []
    real = det._small_totients

    def recording(degree, bound):
        searched.append(degree)
        return real(degree, bound)

    monkeypatch.setattr(det, "_small_totients", recording)
    report = gram_determinant(preset_doubled("G2"), (1, 1, 1, 1))
    assert report.determinant.num.degree == 336
    assert searched and max(searched) < 336
    assert report.factors == ((1, 1, 46), (2, 1, 46), (3, 1, 34), (4, 1, 22),
                              (6, 1, 34), (8, 1, 2), (12, 1, 10), (16, 1, 2))
    assert report.remainder == RatFunc.t_power(-264)


def _phi_of_power(k, j):
    """Phi_k(t**j), from the coefficients of Phi_k(t) spread j apart."""
    coeffs = cyclotomic_polynomial(k).coeffs
    out = [0] * ((len(coeffs) - 1) * j + 1)
    out[::j] = coeffs
    return Poly(tuple(out))


def test_gram_determinant_against_factor_product():
    # multiplying the factors back recovers the numerator
    d = preset_cartan("B2")
    report = gram_determinant(d, (1, 1), factor_bound=30)
    prod = Poly((1,))
    for k, j, mult in report.factors:
        for _ in range(mult):
            prod = prod * _phi_of_power(k, j)
    assert RatFunc(prod, Poly((1,))) * report.remainder == report.determinant


@pytest.mark.parametrize("name, deg", [
    ("A1", (6,)), ("A2", (1, 1)), ("B2", (2, 1)), ("G2", (3, 1))])
def test_factor_search_skips_only_candidates_above_the_degree(name, deg):
    # every Phi_k(t^j) with k*j <= 40, tried in the same order, finds the
    # same factors as the search that skips those above the degree left
    report = gram_determinant(preset_cartan(name), deg, factor_bound=40)
    num = report.determinant.num
    assert num  # zero would divide by every candidate forever
    found = []
    for j in range(1, 41):
        for k in range(1, 40 // j + 1):
            cand = _phi_of_power(k, j)
            mult = 0
            while True:
                try:
                    num = num.exact_div(cand)
                except ValueError:
                    break
                mult += 1
            if mult:
                found.append((k, j, mult))
    assert report.factors == tuple(found)
    assert report.remainder == RatFunc(num, report.determinant.den)


def _synthetic_numerator(extra=()):
    """Phi_k(t)**mult for k <= 24 and the (k, mult) pairs of extra, times a
    cofactor of degree 271 whose constant term is larger than the sum of
    its other coefficients, so it has no root on the unit circle and no
    cyclotomic factor."""
    rng = random.Random(7)
    cofactor = Poly((1000,) + tuple(rng.randint(-3, 3) for _ in range(270))
                    + (2,))
    split = ((1, 1, 2), (2, 1, 1), (6, 1, 3), (10, 1, 1), (12, 1, 2),
             (24, 1, 1)) + tuple((k, 1, mult) for k, mult in extra)
    num = cofactor
    for k, _, mult in split:
        for _ in range(mult):
            num = num * cyclotomic_polynomial(k)
    return num, split, cofactor


def test_factor_search_huge_bound_matches_default():
    # of the k <= 10**6, only the 588 with phi(k) <= 300 are candidates,
    # and Phi_k(2) | num(2) rejects all but a few of those unbuilt
    num, split, cofactor = _synthetic_numerator()
    assert num.degree == 300
    assert cyclotomic_factors([(num, 1)], 24) == (split, cofactor)
    t0 = time.perf_counter()
    assert cyclotomic_factors([(num, 1)], 10 ** 6) == (split, cofactor)
    assert time.perf_counter() - t0 < 2


def test_factor_search_divides_by_coefficients_past_one():
    # Phi_105 has a coefficient -2, so its division is not all +-1 steps;
    # it lies past the default bound and within a bound of a million
    num, split, cofactor = _synthetic_numerator(extra=((105, 2),))
    phi_105 = cyclotomic_polynomial(105)
    assert -2 in phi_105.coeffs
    assert cyclotomic_factors([(num, 1)], 24) == (
        split[:-1], cofactor * phi_105 * phi_105)
    assert cyclotomic_factors([(num, 1)], 10 ** 6) == (split, cofactor)


def _leibniz_det(a):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(1 for i in range(len(perm))
                         for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total += term
    return total


def _minor_rank(a):
    """Size of the largest square submatrix with a nonzero determinant."""
    for k in range(min(len(a), len(a[0])), 0, -1):
        for rs in itertools.combinations(range(len(a)), k):
            for cs in itertools.combinations(range(len(a[0])), k):
                if _leibniz_det([[a[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def _planted_matrix(rng, entry):
    """A random matrix of up to 5 x 5 with planted defects: a row that is a
    combination of two others, a zero column, or a zero top-left entry so
    the first pivot needs a row swap."""
    n = rng.randint(1, 5)
    m = n if rng.random() < 0.5 else rng.randint(1, 5)
    a = [[entry() for _ in range(m)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0 and n >= 3:
        i, j, k = rng.sample(range(n), 3)
        x, y = entry(), entry()
        a[k] = [x * u + y * v for u, v in zip(a[i], a[j])]
    elif kind == 1:
        col = rng.randrange(m)
        for row in a:
            row[col] = 0 * row[col]
    elif kind == 2:
        a[0][0] = 0 * a[0][0]
    return a


def _cyclotomic_entry(rng, order=5):
    """A small random value of QQ(zeta_order), zero about a third of the
    time, with coordinates that are not all integers."""
    if rng.random() < 0.3:
        return Cyclotomic.const(order, 0)
    return Cyclotomic.of(order, [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                 for _ in range(3)])


@pytest.mark.parametrize("entry_kind, div", [
    ("int", floordiv), ("fraction", truediv), ("fraction", None),
    ("cyclotomic", None)], ids=["int", "fraction", "fraction-gauss",
                                "cyclotomic-gauss"])
def test_eliminate_matches_leibniz_and_minor_rank(entry_kind, div):
    # div None asks for Gauss steps, whose minor is the product of the
    # pivots, where Bareiss steps leave it in the last pivot
    rng = random.Random(1968)
    if entry_kind == "int":
        def entry():
            return rng.choice((0, 0, 1, -1, 2, -3, 5))
    elif entry_kind == "fraction":
        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    else:
        def entry():
            return _cyclotomic_entry(rng)
    full_square = swapped = deficient = 0
    for _ in range(300):
        a = _planted_matrix(rng, entry)
        work = [list(row) for row in a]
        r, sign, minor = _eliminate(work, div)
        assert r == _minor_rank(a), a
        deficient += r < min(len(a), len(a[0]))
        if len(a) == len(a[0]) and r == len(a):
            full_square += 1
            swapped += sign == -1
            assert sign * minor == _leibniz_det(a), a
    # the draw exercises rank drops and full-rank determinants, odd swap
    # parities included
    assert deficient >= 30 and full_square >= 50 and swapped >= 10


def _column_rank(a, cols):
    return _minor_rank([[row[j] for j in cols] for row in a]) if cols else 0


def _check_coordinates(field, a):
    """_coordinates of a against the greedily independent columns of a and
    each column rebuilt from its coordinates; returns whether the last
    pivot row has an entry right of its pivot, once a is eliminated."""
    pivots, coords = _coordinates(field, [list(row) for row in a])
    greedy = []
    for q in range(len(a[0])):
        if _column_rank(a, greedy + [q]) > len(greedy):
            greedy.append(q)
    assert pivots == greedy, a
    for q, pairs in enumerate(coords):
        for row in a:
            assert row[q] == sum((v * row[pivots[k]] for k, v in pairs),
                                 field.zero()), (a, q)
    # up to scale, the last pivot row is the vector of the row space that
    # vanishes on the other pivot columns, so its entry in a column is
    # nonzero exactly when that column has a coordinate on the last pivot
    last = len(pivots) - 1
    return any(k == last for q in range(pivots[-1] + 1, len(a[0]))
               for k, _ in coords[q]) if pivots else False


@pytest.mark.parametrize("field", [QQ, CyclotomicField(5), CyclotomicField(12)],
                         ids=["qq", "zeta5", "zeta12"])
def test_coordinates_rebuild_each_column_from_the_pivot_columns(field):
    rng = random.Random(2024)
    if field == QQ:
        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    else:
        def entry():
            return _cyclotomic_entry(rng, field.order)
    # a square 2 x 2 block, then a 2 x 3 one whose last pivot row has an
    # entry right of its pivot, which must be scaled too
    z = field.zeta() if field != QQ else Fraction(1, 2)
    one = field.one()
    assert not _check_coordinates(field, [[z, one], [one, z * z]])
    assert _check_coordinates(field, [[z, one, one + one], [one, z, z * z]])
    tails = 0
    for _ in range(150):
        # wide: up to 4 rows and 7 columns, with planted dependent and
        # zero columns
        n = rng.randint(1, 4)
        m = rng.randint(n, 7)
        cols = []
        for _ in range(m):
            kind = rng.randrange(4)
            if kind == 0 and cols:
                x, y = entry(), entry()
                u, v = rng.choice(cols), rng.choice(cols)
                cols.append([x * s + y * t for s, t in zip(u, v)])
            elif kind == 1:
                cols.append([field.zero()] * n)
            else:
                cols.append([entry() for _ in range(n)])
        tails += _check_coordinates(field, [list(r) for r in zip(*cols)])
    assert tails >= 50


def test_eliminate_reports_pivot_columns():
    # column 1 is twice column 0, and column 3 is column 0 - 2 * column 2
    rows = [[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 1]]
    cols = []
    assert _eliminate(rows, floordiv, cols)[0] == 2
    assert cols == [0, 2]


def test_one_letter_blocks_are_q_factorials():
    # Sh(x^n) = (n)_q! x^n, with (n)_q! = prod_{k<=n} (1 + q + ... + q^(k-1))
    # and q = b_11 = t^2 on cartan:A1; each run of equal letters is merged
    # once, so the long words stay cheap
    braiding = preset_cartan("A1").braiding_matrix
    q = braiding[0][0]
    engine = SymEngine(braiding)
    factorial = QT.one()
    for n in range(1, 41):
        factorial = factorial * sum((q ** k for k in range(n)), QT.zero())
        assert engine.sym((1,) * n) == {(1,) * n: factorial}
    assert SymEngine(braiding).sym((1,) * 40) == {(1,) * 40: factorial}
