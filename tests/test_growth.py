"""Hilbert tables, root-multiset dimension counts, growth verdicts."""

import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from hopfmin.datum import (
    datum_from_q_matrix,
    positive_roots,
    preset_cartan,
    preset_reductive,
    specialize_datum,
)
from hopfmin.growth import (
    EXPONENTIAL_SUSPECTED,
    FINITE,
    INCONCLUSIVE,
    POLYNOMIAL,
    BlockDim,
    HilbertTable,
    compute_blocks,
    dominance_label,
    dominance_verdict,
    growth_classify,
    hilbert_table,
)
from hopfmin.oracles import (
    pbw_dims,
    random_q,
    rank_two_braidings,
    ranks_match_pbw,
)
from hopfmin.scalars import QQ, QT, CyclotomicField
from hopfmin.shapovalov import (
    BOUND, POINT, SEED, IntegerPoints, SymEngine, matrix_rows, rank_rows)
from hopfmin.words import BlockSizeError, block_size, multidegrees_up_to


def test_block_dim_equality_and_hash_ignore_settled():
    # settled records how a run certified the rank, not the result
    plain = BlockDim((1, 0), 1, 1)
    seeded = BlockDim((1, 0), 1, 1, settled=SEED)
    pointed = BlockDim(deg=(1, 0), size=1, rank=1, settled=POINT)
    assert plain == seeded == pointed
    assert hash(plain) == hash(seeded) == hash(pointed)
    assert len({plain, seeded, pointed}) == 1
    assert plain.settled is None and pointed.settled == POINT
    assert plain != BlockDim((1, 0), 1, 0)
    assert plain != BlockDim((0, 1), 1, 1)


def test_records_refuse_assignment():
    block = BlockDim((1, 0), 1, 1, settled=SEED)
    table = HilbertTable(1, (block,))
    for record, name in [(block, "deg"), (block, "rank"),
                         (block, "settled"), (table, "max_total"),
                         (table, "blocks")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (block.rank, block.settled) == (1, SEED)


def test_record_reprs_are_unchanged():
    block = BlockDim((1, 0), 1, 1, settled=SEED)
    assert repr(block) == "BlockDim(deg=(1, 0), size=1, rank=1)"
    assert repr(HilbertTable(1, (block,))) == (
        "HilbertTable(max_total=1, blocks=(BlockDim(deg=(1, 0), size=1, "
        "rank=1),))")
    assert repr(BlockDim((2, 1), 3, 2, POINT)) == (
        "BlockDim(deg=(2, 1), size=3, rank=2)")


def test_records_take_their_fields_by_position_or_name():
    block = BlockDim((2, 1), 3, 2, POINT)
    named = BlockDim(settled=POINT, rank=2, size=3, deg=(2, 1))
    assert block == named and named.settled == POINT
    for args, kwargs in [(((2, 1), 3), {}), (((2, 1), 3, 2, None, 0), {}),
                         (((2, 1), 3, 2), {"deg": (2, 1)}),
                         (((2, 1), 3, 2), {"how": POINT})]:
        with pytest.raises(TypeError):
            BlockDim(*args, **kwargs)


def test_pbw_dims_by_hand():
    # at generic t every N_beta is infinite: root-multiset counts
    roots, q = positive_roots("A2"), preset_cartan("A2").q_matrix
    assert pbw_dims(roots, q, (0, 0)) == 1
    assert pbw_dims(roots, q, (1, 0)) == 1
    assert pbw_dims(roots, q, (1, 1)) == 2
    assert pbw_dims(roots, q, (2, 1)) == 2
    assert pbw_dims(roots, q, (2, 2)) == 3
    b2, q = positive_roots("B2"), preset_cartan("B2").q_matrix
    assert pbw_dims(b2, q, (1, 1)) == 2
    assert pbw_dims(b2, q, (2, 1)) == 3
    assert pbw_dims(b2, q, (2, 2)) == 4
    # with q_beta = -1 for every root, each root appears at most once
    assert pbw_dims(roots, ((-1, -1), (1, -1)), (1, 1)) == 2
    assert pbw_dims(roots, ((-1, -1), (1, -1)), (2, 2)) == 1


def test_hilbert_table_reductive():
    q = ((Fraction(1),) * 3,) * 3
    d = datum_from_q_matrix(q, QQ)
    table = hilbert_table(d, 6)
    assert all(b.rank == 1 for b in table.blocks)
    assert table.totals() == (1, 3, 6, 10, 15, 21, 28)


def test_hilbert_table_matches_kostant_a2():
    d = preset_cartan("A2")
    roots = positive_roots("A2")
    table = hilbert_table(d, 5)
    for b in table.blocks:
        assert b.rank == pbw_dims(roots, d.q_matrix, b.deg)
    assert table.totals() == (1, 2, 4, 6, 9, 12)


def test_cache_gaps_settle_their_missing_lower_blocks():
    d = preset_cartan("A2")
    full = {b.deg: b for b in compute_blocks(d, multidegrees_up_to(2, 8))}
    # gaps, as a library caller may leave them
    degs = [deg for i, deg in enumerate(multidegrees_up_to(2, 8)) if i % 3]
    got = compute_blocks(d, degs)
    assert got == tuple(full[deg] for deg in degs)
    assert [b.settled for b in got] == [full[deg].settled for deg in degs]
    assert dict(zip(degs, got))[(4, 4)].settled == BOUND


def test_compute_blocks_ranks_each_requested_block_once(monkeypatch):
    # perfbench sums the ranks growth.rank_rows returns; lower blocks that
    # the coideal bound settles on demand must not pass through it
    from hopfmin import growth

    calls = []
    real = growth.rank_rows

    def counting(*args, **kwargs):
        calls.append(kwargs["deg"])
        return real(*args, **kwargs)

    monkeypatch.setattr(growth, "rank_rows", counting)
    got = compute_blocks(preset_cartan("A2"), [(4, 4), (2, 3)])
    assert calls == [(4, 4), (2, 3)]
    assert [b.rank for b in got] == [5, 3]


_ZETA3_A2 = specialize_datum(preset_cartan("A2"), 3)
_TRIVIAL3 = datum_from_q_matrix(((Fraction(1),) * 3,) * 3, QQ)
_FIELD_CASES = [(_ZETA3_A2, 8), (_TRIVIAL3, 6),
                (datum_from_q_matrix(random_q(random.Random(3), 2), QQ), 7)]


@pytest.mark.parametrize("datum, max_total", [
    (preset_cartan("A2"), 6), (_ZETA3_A2, 6), (_FIELD_CASES[2][0], 4),
], ids=["QQ(t)", "zeta3", "QQ"])
def test_every_engine_keeps_the_block_records(datum, max_total):
    # an engine driven block by block keeps the record compute_blocks
    # returns for each block, and over QQ(t) how the rank was certified
    qt = datum.field == QT
    engine = (IntegerPoints if qt else SymEngine)(datum.braiding_matrix)
    degs = multidegrees_up_to(datum.m, max_total)
    for deg in degs:
        _, rows = matrix_rows(deg, engine)
        rank_rows(datum.field, rows, deg=deg, engine=engine)
    expected = compute_blocks(datum, degs)
    assert engine.blocks == {b.deg: b for b in expected}
    for b in expected:
        settled = engine.blocks[b.deg].settled
        assert settled == b.settled
        if qt:
            assert settled in (SEED, BOUND, POINT)
        else:
            assert settled is None


def test_lone_cyclotomic_block_builds_its_lower_blocks():
    full = {b.deg: b for b in hilbert_table(_ZETA3_A2, 8).blocks}
    (got,) = compute_blocks(_ZETA3_A2, [(4, 4)])
    assert got == full[(4, 4)]
    assert got.rank == 1


@pytest.mark.parametrize("datum", [
    _ZETA3_A2, _TRIVIAL3, specialize_datum(preset_cartan("B2"), 5),
    preset_cartan("A2"),
], ids=["zeta3", "QQ", "zeta5", "QQ(t)"])
def test_compute_blocks_builds_one_engine_per_call(monkeypatch, datum):
    # one table engine, which builds every block and its lower images: a
    # SymEngine over QQ and QQ(zeta_N), an IntegerPoints over QQ(t), whose
    # certificate builds engines at its points that are not table engines
    from hopfmin import growth

    built = []

    def counting(cls):
        return lambda braiding: built.append(cls) or cls(braiding)

    monkeypatch.setattr(growth, "SymEngine", counting(growth.SymEngine))
    monkeypatch.setattr(growth, "IntegerPoints",
                        counting(growth.IntegerPoints))
    degs = multidegrees_up_to(datum.m, 6)
    got = compute_blocks(datum, degs)
    assert len(built) == 1
    assert [b.deg for b in got] == [tuple(g) for g in degs]


def test_no_qq_t_block_is_certified_twice(monkeypatch):
    # (2, 3) is kept, and settled, on demand while (4, 4) is built; asked
    # for next, it reads its record
    from hopfmin import shapovalov

    certified = []
    real = shapovalov.IntegerPoints._certify

    def counting(self, deg):
        certified.append(deg)
        return real(self, deg)

    monkeypatch.setattr(shapovalov.IntegerPoints, "_certify", counting)
    got = compute_blocks(preset_cartan("A2"), [(4, 4), (2, 3)])
    assert [b.rank for b in got] == [5, 3]
    assert (2, 3) in certified
    assert len(certified) == len(set(certified))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
@pytest.mark.parametrize("order, base", [(1, 1), (2, -1)])
def test_width_one_cyclotomic_tables_match_rational_tables(name, order,
                                                          base):
    # QQ(zeta_1) and QQ(zeta_2) are QQ, phi(N) = 1: the engine reads the
    # field off a braiding of Cyclotomic values, eliminates on Cyclotomic
    # scalars and must rank as over QQ at t = zeta_N
    cyclotomic = specialize_datum(preset_cartan(name), order)
    assert cyclotomic.field == CyclotomicField(order)
    assert (hilbert_table(cyclotomic, 7).dims()
            == hilbert_table(preset_cartan(name, base=Fraction(base)), 7).dims())


@pytest.mark.parametrize("datum, max_total", _FIELD_CASES,
                         ids=["zeta3", "trivial", "random"])
def test_cache_gaps_build_their_missing_lower_blocks(datum, max_total):
    every = multidegrees_up_to(datum.m, max_total)
    full = dict(zip(every, compute_blocks(datum, every)))
    # gaps, as a library caller may leave them
    degs = [deg for i, deg in enumerate(every) if i % 3]
    got = compute_blocks(datum, degs)
    assert got == tuple(full[deg] for deg in degs)


@pytest.mark.parametrize("datum, max_total", _FIELD_CASES,
                         ids=["zeta3", "trivial", "random"])
def test_compute_blocks_ranks_each_requested_block_once_in_every_field(
        monkeypatch, datum, max_total):
    # the lower blocks built on demand do not pass through growth.rank_rows
    from hopfmin import growth

    calls = []
    real = growth.rank_rows

    def counting(*args, **kwargs):
        calls.append(kwargs["deg"])
        return real(*args, **kwargs)

    every = multidegrees_up_to(datum.m, max_total)
    full = dict(zip(every, compute_blocks(datum, every)))
    monkeypatch.setattr(growth, "rank_rows", counting)
    degs = [every[-1], every[len(every) // 2]]
    got = compute_blocks(datum, degs)
    assert calls == degs
    assert list(got) == [full[deg] for deg in degs]


@pytest.mark.parametrize("datum, max_total", _FIELD_CASES + [
    (specialize_datum(preset_cartan("B2"), 5), 9),
    (datum_from_q_matrix(random_q(random.Random(5), 3), QQ), 5),
    (preset_cartan("G2"), 7),
    (datum_from_q_matrix(tuple(tuple(QT.parse(x) for x in row)
                               for row in (("1-t", "t"), ("t^-1", "t"))), QT),
     7),
], ids=["zeta3", "trivial", "random", "b2-zeta5", "random3", "G2",
        "seed-root"])
def test_tables_list_no_word(monkeypatch, datum, max_total):
    # blocks are built from rank-sized maps between the lower images, over
    # QQ(t) at the seed and at the points that the blocks left to one pay
    # for (G2 and seed-root have some)
    from hopfmin import shapovalov

    def refuse(*args):
        raise AssertionError(f"words were listed or symmetrized: {args}")

    expected = hilbert_table(datum, max_total)
    monkeypatch.setattr(shapovalov, "words_of_multidegree", refuse)
    monkeypatch.setattr(shapovalov.SymEngine, "sym", refuse)
    got = hilbert_table(datum, max_total)
    assert got == expected
    assert [b.settled for b in got.blocks] == [
        b.settled for b in expected.blocks]


def test_compute_blocks_keeps_input_order_across_cache_gaps():
    d = preset_cartan("A2")
    every = multidegrees_up_to(2, 5)
    full = dict(zip(every, compute_blocks(d, every)))
    # gaps, as a library caller may leave them, and one degree out of
    # total order
    degs = [deg for i, deg in enumerate(every) if i % 3]
    degs.append((1, 0))
    got = compute_blocks(d, degs)
    assert [b.deg for b in got] == degs
    assert got == tuple(full[deg] for deg in degs)


def test_hilbert_table_guard_names_block():
    d = preset_reductive("A2")
    with pytest.raises(BlockSizeError) as exc:
        hilbert_table(d, 8, block_limit=100)
    assert exc.value.size > 100
    assert block_size(exc.value.multidegree) == exc.value.size


def test_hilbert_table_fails_fast_on_huge_max_total():
    # the library stops at the first refused total degree, as the CLI does,
    # instead of enumerating every multidegree up to a billion first; the
    # child's address space is capped, so a regression fails this test
    # rather than exhausting memory
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from hopfmin import BlockSizeError, hilbert_table, preset_cartan
try:
    hilbert_table(preset_cartan("A2"), 10 ** 9)
except BlockSizeError as exc:
    print(exc.multidegree)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30)
    assert proc.stdout == "(6, 8)\n"


def test_growth_finite():
    v = growth_classify((1, 1, 1, 0, 0, 0, 0))
    assert v.kind == FINITE
    assert v.evidence["last_nonzero_degree"] == 2


def test_growth_polynomial_constant_and_linear():
    v = growth_classify((1,) * 7)
    assert (v.kind, v.degree) == (POLYNOMIAL, 0)
    v = growth_classify(tuple(range(1, 10)))
    assert (v.kind, v.degree) == (POLYNOMIAL, 1)
    v = growth_classify(tuple((k + 1) * (k + 2) // 2 for k in range(9)))
    assert (v.kind, v.degree) == (POLYNOMIAL, 2)


def test_growth_polynomial_period_two():
    # quasi-polynomial totals whose differences oscillate with period two
    v = growth_classify((1, 2, 2, 3, 3, 4, 4))
    assert (v.kind, v.degree) == (POLYNOMIAL, 1)
    assert v.evidence["mode"] == "alternating"
    assert v.evidence["differences_tail"] == [0, 1, 0]
    v = growth_classify((1, 2, 4, 6, 9, 12, 16, 20, 25))  # A2 to degree 8
    assert (v.kind, v.degree) == (POLYNOMIAL, 2)
    assert v.evidence["mode"] == "alternating"
    assert v.evidence["differences_tail"] == [1, 0, 1]


def test_growth_one_stride_two_equality_is_not_enough():
    # second differences 0, 0, 2, 0 end in 0, 2, 0, equal at stride two
    # once; two equalities are needed
    assert growth_classify((5, 4, 3, 2, 1, 2, 3)).kind != POLYNOMIAL
    # cartan:B2 to degree 7: the totals grow cubically, and their second
    # differences 1, 1, 2, 1 end in a lone stride-two equality
    v = growth_classify((1, 2, 4, 7, 11, 16, 23, 31))
    assert v.kind == INCONCLUSIVE


def test_growth_exponential_suspected():
    v = growth_classify((1, 2, 4, 8, 16, 32, 64))
    assert v.kind == EXPONENTIAL_SUSPECTED
    v = growth_classify((1, 2, 4, 6, 9, 12, 16, 20, 25))
    assert v.kind != EXPONENTIAL_SUSPECTED


def test_growth_inconclusive():
    v = growth_classify((1, 2, 4))
    assert v.kind == INCONCLUSIVE
    assert "need totals" in v.evidence["reason"]
    v = growth_classify((1, 5, 2, 9, 3, 7, 8))
    assert v.kind == INCONCLUSIVE


def test_growth_window_validation():
    with pytest.raises(ValueError):
        growth_classify((1, 1, 1), window=0)
    # a one-term window is constant in every sequence
    with pytest.raises(ValueError, match="at least 2"):
        growth_classify((1, 2, 4, 7, 11), window=1)


def test_growth_exponential_needs_window_ratios():
    # the window (1, 2, 3) has only two ratios, 2 and 3/2; the third, over
    # the total before the window, is 1/2
    v = growth_classify((5, 4, 3, 2, 1, 2, 3))
    assert v.kind == INCONCLUSIVE
    v = growth_classify((1, 2, 4, 8, 16, 32, 64), window=3)
    assert v.kind == EXPONENTIAL_SUSPECTED
    assert v.evidence["ratios"] == ["2", "2", "2"]
    # a jump into the window is one of its ratios
    assert growth_classify((1, 1, 1, 1, 3, 6, 12)).kind == EXPONENTIAL_SUSPECTED
    assert growth_classify((1, 1, 1, 1, 1, 3, 6)).kind != EXPONENTIAL_SUSPECTED


def test_dominance_labels():
    fin = growth_classify((1, 1, 0, 0, 0, 0, 0))
    assert dominance_label(fin, 6).startswith("dominant at truncation 6")
    poly = growth_classify((1,) * 7)
    assert "polynomial of degree 0" in dominance_label(poly, 6)
    exp = growth_classify((1, 2, 4, 8, 16, 32, 64))
    assert dominance_label(exp, 6).startswith("not dominant")
    unk = growth_classify((1, 2, 4))
    assert dominance_label(unk, 2).startswith("undetermined")


def test_dominance_verdict_end_to_end():
    q = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    d = datum_from_q_matrix(q, QQ)
    report = dominance_verdict(d, 6)
    assert report.verdict.kind == POLYNOMIAL
    assert report.verdict.degree == 1
    assert report.dominance.startswith("dominant")


@pytest.mark.parametrize("totals", [
    (1, 2, 3, 4, 5, 6, 7, 6, 5),
    # A2 at a primitive cube root of unity, truncated at degree 10: the
    # table is finite, but its window has not reached zero yet
    (1, 2, 4, 4, 5, 4, 4, 2, 1, 0, 0),
])
def test_growth_falling_tail_is_not_polynomial(totals):
    v = growth_classify(totals)
    assert v.kind == INCONCLUSIVE
    assert v.evidence["trailing"] == list(totals[-3:])
    assert dominance_label(v, len(totals) - 1).startswith("undetermined")


def test_growth_constant_and_rising_tails_still_settle():
    assert growth_classify((3, 2, 1, 1, 1, 1, 1)).kind == POLYNOMIAL
    v = growth_classify((9, 1, 2, 3, 4, 5, 6))
    assert (v.kind, v.degree) == (POLYNOMIAL, 1)


@pytest.mark.parametrize("name, order, max_total", [
    ("A2", 3, 10), ("B2", 3, 7), ("G2", 5, 5), ("B2", 5, 18),
])
def test_specialized_cartan_totals_match_lusztig(name, order, max_total):
    # Lusztig's small quantum group at a primitive order-th root of unity,
    # block by block: every N_beta is the order. B2 at zeta_5 goes past
    # total 13, where the widest block has 3432 words, over the default
    # word limit of analyze
    datum = specialize_datum(preset_cartan(name), order)
    assert ranks_match_pbw(datum, positive_roots(name), max_total) == (
        None, math.comb(max_total + 2, 2))


@pytest.mark.parametrize("k, totals", [
    (0, (1, 2, 3, 4, 4, 4, 4)),
    (1, (1, 2, 2, 2, 2, 2, 2)),
    (2, (1, 2, 3, 5, 7, 9, 11)),
])
def test_rank_two_braidings_match_pbw(k, totals):
    datum, roots = rank_two_braidings()[k]
    assert ranks_match_pbw(datum, roots, 6) == (None, 28)
    assert hilbert_table(datum, 6).totals() == totals
    for n in (3, 4, 5, 6):
        assert ranks_match_pbw(specialize_datum(datum, n), roots, 7) == (
            None, 36), n


@pytest.mark.parametrize("field, q", [
    *((CyclotomicField(n), CyclotomicField(n).zeta()) for n in (2, 3, 4, 5)),
    (QT, QT.gen()),
    *((QQ, Fraction(x)) for x in (1, -1, 2)),
], ids=["zeta2", "zeta3", "zeta4", "zeta5", "t", "1", "-1", "2"])
def test_one_letter_matches_pbw(field, q):
    datum = datum_from_q_matrix(((q,),), field)
    assert ranks_match_pbw(datum, ((1,),), 7) == (None, 8)


def _palindromic(totals):
    """Whether the totals up to the last nonzero one read the same backwards."""
    top = max(i for i, x in enumerate(totals) if x)
    return totals[:top + 1] == totals[top::-1]


def test_finite_tables_satisfy_poincare_duality():
    # Poincare duality: the Hilbert series of a finite-dimensional minimal
    # quotient is a palindromic polynomial
    small_a2 = hilbert_table(specialize_datum(preset_cartan("A2"), 3), 10)
    assert small_a2.totals() == (1, 2, 4, 4, 5, 4, 4, 2, 1, 0, 0)
    # q_ii = -1 and q_ij q_ji = 1: the exterior algebra on three letters
    q = ((-1, Fraction(2), Fraction(-3)),
         (Fraction(1, 2), -1, Fraction(5, 7)),
         (Fraction(-1, 3), Fraction(7, 5), -1))
    exterior = hilbert_table(datum_from_q_matrix(q, QQ), 5)
    assert exterior.totals() == (1, 3, 3, 1, 0, 0)
    assert _palindromic(small_a2.totals())
    assert _palindromic(exterior.totals())
    assert not _palindromic((1, 2, 1, 1, 0))


_SPECIALIZED_ORDERS = range(2, 7)


@lru_cache(maxsize=None)
def _cartan_tables(name, max_total):
    """The generic table of a Cartan preset and its tables at zeta_N."""
    generic = preset_cartan(name)
    return hilbert_table(generic, max_total), {
        n: hilbert_table(specialize_datum(generic, n), max_total)
        for n in _SPECIALIZED_ORDERS}


def _generated_in_degree_one(totals):
    return all(totals[n] <= totals[k] * totals[n - k]
               for n in range(len(totals)) for k in range(n + 1))


@pytest.mark.parametrize("name, max_total", [("A2", 6), ("B2", 5), ("G2", 5)])
def test_cartan_tables_are_generated_in_degree_one(name, max_total):
    # the quotient is generated by the letters, so degree n is spanned by
    # products of degree k and degree n - k
    generic, specialized = _cartan_tables(name, max_total)
    for table in (generic, *specialized.values()):
        assert _generated_in_degree_one(table.totals())


def test_random_rational_tables_are_generated_in_degree_one():
    rng = random.Random(811)
    for _ in range(4):
        datum = datum_from_q_matrix(random_q(rng, 3), QQ)
        assert _generated_in_degree_one(hilbert_table(datum, 4).totals())


@pytest.mark.parametrize("name, max_total", [("A2", 6), ("B2", 5), ("G2", 5)])
def test_specialization_never_raises_a_block_rank(name, max_total):
    # a minor that is nonzero at t = zeta_N is nonzero over QQ(t)
    generic, specialized = _cartan_tables(name, max_total)
    for n, table in specialized.items():
        for low, high in zip(table.blocks, generic.blocks):
            assert low.deg == high.deg
            assert low.rank <= high.rank, (n, low.deg)
