"""QQ(t) blocks ranked at integer points of t: agreement with symbolic
elimination, the seed point, the coideal bound and which blocks it leaves
to an evaluation point, one evaluation per such block, at a point sized by
the bound, and the guarantee that tables over QQ(t) never run the
symmetrizer on RatFunc scalars."""

from math import factorial

import pytest

from hopfmin import cli, growth, shapovalov
from hopfmin.datum import (
    datum_from_q_matrix, positive_roots, preset_cartan, preset_doubled)
from hopfmin.growth import compute_blocks, hilbert_table
from hopfmin.oracles import pbw_dims
from hopfmin.scalars import QQ, QT, RatFunc
from hopfmin.shapovalov import (
    BOUND,
    POINT,
    SEED,
    IntegerPoints,
    SymEngine,
    rank,
    rank_rows,
    symmetrizer,
)
from hopfmin.words import block_size, words_of_multidegree


def _qt_datum(q):
    return datum_from_q_matrix(
        tuple(tuple(QT.parse(x) for x in row) for row in q), QT)


def _assert_table_matches_symbolic(datum, max_total):
    table = hilbert_table(datum, max_total)
    for b in table.blocks:
        assert b.rank == rank(symmetrizer(datum, b.deg)), b.deg


@pytest.mark.parametrize("preset, name, max_total", [
    (preset_cartan, "A2", 5),
    (preset_cartan, "B2", 5),
    (preset_cartan, "G2", 5),
    (preset_doubled, "A2", 4),
])
def test_presets_match_symbolic_rank(preset, name, max_total):
    _assert_table_matches_symbolic(preset(name), max_total)


def test_pole_and_zero_at_two_move_the_seed():
    d = _qt_datum((("t", "1/(t-2)"), ("t-2", "t^2")))
    points = IntegerPoints(d.braiding_matrix)
    assert points.seed == 3
    _assert_table_matches_symbolic(d, 5)


def test_seed_rank_drop_is_settled_at_one_point():
    # q_11 = 1 - t is -1 at the seed point 2, where [2]_q = 1 + q_11 and with
    # it the rank of block (2, 1) vanish; a point sized for seed rank + 1
    # would only bound the rank 1 from below, one sized by the bound 2
    # certifies it
    d = _qt_datum((("1-t", "t"), ("t^-1", "t")))
    points = IntegerPoints(d.braiding_matrix)
    assert points.seed == 2
    rows = points.rows((2, 1))
    assert rank_rows(QQ, rows) == 0
    assert points.keep((2, 1), rows) == 1
    assert points.bound((2, 1)) == 2
    got = points.blocks[(2, 1)]
    assert (got.rank, got.settled) == (1, POINT)
    _assert_table_matches_symbolic(d, 5)


def test_blocks_above_a_rank_jump_pay_for_a_point():
    # the seed ranks of (2, 0) and (2, 1) are below their ranks, and so are
    # those of every block above (2, 1); a bound is at least the rank, so it
    # cannot meet their seed ranks, and a bound that counted the lower
    # blocks' seed ranks instead of their ranks would settle them too low
    d = _qt_datum((("1-t", "t"), ("t^-1", "t")))
    table = hilbert_table(d, 5)
    settled = {b.deg: b.settled for b in table.blocks}
    assert settled[(2, 1)] == POINT
    above = [b.deg for b in table.blocks if b.deg[0] >= 2 and b.deg[1] >= 1]
    assert above == [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1)]
    assert all(settled[deg] == POINT for deg in above)
    assert settled[(1, 2)] == BOUND
    for b in table.blocks:
        assert b.rank == rank(symmetrizer(d, b.deg)), b.deg


@pytest.mark.parametrize("name, max_total, serre", [
    ("A2", 8, {(1, 2), (2, 1)}),
    ("B2", 7, {(1, 2), (3, 1)}),
    ("G2", 7, {(1, 2), (4, 1)}),
])
def test_only_serre_blocks_pay_for_a_point(name, max_total, serre):
    # a weaker bound (one without R, or one that counts dependent vectors
    # in L) sends more blocks to a point
    d = preset_cartan(name)
    roots = positive_roots(name)
    table = hilbert_table(d, max_total)
    for b in table.blocks:
        assert b.rank == pbw_dims(roots, d.q_matrix, b.deg), b.deg
        assert b.settled == (POINT if b.deg in serre
                             else SEED if b.rank == b.size else BOUND)


def test_coideal_bound_of_a2_block_two_two():
    # r(1, 2) = r(2, 1) = 2, so dim L = dim R = 4; L + R has dimension 5,
    # and the bound 2 * 4 - 5 = 3 is the rank
    d = preset_cartan("A2")
    points = IntegerPoints(d.braiding_matrix)
    assert points.keep((2, 2), points.rows((2, 2))) == 3
    got = points.blocks[(2, 2)]
    assert (got.rank, got.settled) == (3, BOUND)
    assert points.bound((2, 2)) == 3
    # the seed basis kept for the block has three vectors
    assert points.images[(2, 2)].rank == 3


@pytest.mark.parametrize("datum, max_total", [
    (_qt_datum((("1-t", "t"), ("t^-1", "t"))), 6), (preset_cartan("G2"), 8),
], ids=["seed-root", "G2"])
def test_point_rows_have_the_rank_of_the_full_block(datum, max_total):
    # a block that pays for a point is rebuilt there word-free; the full Sh
    # block at the same point, from the words, is the reference
    points = IntegerPoints(datum.braiding_matrix)
    paid = [b.deg for b in hilbert_table(datum, max_total).blocks
            if b.settled == POINT]
    assert paid
    for deg in paid:
        points.rows(deg)  # keeps and settles the lower blocks
        s = min(points.bound(deg), block_size(deg))
        point = factorial(s) * points.block_norm(deg) ** s + 2
        for x in (points.seed, point):
            engine = SymEngine(points.braiding_at(x))
            words = words_of_multidegree(deg)
            cols = [engine.sym(w) for w in words]
            full = [[col.get(u, 0) for col in cols] for u in words]
            assert (rank_rows(QQ, engine.rows(deg))
                    == rank_rows(QQ, full)), (deg, x)


def test_lone_block_settles_its_lower_blocks():
    d = preset_cartan("A2")
    full = {b.deg: b for b in hilbert_table(d, 8).blocks}
    (got,) = compute_blocks(d, [(4, 4)])
    assert got == full[(4, 4)]
    assert got.settled == full[(4, 4)].settled == BOUND


def test_full_seed_rank_needs_no_pass():
    d = preset_cartan("A2")
    points = IntegerPoints(d.braiding_matrix)
    assert points.keep((1, 1), points.rows((1, 1))) == 2
    got = points.blocks[(1, 1)]
    assert (got.rank, got.settled) == (2, SEED)


def test_minor_bound_from_norms():
    # A2: Q = t and every P_ij is a monomial, so c = 1 and N = prod d_i!
    points = IntegerPoints(preset_cartan("A2").braiding_matrix)
    assert points.norm == 1
    assert points.block_norm((2, 2)) == 4
    # Q = (t - 2) t, P_11 = (1 - t)(t - 2) t has 1-norm 2 + 3 + 1 = 6
    d = _qt_datum((("1-t", "1/(t-2)"), ("t^-1", "t")))
    points = IntegerPoints(d.braiding_matrix)
    assert points.norm == 6
    assert points.block_norm((1, 1)) == 6


class _RationalOnlyEngine(SymEngine):
    built = 0

    def __init__(self, braiding):
        assert not any(isinstance(x, RatFunc) for row in braiding for x in row)
        type(self).built += 1
        super().__init__(braiding)


class _RationalOnlyPoints(IntegerPoints):
    # the seed engine is built over the braiding at the seed point
    def __init__(self, braiding):
        super().__init__(braiding)
        assert not any(isinstance(x, RatFunc) for row in self.b for x in row)
        _RationalOnlyEngine.built += 1


def test_tables_never_build_ratfunc_engines(monkeypatch, capsys):
    monkeypatch.setattr(growth, "SymEngine", _RationalOnlyEngine)
    monkeypatch.setattr(growth, "IntegerPoints", _RationalOnlyPoints)
    monkeypatch.setattr(shapovalov, "SymEngine", _RationalOnlyEngine)
    _RationalOnlyEngine.built = 0
    table = hilbert_table(_qt_datum((("1-t", "t"), ("t^-1", "t"))), 4)
    assert table.totals() == (1, 2, 3, 4, 5)
    code = cli.main(["analyze", "--preset", "cartan:A2", "--max-total", "5",
                     "--format", "csv"])
    assert code == 0
    assert _RationalOnlyEngine.built > 2  # seed engines and certificate points
    with pytest.raises(AssertionError):
        symmetrizer(preset_cartan("A2"), (1, 1))  # the symbolic route does


def test_each_point_block_takes_one_evaluation(monkeypatch):
    # the seed engine is an IntegerPoints, so every SymEngine built in
    # shapovalov is a certificate point's; points sized for seed rank + 1
    # would need a second one for 10 of these 16 blocks
    monkeypatch.setattr(shapovalov, "SymEngine", _RationalOnlyEngine)
    _RationalOnlyEngine.built = 0
    table = hilbert_table(_qt_datum((("1-t", "t"), ("t^-1", "t"))), 6)
    paid = [b.deg for b in table.blocks if b.settled == POINT]
    assert len(paid) == 16
    assert _RationalOnlyEngine.built == 16
