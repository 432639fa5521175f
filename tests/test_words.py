"""Words, multidegrees, the block guard, and the braided shuffle of words
and of word -> coefficient dicts."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from hopfmin.words import (
    BLOCK_COUNT_LIMIT,
    DEFAULT_BLOCK_LIMIT,
    LETTER_LIMIT,
    BlockSizeError,
    block_size,
    braid_at,
    guarded_total,
    multidegrees_up_to,
    shuffle,
    shuffle_words,
    words_of_multidegree,
)


def _random_braiding(rng, m):
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
            Fraction(-1, 3), Fraction(3, 2)]
    return tuple(tuple(rng.choice(pool) for _ in range(m)) for _ in range(m))


def test_block_size_is_multinomial():
    assert block_size((0,)) == 1
    assert block_size((2, 1)) == 3
    assert block_size((2, 2)) == 6
    assert block_size((1, 1, 1)) == 6
    assert block_size((3, 2, 1)) == math.factorial(6) // (6 * 2)


def test_words_of_multidegree():
    words = words_of_multidegree((2, 1))
    assert words == ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert words == tuple(sorted(words))
    for deg in ((0, 0), (3, 1), (2, 2, 1)):
        ws = words_of_multidegree(deg)
        assert len(ws) == block_size(deg)
        assert len(set(ws)) == len(ws)
        assert all(tuple(map(w.count, range(1, len(deg) + 1))) == deg
                   for w in ws)


def test_words_of_long_multidegrees():
    # words longer than the interpreter's recursion limit
    assert words_of_multidegree((1500,)) == ((1,) * 1500,)
    ws = words_of_multidegree((1500, 1))
    assert ws == tuple((1,) * k + (2,) + (1,) * (1500 - k)
                       for k in range(1500, -1, -1))


def test_multidegrees_up_to_order_and_count():
    degs = multidegrees_up_to(2, 3)
    assert degs[0] == (0, 0)
    totals = [sum(d) for d in degs]
    assert totals == sorted(totals)
    for m, n in ((1, 5), (2, 4), (3, 3)):
        assert len(multidegrees_up_to(m, n)) == math.comb(n + m, m)


def test_multidegrees_up_to_matches_sorted_product():
    for m in range(1, 5):
        for n in range(6):
            want = sorted((d for d in product(range(n + 1), repeat=m)
                           if sum(d) <= n), key=lambda d: (sum(d), d))
            assert multidegrees_up_to(m, n) == tuple(want), (m, n)


def test_multidegrees_up_to_takes_more_letters_than_the_recursion_limit():
    units = sorted(tuple(int(i == j) for i in range(1500)) for j in range(1500))
    assert multidegrees_up_to(1500, 1) == ((0,) * 1500, *units)


@pytest.mark.parametrize("m, max_total, block_limit, total", [
    (20, 5, DEFAULT_BLOCK_LIMIT, 5),  # comb(25, 5) = 53130 blocks
    # the first total with a block over the word limit: (6, 8), 3003 words
    (2, 10 ** 9, DEFAULT_BLOCK_LIMIT, 14),
    (1, 10 ** 9, None, LETTER_LIMIT + 1),  # one block per total
])
def test_guarded_total_stops_at_the_first_refused_total(
        m, max_total, block_limit, total):
    assert guarded_total(m, max_total, block_limit) == total


@pytest.mark.parametrize("m, max_total, block_limit, total", [
    (20, 6, DEFAULT_BLOCK_LIMIT, 6),  # comb(26, 6) = 230230 blocks
    (100, 6, DEFAULT_BLOCK_LIMIT, 6),  # about 1.7e9 blocks
    (2, 10 ** 9, None, LETTER_LIMIT + 1),  # no word limit: 322003 blocks
])
def test_guarded_total_refuses_a_table_of_too_many_blocks(
        m, max_total, block_limit, total):
    count = math.comb(total + m, m)
    assert count > BLOCK_COUNT_LIMIT
    with pytest.raises(BlockSizeError) as exc:
        guarded_total(m, max_total, block_limit)
    assert (exc.value.multidegree, exc.value.size) == (None, count)
    assert str(exc.value) == (f"the table to total {total} has {count} "
                              f"blocks, over the limit of {BLOCK_COUNT_LIMIT}")


def test_braid_at():
    b = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    scalar, word = braid_at(b, (1, 2, 2), 0)
    assert scalar == Fraction(2)
    assert word == (2, 1, 2)
    scalar, word = braid_at(b, (1, 2, 2), 1)
    assert scalar == Fraction(4)
    assert word == (1, 2, 2)


def test_shuffle_classical_counts():
    # with braiding 1 the shuffle of distinct letters lists interleavings
    one = ((Fraction(1), Fraction(1), Fraction(1)),) * 3
    out = shuffle_words(one, (1, 2), (3,))
    assert out == {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1}
    # repeated letters pick up multiplicity
    out = shuffle_words(one, (1, 1), (1, 1))
    assert out == {(1, 1, 1, 1): 6}


def test_shuffle_single_letters_pick_up_braiding():
    q = Fraction(5, 7)
    b = ((q,),)
    out = shuffle_words(b, (1,), (1,))
    assert out == {(1, 1): 1 + q}


def test_shuffle_unit_and_bilinearity():
    rng = random.Random(5)
    b = _random_braiding(rng, 2)
    u = {(1, 2): Fraction(2), (2, 2): 1}
    e = {(): 1}
    assert shuffle(b, u, e) == u
    assert shuffle(b, e, u) == u
    v = {(1,): 1}
    w = {(2,): Fraction(3)}
    lhs = shuffle(b, u, v | w)
    uv, uw = shuffle(b, u, v), shuffle(b, u, w)
    assert lhs == {k: uv.get(k, 0) + uw.get(k, 0)
                   for k in uv.keys() | uw.keys()}
    assert shuffle(b, u, {}) == {}


def test_shuffle_of_vectors_drops_zero_coefficients():
    # with braiding 1, (1 - 2) sh (1 + 2) = 2*11 - 2*22: 12 and 21 cancel
    one = ((Fraction(1), Fraction(1)),) * 2
    x = {(1,): 1, (2,): -1}
    y = {(1,): 1, (2,): 1}
    assert shuffle(one, x, y) == {(1, 1): 2, (2, 2): -2}
    assert shuffle(one, x, {(): 1, (2, 1): 0}) == x


def test_shuffle_associative_random():
    rng = random.Random(17)
    for _ in range(20):
        m = rng.choice((2, 3))
        b = _random_braiding(rng, m)
        words = [tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3)))
                 for _ in range(3)]
        x, y, z = ({w: 1} for w in words)
        assert shuffle(b, shuffle(b, x, y), z) == shuffle(b, x, shuffle(b, y, z))


def test_shuffle_degree_is_graded():
    rng = random.Random(29)
    b = _random_braiding(rng, 2)
    out = shuffle_words(b, (1, 2), (2, 1))
    for w in out:
        assert (w.count(1), w.count(2)) == (2, 2)
