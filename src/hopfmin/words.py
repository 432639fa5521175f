"""Words in the letters 1..m and the two graded products on their span.

A word is a tuple of letters; its multidegree counts each letter. A vector
in the span of the words is a word -> coefficient dict with no zero
coefficient, as shapovalov.SymEngine.sym returns. The free algebra
multiplies words by concatenation, tuple addition u + v. The shuffle algebra
interleaves them (shuffle_words, and shuffle on vectors), and each time a letter x from the left word ends up after a letter y
from the right word the coefficient picks up the braiding scalar b(x, y).
Both products are graded by multidegree and share the unit: the empty word.

The braiding matrix b is a nested tuple of scalars indexed by letters
(1-based letters, so entry b[x-1][y-1] is the scalar for the pair (x, y)).

This module also owns the block guard, which counts words and blocks before
any are listed (check_block_sizes, guarded_total).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import sub

DEFAULT_BLOCK_LIMIT = 3000
# the most letters a block may have. Tables build blocks from the lower
# images without recursion, but SymEngine.sym recurses once per letter, in
# symmetrizer (det of a full-rank block without a closed form, and the
# oracles), and this leaves room below CPython's default recursion limit
# of 1000 for the frames of the callers (the CLI, a test runner, a tracer)
LETTER_LIMIT = 800
# the most blocks a table may have: about ten seconds at 110 us a block of a
# trivial braiding; the largest table tested, B2 at zeta_5 to 31, has 528
BLOCK_COUNT_LIMIT = 100000


def multidegree(word, m):
    """Letter counts of a word, as a length-m tuple.

    >>> multidegree((1, 3, 1), 3)
    (2, 0, 1)
    """
    deg = [0] * m
    for letter in word:
        deg[letter - 1] += 1
    return tuple(deg)


def block_size(deg):
    """Number of words of the multidegree: the multinomial coefficient."""
    total = 0
    out = 1
    for d in deg:
        if d < 0:
            raise ValueError("multidegrees are componentwise nonnegative")
        total += d
        out *= comb(total, d)
    return out


class BlockSizeError(RuntimeError):
    """A block over the word limit or LETTER_LIMIT, or a table over
    BLOCK_COUNT_LIMIT blocks; multidegree is the block's, None for a table."""

    def __init__(self, deg, size, limit, unit="words", what=None):
        self.multidegree = None if deg is None else tuple(deg)
        self.size = size
        self.limit = limit
        what = what or f"block {self.multidegree}"
        super().__init__(f"{what} has {size} {unit}, over the limit of {limit}")


def check_block_sizes(degs, block_limit):
    """Raise BlockSizeError for the first multidegree whose block has more
    than LETTER_LIMIT letters or more than block_limit words; a block_limit
    of None allows every word count."""
    for deg in degs:
        if sum(deg) > LETTER_LIMIT:
            raise BlockSizeError(deg, sum(deg), LETTER_LIMIT, "letters")
        if block_limit is not None and block_size(deg) > block_limit:
            raise BlockSizeError(deg, block_size(deg), block_limit)


def guarded_total(m, max_total, block_limit):
    """The total degree to list the blocks of m letters up to: max_total,
    unless a lower total holds a block that check_block_sizes refuses, and
    then the first such total, so a huge max_total fails fast: one over
    LETTER_LIMIT, or whose widest block (the most even multidegree) has more
    than block_limit words (None: no limit). Raises BlockSizeError when the
    comb(total + m, m) blocks up to that total pass BLOCK_COUNT_LIMIT."""
    total = min(max_total, LETTER_LIMIT + 1)
    for n in range(min(max_total, LETTER_LIMIT) + 1):
        widest = tuple(n // m + (i < n % m) for i in range(m))
        if block_limit is not None and block_size(widest) > block_limit:
            total = n
            break
    count = comb(total + m, m)
    if count > BLOCK_COUNT_LIMIT:
        raise BlockSizeError(None, count, BLOCK_COUNT_LIMIT, "blocks",
                             f"the table to total {total}")
    return total


def words_of_multidegree(deg):
    """All words with the given letter counts, in lexicographic order.

    >>> words_of_multidegree((1, 2))
    ((1, 2, 2), (2, 1, 2), (2, 2, 1))
    """
    word = [i + 1 for i, d in enumerate(deg) for _ in range(d)]
    out = [tuple(word)]
    # next permutation: bump the last ascent, reverse the tail after it
    while True:
        k = len(word) - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return tuple(out)
        j = len(word) - 1
        while word[j] <= word[k]:
            j -= 1
        word[k], word[j] = word[j], word[k]
        word[k + 1:] = word[:k:-1]
        out.append(tuple(word))


def multidegrees_up_to(m, max_total):
    """All multidegrees of m >= 1 letters with total <= max_total, ordered
    by (total, lex).

    A multidegree of total n is a choice of m - 1 cuts 0 <= c_1 <= ... <=
    c_{m-1} <= n (stars and bars), its letter counts the gaps between 0,
    the cuts and n. combinations_with_replacement lists the cuts in lex
    order, and the counts come out in lex order with them. No recursion,
    so any number of letters.
    """
    out = []
    for n in range(max_total + 1):
        end = (n,)
        out += [tuple(map(sub, cuts + end, (0,) + cuts))
                for cuts in combinations_with_replacement(range(n + 1), m - 1)]
    return tuple(out)


def braid_at(b, word, k):
    """Swap positions k and k+1 (0-based), returning (scalar, new word).

    The scalar is b(x, y) for the departing pair x = word[k], y = word[k+1].
    """
    x = word[k]
    y = word[k + 1]
    return b[x - 1][y - 1], word[:k] + (y, x) + word[k + 2:]


def shuffle_words(b, u, v):
    """Braided shuffle of two words, as a word -> coefficient dict.

    Recursion on last letters, for u = u'a and v = v'y:

        u sh v = beta * (u' sh v) a  +  (u sh v') y

    where beta multiplies the braiding scalars b(a, z) over every letter z
    of v, since a ends up after all of v in the first group of terms.
    """
    memo = {}

    def rec(u, v):
        got = memo.get((u, v))
        if got is not None:
            return got
        if not u:
            out = {v: 1}
        elif not v:
            out = {u: 1}
        else:
            a = u[-1]
            beta = 1
            row = b[a - 1]
            for z in v:
                beta = beta * row[z - 1]
            out = {}
            for w, c in rec(u[:-1], v).items():
                out[w + (a,)] = c * beta
            y = v[-1]
            for w, c in rec(u, v[:-1]).items():
                key = w + (y,)
                merged = out.get(key, 0) + c
                if merged:
                    out[key] = merged
                else:
                    out.pop(key, None)
        memo[(u, v)] = out
        return out

    return rec(tuple(u), tuple(v))


def shuffle(b, x, y):
    """Braided shuffle product over the braiding matrix b of two word ->
    coefficient dicts, as such a dict with no zero coefficient."""
    out = {}
    for u, cu in x.items():
        for v, cv in y.items():
            c = cu * cv
            for w, s in shuffle_words(b, u, v).items():
                merged = out.get(w, 0) + s * c
                if merged:
                    out[w] = merged
                else:
                    out.pop(w, None)
    return out
