"""Property checks shared by `hopfmin selftest` and the acceptance tests,
and the permutation-sum definition of Sh that they check the symmetrizer
against.

Each check returns (detail, count): detail is None when every case agrees,
else it names the first mismatch; count is the number of cases compared.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .datum import datum_from_q_matrix
from .det import multilinear_determinant
from .growth import hilbert_table
from .scalars import QQ, QT, Cyclotomic
from .shapovalov import (
    SymEngine,
    SymMatrix,
    determinant_by_elimination,
    rank,
    symmetrizer,
)
from .words import braid_at, multidegrees_up_to, shuffle, words_of_multidegree

POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
        Fraction(-2), Fraction(2, 3), Fraction(-1, 3), Fraction(3),
        Fraction(-3, 2))


def random_q(rng, m):
    """An m x m q matrix with entries drawn from POOL."""
    return tuple(tuple(rng.choice(POOL) for _ in range(m)) for _ in range(m))


def random_word_pair(rng, m, max_total):
    """Two words in letters 1..m whose lengths add up to at most max_total."""
    total = rng.randint(0, max_total)
    cut = rng.randint(0, total)
    u = tuple(rng.randint(1, m) for _ in range(cut))
    v = tuple(rng.randint(1, m) for _ in range(total - cut))
    return u, v


def planted_q(rng, m):
    """A random_q matrix (m >= 2) made to have q_S = 1 on a random subset S
    of at least two letters, so that every multilinear block holding S has
    determinant 0: the entry of one ordered pair in S is the inverse of the
    product over the others."""
    q = [list(row) for row in random_q(rng, m)]
    subset = rng.sample(range(m), rng.randint(2, m))
    pairs = [(i, j) for i in subset for j in subset if i != j]
    (i, j), rest = pairs[0], pairs[1:]
    q[i][j] = 1 / prod((q[a][b] for a, b in rest), start=Fraction(1))
    return tuple(map(tuple, q))


def corrupted(braiding):
    """The braiding with the sign of its (1, 2) entry flipped."""
    rows = [list(row) for row in braiding]
    rows[0][1] = -rows[0][1]
    return tuple(map(tuple, rows))


def bubble_word(perm):
    """One reduced swap sequence sorting the array, positions 0-based.

    The sequence length equals the inversion count, so the corresponding
    braided lift is length-minimal.
    """
    arr = list(perm)
    seq = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                seq.append(i)
                changed = True
    return tuple(seq)


def all_reduced_words(perm):
    """Every reduced swap sequence sorting the array; exponential, keep small."""
    arr = tuple(perm)
    if all(arr[i] <= arr[i + 1] for i in range(len(arr) - 1)):
        return ((),)
    out = []
    for i in range(len(arr) - 1):
        if arr[i] > arr[i + 1]:
            swapped = arr[:i] + (arr[i + 1], arr[i]) + arr[i + 2:]
            for rest in all_reduced_words(swapped):
                out.append((i,) + rest)
    return tuple(out)


def apply_braid_word(b, word, positions):
    """Apply successive braided swaps, returning (scalar, final word)."""
    scalar = 1
    cur = tuple(word)
    for p in positions:
        s, cur = braid_at(b, cur, p)
        scalar = scalar * s
    return scalar, cur


def permutation_sum_oracle(datum, deg, total_bound=5):
    """Sh on a block straight from the definition: sum over all permutations
    of braided lifts along reduced words. Factorial cost; the bound guards it.
    """
    total = sum(deg)
    if total > total_bound:
        raise ValueError(
            f"oracle bound {total_bound} exceeded for multidegree {tuple(deg)}")
    words = words_of_multidegree(deg)
    b = datum.braiding_matrix
    cols = []
    for w in words:
        acc = {}
        for perm in itertools.permutations(range(total)):
            scalar, cur = apply_braid_word(b, w, bubble_word(perm))
            merged = acc.get(cur, 0) + scalar
            if merged:
                acc[cur] = merged
            else:
                acc.pop(cur, None)
        cols.append(acc)
    coerce = datum.field.coerce
    zero = datum.field.zero()
    entries = tuple(
        tuple(zero if cols[j].get(u) is None else coerce(cols[j][u])
              for j in range(len(words)))
        for u in words)
    return SymMatrix(tuple(deg), words, entries, datum.field)


def symmetrizer_matches_permutation_sum(data, bound):
    """The recursive Sh blocks against the permutation-sum definition, on
    every multidegree of total at most bound."""
    cases = [(k, datum, deg) for k, datum in enumerate(data)
             for deg in multidegrees_up_to(datum.m, bound)]
    for count, (k, datum, deg) in enumerate(cases, 1):
        got = symmetrizer(datum, deg)
        want = permutation_sum_oracle(datum, deg, total_bound=bound)
        if (got.words, got.entries) != (want.words, want.entries):
            return f"datum {k}: mismatch at multidegree {deg}", count
    return None, len(cases)


def root_order(q, beta):
    """N_beta: the least k >= 2 with q_beta ** k = 1, for q_beta the product
    of q[i][j] ** (beta_i beta_j), else None (infinite). Roots of unity in
    QQ(zeta_N) have orders dividing lcm(2, N); in QQ and QQ(t), 1 or 2."""
    q_beta = prod(x ** (a * b) for row, a in zip(q, beta)
                  for x, b in zip(row, beta))
    if q_beta == 1:
        return None
    top = 2 * q_beta.order if isinstance(q_beta, Cyclotomic) else 2
    return next((k for k in range(2, top + 1) if q_beta ** k == 1), None)


def pbw_dims(roots, q, deg):
    """Coefficient of x^deg in prod_beta (1 - x^(N_beta beta)) / (1 - x^beta)
    over the roots, N_beta = root_order(q, beta): the ways to write deg as
    sum k_beta beta with 0 <= k_beta < N_beta. By Kharchenko's PBW theorem
    (Algebra and Logic 38, 1999) it is the rank of the Sh block of deg when
    roots are the braiding's positive roots, as in Heckenberger's rank-two
    list (Algebr. Represent. Theory 11, 2008).

    >>> from hopfmin.datum import positive_roots, preset_cartan
    >>> a2 = positive_roots("A2")
    >>> pbw_dims(a2, preset_cartan("A2").q_matrix, (2, 2))  # generic t
    3
    >>> pbw_dims(a2, ((-1, -1), (1, -1)), (2, 2))  # every N_beta is 2
    1
    """
    series = {(0,) * len(deg): 1}
    for beta in roots:
        n = root_order(q, beta) or sum(deg) + 1  # k_beta <= sum(deg) anyway
        out = {}
        for d, c in series.items():
            for _ in range(n):
                if any(a > b for a, b in zip(d, deg)):
                    break
                out[d] = out.get(d, 0) + c
                d = tuple(a + b for a, b in zip(d, beta))
        series = out
    return series.get(deg, 0)


def rank_two_braidings():
    """Non-Cartan rank-two QQ(t) data of Heckenberger's list with their roots:
    q21 = 1, (q11, q12, q22) = (t, 1/t, -1), (-1, t, -1) or (t, t^-2, -1)."""
    t, one, roots = QT.gen(), QT.one(), ((1, 0), (0, 1), (1, 1))
    return [(datum_from_q_matrix(((q11, q12), (one, -one)), QT), roots + more)
            for q11, q12, more in ((t, 1 / t, ()), (-one, t, ()),
                                   (t, t ** -2, ((2, 1),)))]


def ranks_match_pbw(datum, roots, bound):
    """Block ranks of the datum against pbw_dims over the given roots."""
    blocks = hilbert_table(datum, bound, block_limit=None).blocks
    for count, b in enumerate(blocks, 1):
        expected = pbw_dims(roots, datum.q_matrix, b.deg)
        if b.rank != expected:
            return f"block {b.deg}: rank {b.rank}, expected {expected}", count
    return None, len(blocks)


def transposition_invariant(qs, bound):
    """Transposing each rational q matrix leaves its dimension table alone."""
    count = 0
    for q in qs:
        m = len(q)
        qt = tuple(tuple(q[j][i] for j in range(m)) for i in range(m))
        t1 = hilbert_table(datum_from_q_matrix(q, QQ), bound)
        t2 = hilbert_table(datum_from_q_matrix(qt, QQ), bound)
        count += len(t1.blocks)
        if t1.dims() != t2.dims():
            return f"transposed table differs for q = {q}", count
    return None, count


def table_matches_blocks(data, bound):
    """Each block rank of hilbert_table, which builds a block from the
    lower images, against the rank of the full Sh block from symmetrizer,
    on each datum to total degree bound."""
    count = 0
    for k, datum in enumerate(data):
        for b in hilbert_table(datum, bound).blocks:
            count += 1
            want = rank(symmetrizer(datum, b.deg))
            if b.rank != want:
                return (f"datum {k}: block {b.deg} has table rank {b.rank}, "
                        f"full block rank {want}"), count
    return None, count


def shuffle_morphism(sym_braiding, shuffle_braiding, pairs):
    """Sh(u . v) = Sh(u) shuffled with Sh(v) on each word pair, with Sh taken
    in sym_braiding and the shuffle in shuffle_braiding."""
    engine = SymEngine(sym_braiding)
    for count, (u, v) in enumerate(pairs, 1):
        if engine.sym(u + v) != shuffle(shuffle_braiding, engine.sym(u),
                                        engine.sym(v)):
            return f"Sh(u.v) != Sh(u) sh Sh(v) for u, v = {(u, v)}", count
    return None, len(pairs)


def multilinear_det_matches_elimination(cases):
    """The closed form of a multilinear block's determinant against the
    elimination of its Sh block, on each (datum, deg) case. Elimination
    gives 0 exactly below full rank, so equal determinants also mean the
    closed form is nonzero exactly when the block has full rank."""
    for count, (datum, deg) in enumerate(cases, 1):
        got = multilinear_determinant(datum, deg)
        mat = symmetrizer(datum, deg)
        r, want = determinant_by_elimination(mat)
        if got != want:
            render = datum.field.render
            return (f"multidegree {deg}: closed form {render(got)}, "
                    f"elimination {render(want)} at rank {r} of "
                    f"{len(mat.words)}"), count
    return None, len(cases)
