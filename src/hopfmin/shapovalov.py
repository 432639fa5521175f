"""Blockwise pairing matrices between the free and shuffle algebras.

For each multidegree the canonical map from the free braided algebra to the
shuffle algebra sends a word w to its braided symmetrization Sh(w), the sum
over all permutations of the letter positions, each permutation lifted along
a reduced word of adjacent braided swaps (the lift is well defined because
adjacent swaps of a diagonal braiding satisfy the braid relations). The
matrix of Sh on a multidegree block, columns indexed by source words, is the
object of interest here: its rank is the dimension of the minimal quotient
in that multidegree, and its determinant generalizes the classical pairing
determinant of highest-weight theory.

Sh is computed by the recursion

    S_1 = id,   S_n = (id (x) S_{n-1}) o R_n,
    R_n = id + c_1 + c_1 c_2 + ... + c_1 c_2 ... c_{n-1},

whose j-th term moves letter w[j] to the front across everything before it,
picking up prod_{i<j} b(w[i], w[j]) (SymEngine.sym). The permutation-sum
definition is kept as an independent oracle (oracles.permutation_sum_oracle)
and the two are compared in the tests.

Rank tables need only the image of Sh, and build no Sh matrix and list no
word: each block keeps rank-sized maps between the images, the skew
derivations of the Nichols algebra (Andruskiewitsch and Schneider, Pointed
Hopf algebras, 2002) as a linear representation (Berstel and Reutenauer,
Noncommutative Rational Series, 2011), built by a recursion (SymEngine).

Ranks and determinants come from one elimination (_eliminate), with one
rule per ring its rows live in; each field's clearing rule, _clearing,
takes raw symmetrizer scalars into that ring once per row. QQ rows become
coprime ints and QQ(t) rows integer polynomials, eliminated by fraction-free
Bareiss steps (Bareiss, Math. Comp. 22, 1968), whose divisions only have to
be exact in that ring (Sylvester's identity): floor division, and exact
division in ZZ[t]. Cyclotomic rows stay field scalars, eliminated by Gauss
steps, which invert each pivot once, by its Galois norm. Row scalings leave
the rank unchanged and divide out of the determinant. Table blocks
(SymEngine.keep) and word-indexed SymMatrix blocks (rank,
determinant_by_elimination) are eliminated alike.

Over QQ(t) table ranks are integer ranks instead, at integer points of t.
So each table route is checked against rank(mat) on other matrices (words,
not derivation maps), and over QQ(t) with other arithmetic too.

A table rank over QQ(t) starts from the integer rank at a small seed point
of t, a certified lower bound (evaluation never raises a rank). The QQ(t)
table engine, IntegerPoints, is a SymEngine over the braiding at the seed,
so it builds blocks over QQ, and it settles a block's rank in the BlockDim
it keeps of it (as every table engine does): at once when its seed rank is
full or meets the coideal bound (IntegerPoints.bound). The other blocks (in
the cartan presets, only the Serre blocks) pay for one evaluation at an
integer point B above every coefficient a minor of the bound's size can
have, so that a nonzero one stays nonzero at t = B (_certified_rank). The
bound is at least the rank, so the rank at B is the rank over QQ(t). The
block is rebuilt at B by the same recursion as at the seed, over the
braiding at t = B, and lists no word there either.

Block determinants (det.gram_determinant) sit one layer up, above growth.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import floordiv

from .scalars import (
    QQ, QT, _P_ONE, Cyclotomic, CyclotomicField, Poly, RatFunc, Record,
    poly_gcd)
from .words import (
    DEFAULT_BLOCK_LIMIT, block_size, check_block_sizes, words_of_multidegree)


class SymMatrix(Record):
    """Matrix of Sh on one multidegree block.

    entries[i][j] is the coefficient of words[i] in Sh(words[j]); all
    entries are scalars of the field.
    """

    __slots__ = _fields = ("multidegree", "words", "entries", "field")


# How IntegerPoints settled the rank of a block (BlockDim.settled)
SEED = "seed"
BOUND = "bound"
POINT = "point"


class BlockDim(Record):
    """What a table engine keeps of one block: deg, an int tuple; size, its
    word count; rank, over the datum's field. settled is how IntegerPoints
    certified the rank over QQ(t), SEED, BOUND or POINT, and None on other
    fields: a record of the run, not part of the result, so equality,
    hashing and the repr leave it out."""

    __slots__ = _fields = ("deg", "size", "rank", "settled")
    _defaults = {"settled": None}
    _hidden = ("settled",)


class Image(Record):
    """The image of Sh on block deg, by its rank and maps in its basis x_k:
    right[c][k] (left[c][k], IntegerPoints only) holds the coordinates of
    d^R_c x_k (d^L_c x_k) in the basis of block deg - e_c, and mul[a][i]
    those of a sh y_i, y_i the basis of block deg - e_a, in the x_k, as
    (k, scalar) pairs, zeros left out."""

    __slots__ = _fields = ("rank", "right", "mul", "left")


def _lowers(deg):
    """(letter a, deg - e_a) for each letter a present in deg."""
    return [(a + 1, deg[:a] + (d - 1,) + deg[a + 1:])
            for a, d in enumerate(deg) if d]


def _shuffled(images, derivs, a, i, c, top, scale, unit):
    """scale * (a sh D_c x_i) + [a = c] * unit * x_i in the basis of block
    top = deg - e_c, for x_i the basis of block deg - e_a and D_c one of its
    derivatives, with matrices derivs[c]."""
    out = [0] * images[top].rank
    if a == c:
        out[i] = unit
    if c in derivs:
        mul = images[top].mul[a]
        for j, v in enumerate(derivs[c][i]):
            if v:
                v = scale * v
                for k, w in mul[j]:
                    out[k] += v * w
    return out


def _chi(row, e):
    """chi_a(e) = prod_k b(a, k) ** e_k, for row = b(a, .): the scalar the
    letter a picks up moving to the back across a word of multidegree e."""
    return prod((x ** k for x, k in zip(row, e) if k), start=1)


class SymEngine:
    """Memoized symmetrizer over one braiding matrix, and the images of the
    blocks a table has built.

    sym results are raw word -> coefficient dicts shared across calls, so
    all sub-multidegrees of a block are computed once. Integer-valued
    Fraction braidings are thinned to ints, which keeps coefficient
    arithmetic on classical (all-ones) braidings in plain int. The field
    blocks are eliminated over is read off the braiding once: QQ(zeta_N)
    when an entry is a Cyclotomic of order N, QQ otherwise.

    Tables never call sym. Sh((a,) + v) = a sh Sh(v) (Sh takes concatenation
    to the braided shuffle product; Rosso, Invent. Math. 133, 1998), so
    Im Sh_d is spanned by the vectors a sh x, x over a basis of
    Im Sh_{d - e_a}. A vector y of positive degree is fixed by its right
    derivatives d^R_c y: u -> y[u c], which map Im Sh_d to Im Sh_{d - e_c};
    with the left ones d^L_b y: u -> y[b u],

        d^R_c (a sh x) = a sh d^R_c x + [a = c] chi_a(d - e_a) x,
        d^L_b (a sh x) = [a = b] x + b(a, b) a sh d^L_b x.

    So a spanning vector a sh x of block d is a column over the bases of
    the blocks d - e_c (rows), and one elimination gives its rank and
    basis (keep). images and blocks map each block kept so far to its
    Image and its BlockDim.
    """

    def __init__(self, braiding):
        def slim(x):
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator
            return x

        self.b = tuple(tuple(slim(x) for x in row) for row in braiding)
        self.field = next((CyclotomicField(x.order) for row in self.b
                           for x in row if isinstance(x, Cyclotomic)), QQ)
        self.memo = {(): {(): 1}}
        self.images = {}
        self.blocks = {}

    def sym(self, w):
        """Sh(w) as a word -> coefficient dict.

        Deleting any letter of a run of equal adjacent letters leaves the
        same subword, and each letter's scalar in the run is the one before
        times b(a, a); so a run's scalars are summed and its subword merged
        once.
        """
        got = self.memo.get(w)
        if got is not None:
            return got
        b = self.b
        out = {}
        n = len(w)
        j = 0
        while j < n:
            head = w[j]
            hcol = head - 1
            scalar = 1
            for i in range(j):
                scalar = scalar * b[w[i] - 1][hcol]
            start = j
            j += 1
            total = scalar
            same = b[hcol][hcol]
            while j < n and w[j] == head:
                scalar = scalar * same
                total = total + scalar
                j += 1
            if not total:
                continue
            sub = self.sym(w[:start] + w[start + 1:])
            for u, c in sub.items():
                key = (head,) + u
                prev = out.get(key)
                if prev is None:
                    out[key] = total * c
                else:
                    merged = prev + total * c
                    if merged:
                        out[key] = merged
                    else:
                        del out[key]
        self.memo[w] = out
        return out

    def rows(self, deg):
        """The rows of block deg: column (a, i) is a sh x_i, for each
        letter a of deg in _lowers order and x_i over the basis of block
        deg - e_a, as its right derivatives, a row group per letter c over
        the basis of block deg - e_c. Lower blocks without an Image are
        kept first, lowest first, on an explicit stack."""
        deg = tuple(deg)
        images = self.images
        stack = [deg]
        while stack:
            d = stack[-1]
            missing = [low for _, low in _lowers(d) if low not in images]
            if missing:
                stack += missing
                continue
            stack.pop()
            if d != deg and d not in images:
                self.keep(d, self._columns(d))
        return self._columns(deg)

    def _columns(self, deg):
        if not any(deg):
            return [[1]]  # Sh(()) = 1
        images = self.images
        lowers = _lowers(deg)
        cols = []
        for a, low in lowers:
            chi = _chi(self.b[a - 1], low)
            for i in range(images[low].rank):
                cols.append([v for c, top in lowers for v in _shuffled(
                    images, images[low].right, a, i, c, top, 1, chi)])
        return [list(r) for r in zip(*cols)]

    def keep(self, deg, rows):
        """Rank over the engine's field of block deg from the rows this
        engine built for it. A block kept for the first time keeps its
        Image, its basis the pivot columns of one elimination, right their
        row groups, mul every column's coordinates in them (_coordinates)
        and left what _left keeps, then its BlockDim (_certify)."""
        deg = tuple(deg)
        if deg in self.blocks:
            return self.blocks[deg].rank
        images = self.images
        pivots, coords = _coordinates(self.field, rows)
        lowers = _lowers(deg)  # none in degree 0, whose rows are [[1]]
        right, mul = {}, {}
        start = 0  # row group c and column group a = c have the same length
        for c, low in lowers:
            stop = start + images[low].rank
            right[c] = [[row[p] for row in rows[start:stop]] for p in pivots]
            mul[c] = coords[start:stop]
            start = stop
        images[deg] = Image(len(pivots), right, mul, self._left(lowers, pivots))
        self.blocks[deg] = self._certify(deg)
        return self.blocks[deg].rank

    def _certify(self, deg):
        """The BlockDim of kept block deg, with the rank of its Image."""
        return BlockDim(deg, block_size(deg), self.images[deg].rank)

    def _left(self, lowers, pivots):
        return {}  # left maps: only IntegerPoints keeps them, for its bound


def matrix_rows(deg, engine):
    """(None, rows) of block deg (SymEngine.rows) for rank_rows: the
    spanning vectors of Im Sh_deg as columns of their right derivatives, so
    the rows have the rank of the block. The entries are the engine's raw
    scalars; an IntegerPoints engine's are at its seed point, over QQ. The
    None holds the place of the pair that perfbench's probe of matrix_rows
    unpacks.
    """
    return None, engine.rows(deg)


def symmetrizer(datum, deg, block_limit=DEFAULT_BLOCK_LIMIT):
    """The Sh matrix of one multidegree block as a SymMatrix."""
    check_block_sizes([deg], block_limit)
    words = words_of_multidegree(deg)
    cols = list(map(SymEngine(datum.braiding_matrix).sym, words))
    coerce = datum.field.coerce  # the engine's scalars: QQ ones are ints
    return SymMatrix(tuple(deg), words,
                     tuple(tuple(coerce(col.get(u, 0)) for col in cols)
                           for u in words),
                     datum.field)


# ---------------------------------------------------------------------------
# exact rank and determinant


def _eliminate(rows, div, pivots=None):
    """Elimination in place, by one rule per ring the rows live in; returns
    (rank, sign, minor), minor the determinant of the pivot rows on the
    pivot columns, so that on a square matrix of full rank sign * minor is
    the determinant.

    Pivots are the first nonzero entry of each column scanning down from the
    current row; columns without one are skipped. So the pivot columns are
    the greedily independent columns; each is appended to the list pivots
    when one is given.

    Given div, the steps are fraction-free Bareiss steps: each updated entry
    is a minor of the input (Sylvester's identity) divided by the previous
    pivot, itself a minor, so div only has to divide exactly in the ring
    the rows live in (floor division on ints, polynomial division on QQ(t)
    rows over denominator 1), and minor is the last pivot. With div None
    the rows are over a field and the steps are Gauss steps: the pivot is
    multiplied into minor and set to 1, the rest of its row is scaled by
    its inverse, taken once, and each row below adds a multiple of that
    rest over its nonzero entries only. Entries below a pivot are left
    stale but are never read again.
    """
    n = len(rows)
    if n == 0:
        return 0, 1, None
    ncols = len(rows[0])
    minor = None
    rank = 0
    sign = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, n):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        if pivots is not None:
            pivots.append(col)
        prow = rows[rank]
        p = prow[col]
        if div is None:
            minor = p if minor is None else minor * p
            prow[col] = 1
            rest = [j for j in range(col + 1, ncols) if prow[j]]
            if rest:
                inverse = 1 / p
                for j in rest:
                    prow[j] = prow[j] * inverse
                for i in range(rank + 1, n):
                    ri = rows[i]
                    a = ri[col]
                    if a:
                        a = -a
                        for j in rest:
                            ri[j] = ri[j] + a * prow[j]
        else:
            for i in range(rank + 1, n):
                ri = rows[i]
                a = ri[col]
                if a:
                    for j in range(col + 1, ncols):
                        val = p * ri[j] - a * prow[j]
                        ri[j] = div(val, minor) if minor is not None else val
                else:
                    for j in range(col + 1, ncols):
                        v = ri[j]
                        if v:
                            val = p * v
                            ri[j] = div(val, minor) if minor is not None else val
            minor = p
        rank += 1
        if rank == n:
            break
    return rank, sign, minor


def _int_row(row):
    """A row of ints and Fractions as coprime ints (times the lcm den of its
    denominators, over the gcd g of the result, which keeps Bareiss pivots
    small); returns them and the multiplier Fraction(den, g)."""
    den = 1
    try:
        g = gcd(*row)  # ints only: any Fraction, even an integral one, raises
    except TypeError:
        den = lcm(*[x.denominator for x in row if type(x) is not int])
        row = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*row)
    g = g or 1
    return [x // g for x in row] if g > 1 else list(row), Fraction(den, g)


def _den_lcm(row):
    """Least common multiple of the denominators in a RatFunc row."""
    out = _P_ONE
    for e in row:
        if e.num.coeffs and e.den.coeffs != (1,):
            g = poly_gcd(out, e.den)
            out = out * e.den.exact_div(g) if g.coeffs != (1,) else out * e.den
    return out


def _qt_row(row):
    """A row of QQ(t) scalars times the lcm of its denominators, as integer
    Poly entries; returns them and that lcm, a Poly."""
    row = [QT.coerce(e) for e in row]
    den = _den_lcm(row)
    if den.coeffs == (1,):
        return [e.num for e in row], den
    return [e.num * den.exact_div(e.den) for e in row], den


def _clearing(field):
    """The elimination rule of a field as (clear_row, div): clear_row takes
    a row of raw symmetrizer scalars into the ring _eliminate runs on and
    returns it with its multiplier. QQ rows become coprime ints and QQ(t)
    rows integer polynomials, for Bareiss steps with div an exact division
    there (floor division, Poly.exact_div). Cyclotomic rows stay field
    scalars, every zero one shared object, with multiplier 1, and div None
    asks for Gauss steps: each pivot is inverted once, by its Galois norm
    in int arithmetic (Cyclotomic.inverse)."""
    if field == QQ:
        return _int_row, floordiv
    if field == QT:
        return _qt_row, Poly.exact_div
    coerce = field.coerce
    zero = field.zero()

    def clear(row):
        return [coerce(x) if x else zero for x in row], 1

    return clear, None


def _certified_rank(s, norm, rows_at):
    """The rank over QQ(t) of a matrix over ZZ[t] whose rank is at most s,
    from one evaluation.

    norm bounds the coefficient 1-norm of every entry (up to a common factor
    that does not vanish at the point used), and rows_at(x) gives rows with
    the rank of the matrix at t = x (IntegerPoints' word-free rows of a
    block). An s x s minor is a sum of s! products of s entries, so its
    1-norm is at most s! * norm**s, and no integer root of a nonzero one
    exceeds 1 + its height, which is at most that 1-norm. So at
    B = s! * norm**s + 2 every nonzero minor of size at most s stays
    nonzero. The rank r over QQ(t) is at most s, so some nonzero r x r
    minor survives at B, and evaluation never raises a rank: the rank at B
    is r.
    """
    return rank_rows(QQ, rows_at(factorial(s) * norm ** s + 2))


def _norm1(poly):
    return sum(abs(c) for c in poly.coeffs)


class IntegerPoints(SymEngine):
    """The table engine of a QQ(t) braiding, read at integer values of t,
    where its Sh blocks are QQ matrices with the same rank as long as the
    point is chosen well.

    Every entry of Sh is an integer polynomial in the braiding entries, so
    evaluating t commutes with Sh wherever no braiding denominator vanishes.
    Let Q be the lcm of the braiding denominators, P_ij = b_ij * Q and c the
    largest coefficient 1-norm among Q and the P_ij. On a block of
    multidegree d and total n, with K = n(n-1)/2, each entry of Q**K * Sh
    sums prod(d_i!) braided lifts of at most K braiding factors, so it is an
    integer polynomial of 1-norm at most N = prod(d_i!) * c**K (block_norm),
    the norm _certified_rank bounds the minors with. For n >= 2, Q has
    1-norm at most c <= N, so it does not vanish at the certificate points
    either; smaller blocks are 1 x 1 with entry 1 and need no certificate.

    The seed is the least integer x >= 2 with Q(x) != 0. The engine is a
    SymEngine over the braiding there, so it builds the table's blocks over
    QQ, and their seed ranks are certified lower bounds. keep settles each
    block after its lower ones, in its BlockDim (_certify), by the first of:

    * full rank at the seed (SEED);
    * the coideal bound (bound), when it equals the seed rank (BOUND);
    * _certified_rank at one certificate point B, sized by the lesser of
      the bound and the block size (POINT); in the cartan presets, only
      the Serre blocks, such as (1, 2) and (2, 1) of A2. A fresh engine
      over the braiding at t = B builds the block's rows (SymEngine.rows),
      as at the seed. In positive degree y -> (d^R_c y)_c is one to one, so
      they have the rank of Sh at B.
    """

    def __init__(self, braiding):
        self.braiding = braiding
        den = _den_lcm([b for row in braiding for b in row])
        self.norm = max([_norm1(den)] + [
            _norm1(b.num * den.exact_div(b.den)) for row in braiding for b in row])
        seed = 2
        while not den.eval_at(seed):
            seed += 1
        self.seed = seed
        super().__init__(self.braiding_at(seed))

    def braiding_at(self, x):
        """The braiding at t = x as Fractions."""
        return tuple(tuple(Fraction(b.num.eval_at(x), b.den.eval_at(x))
                           for b in row) for row in self.braiding)

    def block_norm(self, deg):
        n = sum(deg)
        return prod(map(factorial, deg)) * self.norm ** (n * (n - 1) // 2)

    def _left(self, lowers, pivots):
        """d^L_b of each pivot column a sh x_i, in the basis of deg - e_b."""
        images = self.images
        columns = [(a, low, i) for a, low in lowers
                   for i in range(images[low].rank)]
        return {b: [_shuffled(images, images[low].left, a, i, b, top,
                              self.b[a - 1][b - 1], 1)
                    for a, low, i in map(columns.__getitem__, pivots)]
                for b, top in lowers}

    def _certify(self, deg):
        """The certified BlockDim of kept block deg. Its lower blocks are
        settled, so the bound is at least its rank and sizes the point."""
        size = block_size(deg)
        seed = self.images[deg].rank
        if seed == size:
            return BlockDim(deg, size, seed, SEED)
        s = min(self.bound(deg), size)
        if s == seed:
            return BlockDim(deg, size, seed, BOUND)
        r = _certified_rank(s, self.block_norm(deg),
                            lambda x: SymEngine(self.braiding_at(x)).rows(deg))
        return BlockDim(deg, size, r, POINT)

    def bound(self, deg):
        """An upper bound on the rank over QQ(t) of kept block deg, of total
        degree at least 2, from the settled lower blocks deg - e_a.

        Sh factors as (sum_a id_a (x) Sh) o R and as its mirror
        (sum_a Sh (x) id_a) o R', so its image lies in L and in R, where
        L = sum_a a.Im Sh_{deg-e_a} and R = sum_a Im Sh_{deg-e_a}.a. Both
        sums are direct (the first, or last, letters differ), so each has
        dimension S = sum_a r(deg - e_a), over the certified ranks, and the
        rank is at most dim(L meet R) = 2S - dim(L + R). The vectors a.x and
        x.a, for x over the seed basis of each lower block, lie in L + R at
        the seed, so their rank k is at most dim(L + R), and 2S - k is the
        bound. The map y -> (d^L_a d^R_c y)_{a,c} is one to one on total
        degree 2 and up, and takes x.b to ([c = b] d^L_a x) and b.x to
        ([a = b] d^R_c x), over the bases of the blocks deg - e_a - e_c;
        so k is read from the lower Images' maps. A bound equal to the seed
        rank certifies it; it can be that tight when each lower block's rank
        is its seed rank.
        """
        images = self.images
        lowers = _lowers(deg)
        pairs = [(a, c, images[tuple(
                     d - (k == a) - (k == c) for k, d in enumerate(deg, 1))].rank)
                 for a, low in lowers for c, _ in lowers if c in images[low].right]
        vectors = []
        for b, low in lowers:
            x = images[low]
            for i in range(x.rank):
                vectors.append([v for a, c, n in pairs for v in (
                    x.left[a][i] if c == b else [0] * n)])
                vectors.append([v for a, c, n in pairs for v in (
                    x.right[c][i] if a == b else [0] * n)])
        total = sum(self.blocks[low].rank for _, low in lowers)
        return 2 * total - rank_rows(QQ, vectors)


def rank_rows(field, rows, deg=None, engine=None):
    """Exact rank over field of a block given as rows of raw symmetrizer
    scalars (or field scalars): _eliminate on the nonzero rows, cleared by
    the field's _clearing rule. A table block (growth) passes its
    multidegree deg and the engine whose rows built it (matrix_rows)
    instead: engine.keep keeps the block's Image and BlockDim (in
    engine.blocks) and returns its rank over the datum's field, which an
    IntegerPoints engine certifies over QQ(t)."""
    if engine is not None:
        return engine.keep(deg, rows)
    clear, div = _clearing(field)
    return _eliminate([clear(row)[0] for row in rows if any(row)], div)[0]


def _coordinates(field, rows):
    """(pivots, coords): the pivot columns of rows (the greedily independent
    ones, _eliminate), and each column's coordinates in them as (index,
    scalar) pairs, zeros left out.

    The first eliminated rows are triangular on the pivot columns. Over a
    field their pivots are 1, so back substitution on a column divides by
    nothing. On int rows the last pivot D is the minor on the pivot columns
    (Sylvester's identity); by Cramer's rule D times a coordinate is a minor
    too, so back substitution on D times a column divides exactly.
    """
    ncols = len(rows[0]) if rows else 0
    clear, div = _clearing(field)
    cleared = [clear(row)[0] for row in rows if any(row)]
    pivots = []
    r, _, minor = _eliminate(cleared, div, pivots)
    den = abs(minor) if div and r else 1  # D and -D serve alike
    where = {p: k for k, p in enumerate(pivots)}
    coords = []
    for q in range(ncols):
        if q in where:
            coords.append([(where[q], 1)])
            continue
        y = [0] * r
        for k in range(r - 1, -1, -1):
            row = cleared[k]
            acc = row[q] * den
            for m in range(k + 1, r):
                if y[m]:
                    acc -= row[pivots[m]] * y[m]
            p = row[pivots[k]]
            y[k] = acc if p == 1 else acc // p
        coords.append([(k, v if den == 1 else v // den if v % den == 0
                        else Fraction(v, den)) for k, v in enumerate(y) if v])
    return pivots, coords


def rank(mat):
    """Exact rank of a SymMatrix over its field (rank_rows)."""
    return rank_rows(mat.field, mat.entries)


def determinant_by_elimination(mat):
    """(rank, determinant) of a square SymMatrix by _eliminate.

    The determinant is the signed minor of the elimination of the rows
    cleared by the field's _clearing rule, over the product of the row
    multipliers, or the field's zero below full rank.
    """
    field = mat.field
    clear, div = _clearing(field)
    cleared = [clear(row) for row in mat.entries]
    r, sign, minor = _eliminate([row for row, _ in cleared], div)
    if r < len(cleared):
        return r, field.zero()
    scales = [scale for _, scale in cleared]
    if field == QT:
        return r, RatFunc(minor if sign > 0 else -minor,
                          prod(scales, start=_P_ONE))
    return r, field.coerce(sign * minor) / field.coerce(prod(scales))
