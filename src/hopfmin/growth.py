"""Dimension tables by multidegree and growth verdicts on their totals.

The dimension of the minimal quotient in a multidegree is the rank of the
Sh block there. Collecting every multidegree of total degree up to a bound
gives a truncated Hilbert table; summing ranks along total degree gives the
sequence the growth classifier looks at. Every table runs in one serial
block loop, compute_blocks, in this process: each block is built from the
blocks below it, so splitting a table across processes would make each of
them rebuild most of it.

Classification inspects a trailing window of the totals:

* all zeros there: Finite;
* falling there (non-increasing, not constant) but not all zero:
  Inconclusive, since a polynomial fit to a tail on its way down to zero
  would claim growth the data does not show;
* some k-th difference sequence settles (constant across the window, or
  equal at stride two across the window and one term before it, which
  catches period-two quasi-polynomial dimension counts such as graded
  root-system tables): Polynomial(k) for the least such k < window;
* the window's ratios (each total over the one before, over the last
  window + 1 totals) all at least EXPONENTIAL_RATIO: ExponentialSuspected;
* anything else, or a history shorter than twice the window: Inconclusive.

The stride-two clause is deliberate: totals of a free-to-shuffle table over
a rank-two root system oscillate in their second differences forever, and a
literal constancy test would never settle. It takes two stride-two
equalities at the default window, since one is met by chance, as by the
cubic totals of B2 to degree 7.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import QT, Record
from .shapovalov import (  # BlockDim is re-exported as growth.BlockDim
    BlockDim, IntegerPoints, SymEngine, matrix_rows, rank_rows)
from .words import (
    DEFAULT_BLOCK_LIMIT, check_block_sizes, guarded_total, multidegrees_up_to)

FINITE = "finite"
POLYNOMIAL = "polynomial"
EXPONENTIAL_SUSPECTED = "exponential_suspected"
INCONCLUSIVE = "inconclusive"

EXPONENTIAL_RATIO = Fraction(3, 2)  # see the module docstring


class HilbertTable(Record):
    """max_total: int; blocks: a tuple of BlockDim."""

    __slots__ = _fields = ("max_total", "blocks")

    def dims(self):
        """Multidegree -> rank mapping."""
        return {b.deg: b.rank for b in self.blocks}

    def totals(self):
        """Summed ranks per total degree, indices 0..max_total."""
        out = [0] * (self.max_total + 1)
        for b in self.blocks:
            out[sum(b.deg)] += b.rank
        return tuple(out)


class GrowthVerdict(Record):
    """kind: one of the four verdicts; degree: the polynomial degree, or
    None; evidence: a dict."""

    __slots__ = _fields = ("kind", "degree", "evidence")


class DominanceReport(Record):
    """table: a HilbertTable; verdict: a GrowthVerdict; dominance: str."""

    __slots__ = _fields = ("table", "verdict", "dominance")


def compute_blocks(datum, degs):
    """BlockDim for each multidegree, in the order given.

    The one block loop. It checks no block size: its callers (analyze,
    hilbert_table, det) each do, once, before any work starts. One engine
    serves all the blocks: matrix_rows builds each block from the maps the
    engine keeps of the lower images, lower blocks missing from degs (below
    a lone block, or gaps a library caller leaves) on demand, and rank_rows
    eliminates it once and keeps its maps and its BlockDim in the engine.
    Over QQ(t) the engine is an IntegerPoints, which builds the blocks over
    QQ at its seed point and certifies each rank.
    """
    engine = (IntegerPoints if datum.field == QT else SymEngine)(
        datum.braiding_matrix)
    out = []
    for deg in map(tuple, degs):
        _, rows = matrix_rows(deg, engine)
        rank_rows(datum.field, rows, deg=deg, engine=engine)
        out.append(engine.blocks[deg])
    return tuple(out)


def hilbert_table(datum, max_total, block_limit=DEFAULT_BLOCK_LIMIT):
    """Ranks of every block with total degree up to max_total."""
    degs = multidegrees_up_to(
        datum.m, guarded_total(datum.m, max_total, block_limit))
    check_block_sizes(degs, block_limit)
    return HilbertTable(max_total, compute_blocks(datum, degs))


def _differences(seq):
    return tuple(b - a for a, b in zip(seq, seq[1:]))


def _settled(diffs, window):
    """How a difference sequence settles: "constant" when its last window
    terms are equal, "alternating" when its last window + 1 terms are equal
    at stride two (period-two oscillation), else None."""
    tail = diffs[-window:]
    if all(x == tail[0] for x in tail):
        return "constant"
    wide = diffs[-window - 1:]
    if all(wide[i] == wide[i - 2] for i in range(2, len(wide))):
        return "alternating"
    return None


def growth_classify(totals, window=3):
    """Growth verdict for a totals sequence indexed from degree 0."""
    totals = tuple(int(x) for x in totals)
    if window < 2:
        raise ValueError("window must be at least 2")
    top = len(totals) - 1
    if top < 2 * window:
        return GrowthVerdict(INCONCLUSIVE, None, {
            "reason": f"need totals up to degree {2 * window}, have {top}",
            "window": window,
        })
    tail = totals[-window:]
    if not any(tail):
        last_nonzero = max((i for i, x in enumerate(totals) if x), default=0)
        return GrowthVerdict(FINITE, None, {
            "window": window,
            "trailing": list(tail),
            "last_nonzero_degree": last_nonzero,
        })
    if tail[0] != tail[-1] and all(a >= b for a, b in zip(tail, tail[1:])):
        return GrowthVerdict(INCONCLUSIVE, None, {
            "reason": "trailing window falls but does not reach zero",
            "window": window,
            "trailing": list(tail),
        })
    diffs = totals
    for k in range(window):
        mode = _settled(diffs, window)
        if mode is not None:
            return GrowthVerdict(POLYNOMIAL, k, {
                "window": window,
                "differences_order": k,
                "differences_tail": list(diffs[-window:]),
                "mode": mode,
            })
        diffs = _differences(diffs)
    if all(totals[-window - 1:]):
        ratios = [Fraction(totals[i + 1], totals[i])
                  for i in range(len(totals) - window - 1, len(totals) - 1)]
        if all(r >= EXPONENTIAL_RATIO for r in ratios):
            return GrowthVerdict(EXPONENTIAL_SUSPECTED, None, {
                "window": window,
                "ratios": [str(r) for r in ratios],
                "threshold": str(EXPONENTIAL_RATIO),
            })
    return GrowthVerdict(INCONCLUSIVE, None, {
        "reason": "trailing window neither settles nor grows steadily",
        "window": window,
        "trailing": list(tail),
    })


def dominance_label(verdict, max_total):
    """One-line reading of a verdict as a dominance statement."""
    if verdict.kind == FINITE:
        return (f"dominant at truncation {max_total}: "
                f"graded dimensions vanish from degree "
                f"{verdict.evidence['last_nonzero_degree'] + 1} on")
    if verdict.kind == POLYNOMIAL:
        return (f"dominant at truncation {max_total}: "
                f"graded growth is polynomial of degree {verdict.degree}")
    if verdict.kind == EXPONENTIAL_SUSPECTED:
        return (f"not dominant at truncation {max_total}: "
                f"graded growth looks exponential")
    return f"undetermined at truncation {max_total}"


def dominance_verdict(datum, max_total, window=3,
                      block_limit=DEFAULT_BLOCK_LIMIT):
    """Hilbert table, growth verdict, and dominance line for a datum."""
    table = hilbert_table(datum, max_total, block_limit=block_limit)
    verdict = growth_classify(table.totals(), window=window)
    return DominanceReport(table, verdict, dominance_label(verdict, max_total))
