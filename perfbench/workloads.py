"""The benchmark workloads: one hopfmin CLI command each, plus its oracle.

Every workload is exact, so every op is checked against a result that comes
from theory rather than from an earlier run of the program:

* a2-qt: block ranks are Kostant partition counts over the positive roots;
* trivial3-qq: with every point 1 the braiding is trivial, the algebra is
  the symmetric algebra on three letters, and every block has rank 1;
* a2-zeta3-jobs2: totals follow Lusztig's small-quantum-group formula
  prod over positive roots b of (1 - t^(3 ht b)) / (1 - t^(ht b));
* g2-doubled-det: the QQ(t) determinant, evaluated at t = 2, equals the
  determinant computed over QQ for the same preset built at base 2.

For trivial3-qq the seed draws the three distinct characters of the datum
file; every draw gives the trivial braiding, so the oracle holds for every
seed. The other inputs are fixed presets, which the seed does not change;
run.py also uses it for the op order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("a2-qt", "trivial3-qq", "a2-zeta3-jobs2", "g2-doubled-det")


@dataclass(frozen=True)
class Workload:
    """One CLI command, its zero-work twin and the check of its output.

    argv omits --format, --cache and --jobs; run.py adds them. jobs is None
    for det, which has neither a pool nor a cache.
    """

    name: str
    argv: tuple[str, ...]
    zero_argv: tuple[str, ...]
    jobs: int | None
    check: Callable[[dict], str | None]

    @property
    def analyze(self):
        return self.jobs is not None

    def cli_args(self, cache=None, jobs=None):
        """Full argv of one op: JSON output, and for analyze the job count
        and (when given) the rank cache file."""
        args = list(self.argv) + ["--format", "json"]
        if self.analyze:
            args += ["--jobs", str(jobs or self.jobs)]
            if cache is not None:
                args += ["--cache", str(cache)]
        return args

    def zero_args(self):
        return list(self.zero_argv) + ["--format", "json"]


def _check_totals(doc):
    """The totals of an analyze document sum its block ranks by degree."""
    totals = [0] * (doc["max_total"] + 1)
    for b in doc["blocks"]:
        totals[sum(b["deg"])] += b["rank"]
    if totals != doc["totals"]:
        return f"totals {doc['totals']} do not sum the block ranks {totals}"
    return None


def _check_a2_qt(doc):
    for b in doc["blocks"]:
        d1, d2 = b["deg"]
        # Kostant count over the roots a, b, a+b of A2: choose k <= min(d1, d2)
        # copies of a+b, the simple roots fill the rest in one way.
        expected = min(d1, d2) + 1
        if b["rank"] != expected:
            return (f"block {b['deg']}: rank {b['rank']}, "
                    f"Kostant count {expected}")
    return _check_totals(doc)


def _check_trivial(doc):
    for b in doc["blocks"]:
        if b["rank"] != 1:
            return f"block {b['deg']}: rank {b['rank']}, trivial braiding gives 1"
    return _check_totals(doc)


def trivial_datum(rng):
    """Datum file text: three distinct nonzero characters of ZZ**2 drawn
    from rng, every point (1, 1), over QQ."""
    alphas = set()
    while len(alphas) < 3:
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(alpha):
            alphas.add(alpha)
    return json.dumps({"rank": 2, "field": "rational",
                       "alphas": [list(a) for a in sorted(alphas)],
                       "gammas": [["1", "1"]] * 3})


def lusztig_totals(heights, order, max_total):
    """Coefficients of prod_h (1 - t^(order h)) / (1 - t^h) up to max_total,
    the Hilbert series of the small quantum group at a primitive order-th
    root of unity (Lusztig 1990); each factor is 1 + t^h + ... + t^((order-1)h).
    """
    series = [1] + [0] * max_total
    for h in heights:
        out = [0] * (max_total + 1)
        for i, c in enumerate(series):
            for k in range(order):
                if i + k * h <= max_total:
                    out[i + k * h] += c
        series = out
    return series


_ZETA3_TOTALS = lusztig_totals((1, 1, 2), 3, 10)


def _check_zeta3(doc):
    if doc["totals"] != _ZETA3_TOTALS:
        return f"totals {doc['totals']}, Lusztig's formula gives {_ZETA3_TOTALS}"
    return _check_totals(doc)


def _det_checker(expected_at_2):
    from hopfmin.scalars import parse_scalar

    def check(doc):
        if doc["size"] != 24 or doc["rank"] != 24:
            return f"size {doc['size']}, rank {doc['rank']}, expected 24 and 24"
        det = parse_scalar(doc["determinant"])
        two = Fraction(2)
        value = Fraction(det.num.eval_at(two)) / det.den.eval_at(two)
        if value != expected_at_2:
            return (f"determinant at t=2 is {value}, the QQ determinant at "
                    f"base 2 is {expected_at_2}")
        return None

    return check


def prepare(name, rng, workdir):
    """Build the workload; trivial3-qq draws its datum from rng and writes
    it to workdir. Needs hopfmin importable: g2-doubled-det computes its
    oracle here."""
    if name == "a2-qt":
        base = ("analyze", "--preset", "cartan:A2")
        return Workload(name, base + ("--max-total", "8"),
                        base + ("--max-total", "0"), 1, _check_a2_qt)
    if name == "trivial3-qq":
        path = workdir / "trivial3.json"
        path.write_text(trivial_datum(rng))
        base = ("analyze", "--datum", str(path))
        return Workload(name, base + ("--max-total", "7"),
                        base + ("--max-total", "0"), 1, _check_trivial)
    if name == "a2-zeta3-jobs2":
        base = ("analyze", "--preset", "cartan:A2", "--specialize", "3")
        return Workload(name, base + ("--max-total", "10"),
                        base + ("--max-total", "0"), 2, _check_zeta3)
    if name == "g2-doubled-det":
        from hopfmin import gram_determinant, preset_doubled

        expected = gram_determinant(preset_doubled("G2", base=2),
                                    (1, 1, 1, 1)).determinant
        base = ("det", "--preset", "doubled:G2", "--deg")
        return Workload(name, base + ("1,1,1,1",), base + ("0,0,0,0",),
                        None, _det_checker(expected))
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
