"""Batch front end: rank tables, block determinants, the sl2 mirror, selftest.

Exit codes: 0 success, 1 bad input, 2 block size guard, 3 specialization
pole, 4 selftest failure.

Most runs are short, so start-up counts: what only one command or format
uses (the oracles and random for selftest, the sl2 mirror, csv, tempfile
for a cache write) is imported inside it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .datum import (
    DatumValidationError,
    datum_doc,
    datum_from_q_matrix,
    datum_hash,
    parse_datum,
    positive_roots,
    preset_cartan,
    preset_doubled,
    preset_reductive,
    specialize_datum,
)
from .det import gram_determinant
from .growth import (
    BlockDim,
    HilbertTable,
    compute_blocks,
    dominance_label,
    growth_classify,
)
from .scalars import (
    ORDER_LIMIT,
    QQ,
    QT,
    FieldMismatchError,
    ScalarParseError,
    SpecializationPoleError,
    too_long,
)
from .shapovalov import BOUND, POINT, SEED
from .words import (
    DEFAULT_BLOCK_LIMIT,
    LETTER_LIMIT,
    BlockSizeError,
    block_size,
    check_block_sizes,
    guarded_total,
    multidegrees_up_to,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BLOCK = 2
EXIT_POLE = 3
EXIT_SELFTEST = 4

SCHEMA_VERSION = 1
# Version of the rank computation behind cached entries; bump it whenever a
# change to the rank code could change a cached answer.
RANK_ALGORITHM = 2

# the deepest sl2 table: each depth is one pairing value and one line of
# output, and 10000 of them take under a second
SL2_DEPTH_LIMIT = 10000

PRESET_KINDS = ("cartan", "reductive", "doubled")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this tool reserves 2 for the
    block guard, so reroute them to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load_datum(args):
    base = None if args.base == "t" else QQ.parse(args.base)
    if args.preset:
        kind, _, type_name = args.preset.partition(":")
        kind = kind.lower()
        if kind not in PRESET_KINDS or not type_name:
            raise DatumValidationError(
                [f"preset must look like cartan:A2, reductive:B2 or doubled:G2, "
                 f"got {args.preset!r}"])
        if kind == "cartan":
            datum = preset_cartan(type_name, base=base)
        elif kind == "doubled":
            datum = preset_doubled(type_name, base=base)
        else:
            if base is not None:
                raise DatumValidationError(
                    ["--base applies to cartan and doubled presets only"])
            datum = preset_reductive(type_name)
    else:
        if base is not None:
            raise DatumValidationError(["--base applies to presets only"])
        path = args.datum
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DatumValidationError([f"cannot read {path}: {exc}"]) from exc
        datum = parse_datum(text)
    if args.specialize is not None:
        datum = specialize_datum(datum, args.specialize)
    return datum


def _deg_key(deg):
    return ",".join(str(d) for d in deg)


class _StaleCache(ValueError):
    """A cache file written under another rank-algorithm version; newer is
    true when that version is later than RANK_ALGORITHM."""

    def __init__(self, version):
        super().__init__(f"written by rank algorithm {version}, "
                         f"this is {RANK_ALGORITHM}")
        self.newer = type(version) is int and version > RANK_ALGORITHM


def _read_cache(path):
    """The ranks mapping of a cache file; raises OSError, ValueError, or
    _StaleCache for a file of another rank-algorithm version."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if (not isinstance(doc, dict)
            or doc.get("schema_version") != SCHEMA_VERSION
            or not isinstance(doc.get("ranks"), dict)):
        raise ValueError("unexpected cache layout")
    version = doc.get("rank_algorithm", 1)  # files before the key: 1
    if version != RANK_ALGORITHM:
        raise _StaleCache(version)
    return doc["ranks"]


class _Cache:
    """Rank cache file: JSON keyed by datum hash, then by multidegree, with
    the rank-algorithm version it was written under. It serves a whole table
    or nothing: each block is built from the images of the blocks below it,
    so a partly cached table spares no work."""

    def __init__(self, path, ranks):
        self.path = path
        self.ranks = ranks

    @classmethod
    def open(cls, path):
        try:
            return cls(path, _read_cache(path))
        except FileNotFoundError:
            return cls(path, {})
        except _StaleCache as exc:
            print(f"warning: ignoring cache {path}: {exc}; recomputing",
                  file=sys.stderr)
            return cls(path, {})
        except (OSError, ValueError) as exc:
            print(f"warning: ignoring unreadable cache {path}: {exc}; "
                  f"recomputing", file=sys.stderr)
            return cls(path, {})

    def table(self, datum_key, degs):
        """BlockDim for each multidegree of degs, or None unless every block
        has a plausible entry: its true size and a rank in 0..size."""
        entries = self.ranks.get(datum_key)
        if not isinstance(entries, dict):
            return None
        blocks = []
        for deg in degs:
            entry = entries.get(_deg_key(deg))
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(type(x) is int for x in entry)):
                return None
            size, rank = entry
            if size != block_size(deg) or not 0 <= rank <= size:
                return None
            blocks.append(BlockDim(deg, size, rank))
        return tuple(blocks)

    def save(self, datum_key, blocks):
        """Write the blocks' entries over a fresh read of the file, so
        entries another process saved since open() are kept. A file written
        by a newer rank algorithm is left as it is, and a path that cannot be
        written only gets a warning."""
        import tempfile

        try:
            ranks = _read_cache(self.path)
        except _StaleCache as exc:
            if exc.newer:
                print(f"warning: not saving cache {self.path}: {exc}",
                      file=sys.stderr)
                return
            ranks = {}
        except (OSError, ValueError):
            ranks = {}
        entries = ranks.get(datum_key)
        if not isinstance(entries, dict):
            entries = ranks[datum_key] = {}
        entries.update({_deg_key(b.deg): [b.size, b.rank] for b in blocks})
        doc = {"rank_algorithm": RANK_ALGORITHM,
               "schema_version": SCHEMA_VERSION, "ranks": ranks}
        directory = os.path.dirname(os.path.abspath(self.path))
        try:
            fd, tmp = tempfile.mkstemp(prefix=".hopfmin-cache-", dir=directory)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            print(f"warning: not saving cache {self.path}: {exc}",
                  file=sys.stderr)


def _verdict_doc(verdict, max_total):
    return {
        "kind": verdict.kind,
        "degree": verdict.degree,
        "evidence": verdict.evidence,
        "dominance": dominance_label(verdict, max_total),
    }


def _settled_doc(computed):
    """How the computed QQ(t) blocks were certified (a table read from the
    cache counts none): how many by full seed rank, by the coideal bound and
    by an evaluation point, and the multidegree of each block that paid for
    a point."""
    hows = [b.settled for b in computed]
    return {
        **{how: hows.count(how) for how in (SEED, BOUND, POINT)},
        "points": [list(b.deg) for b in computed if b.settled == POINT],
    }


def _emit_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_analyze(args):
    t0 = time.monotonic()
    datum = _load_datum(args)
    # enumerate no total past the first one the guard refuses; the guard
    # needs only the letter count, so it runs before any q entry is built,
    # and before the cache lookup, so it refuses cached blocks too
    degs = multidegrees_up_to(
        datum.m, guarded_total(datum.m, args.max_total, args.block_limit))
    check_block_sizes(degs, args.block_limit)
    cache = _Cache.open(args.cache) if args.cache else None
    datum_key = datum_hash(datum)
    blocks = cache.table(datum_key, degs) if cache else None
    computed = ()
    if blocks is None:
        blocks = computed = compute_blocks(datum, degs)
        if cache:
            cache.save(datum_key, blocks)
    table = HilbertTable(args.max_total, blocks)
    totals = table.totals()
    verdict = growth_classify(totals, window=args.window)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "analyze",
        "datum": datum_doc(datum),
        "hash": datum_key,
        "q_matrix": datum.q_text,
        "max_total": args.max_total,
        "window": args.window,
        "block_limit": args.block_limit,
        "blocks": [{"deg": list(b.deg), "size": b.size, "rank": b.rank}
                   for b in blocks],
        "totals": list(totals),
        "verdict": _verdict_doc(verdict, args.max_total),
        "timings": {
            "total_ms": int((time.monotonic() - t0) * 1000),
            "cache_hits": len(blocks) - len(computed),
            "cache_misses": len(computed),
        },
    }
    if datum.field == QT:
        doc["timings"]["settled"] = _settled_doc(computed)
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        m = datum.m
        writer.writerow([f"deg_{i + 1}" for i in range(m)] + ["size", "rank"])
        for b in blocks:
            writer.writerow(list(b.deg) + [b.size, b.rank])
    else:
        print(f"datum {datum_key[:12]}  field {datum.field.name}  "
              f"letters {datum.m}")
        width = max(len(str(b.deg)) for b in blocks)
        print(f"{'deg':<{width}}  size  rank")
        for b in blocks:
            print(f"{str(b.deg):<{width}}  {b.size:>4}  {b.rank:>4}")
        print("totals by degree:", " ".join(str(x) for x in totals))
        kind = verdict.kind + (
            f"({verdict.degree})" if verdict.degree is not None else "")
        print(f"growth: {kind}")
        print(dominance_label(verdict, args.max_total))
    return EXIT_OK


def cmd_det(args):
    t0 = time.monotonic()
    datum = _load_datum(args)
    try:
        deg = tuple(int(part) for part in args.deg.split(","))
    except ValueError as exc:
        raise DatumValidationError(
            [f"--deg expects comma-separated integers, got {args.deg!r}"]) from exc
    if len(deg) != datum.m or any(d < 0 for d in deg):
        raise DatumValidationError(
            [f"--deg must list {datum.m} nonnegative letter counts"])
    report = gram_determinant(datum, deg, factor_bound=args.factor_bound,
                              block_limit=args.block_limit)
    render = datum.field.render
    try:
        determinant = render(report.determinant)
        remainder = render(report.remainder)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        print(f"error: the determinant of block {deg} {too_long()}",
              file=sys.stderr)
        return EXIT_INPUT
    pretty = [f"Phi_{k}(t^{j})" + (f"^{mult}" if mult > 1 else "")
              for k, j, mult in report.factors]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": "det",
        "datum": datum_doc(datum),
        "hash": datum_hash(datum),
        "deg": list(deg),
        "size": report.size,
        "rank": report.rank,
        "determinant": determinant,
        "factors": [list(f) for f in report.factors],
        "factors_pretty": pretty,
        "remainder": remainder,
        "timings": {"total_ms": int((time.monotonic() - t0) * 1000)},
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"block {deg}: size {report.size}, rank {report.rank}")
        print(f"determinant: {doc['determinant']}")
        if pretty:
            print("cyclotomic factors:", " * ".join(pretty))
            print(f"remainder: {doc['remainder']}")
    return EXIT_OK


def _weight(text):
    """--lam text as a Fraction. Fraction takes the power of ten of a
    decimal exponent eagerly, for minutes when it is large; an exponent that
    passes the digit limit (sys.get_int_max_str_digits(), 0: none) by more
    than the length of text makes a nonzero value too long to write out,
    and is refused first."""
    limit = sys.get_int_max_str_digits()
    head, _, exp = text.lower().rpartition("e")
    try:
        huge = bool(limit and head) and abs(int(exp)) > limit + len(text)
        lam = Fraction(head + "e0" if huge else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DatumValidationError(
            [f"--lam expects a rational number, got {text!r}"]) from exc
    if huge and lam:
        raise DatumValidationError([f"--lam {text} {too_long()}"])
    return lam


def cmd_sl2(args):
    from .sl2 import parallel_report

    lam = _weight(args.lam)
    try:
        report = parallel_report(lam, depth=args.depth)
        str(report["simple_dim"])
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise DatumValidationError(
            [f"the sl2 report of --lam {args.lam} {too_long()}"]) from exc
    if args.format == "json":
        doc = dict(report)
        doc.update({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": "sl2",
        })
        _emit_json(doc)
    else:
        print(f"highest weight {report['highest_weight']}")
        print("depth  pairing value        verma  simple")
        for k, v in enumerate(report["pairing_values"]):
            print(f"{k:>5}  {v:<18}  {report['verma_graded_dims'][k]:>5}"
                  f"  {report['simple_graded_dims'][k]:>6}")
        print(f"simple module dimension: {report['simple_dim']}")
        print("correspondence:")
        for row in report["correspondence"]:
            print(f"  {row['classical']}  <->  {row['braided']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args):
    """Run the checks of hopfmin.oracles on fixed seeded inputs."""
    import random

    from . import oracles

    rng = random.Random(20240917)
    a2 = preset_cartan("A2")

    def rational(m):
        return datum_from_q_matrix(oracles.random_q(rng, m), QQ)

    checks = [
        ("symmetrizer matches permutation sum",
         [oracles.symmetrizer_matches_permutation_sum(
             [a2, rational(2), rational(3)], 4)]),
        ("block ranks match the PBW product",
         [oracles.ranks_match_pbw(datum, roots, 5) for datum, roots in
          [(preset_cartan(n), positive_roots(n)) for n in ("A2", "B2")]
          + oracles.rank_two_braidings()]),
        ("transposition invariance of dimensions",
         [oracles.transposition_invariant(
             [oracles.random_q(rng, m) for m in (2, 3)], 4)]),
        ("concatenation-to-shuffle morphism",
         [oracles.shuffle_morphism(
             d.braiding_matrix, d.braiding_matrix,
             [oracles.random_word_pair(rng, d.m, 5) for _ in range(25)])
          for d in (preset_cartan("A1"), a2, rational(2))]),
    ]
    mismatch, count = oracles.shuffle_morphism(
        oracles.corrupted(a2.braiding_matrix), a2.braiding_matrix,
        [oracles.random_word_pair(rng, a2.m, 5) for _ in range(25)])
    checks.append(("negative control flags a corrupted braiding",
                   [(None if mismatch else "corrupted braiding went undetected",
                     count)]))
    multilinear = [
        (datum_from_q_matrix(draw(rng, m), QQ), deg)
        for draw in (oracles.random_q, oracles.planted_q) for m in (2, 3, 4)
        for deg in itertools.product((0, 1), repeat=m)]
    multilinear += [(preset_cartan(name), (1, 1)) for name in ("A2", "B2", "G2")]
    multilinear += [(preset_doubled(name), deg) for name in ("A2", "B2")
                    for deg in ((1, 1, 1, 1), (1, 0, 1, 1))]
    multilinear.append((specialize_datum(preset_doubled("A2"), 3), (1, 1, 1, 1)))
    checks.append(("closed-form multilinear determinants match elimination",
                   [oracles.multilinear_det_matches_elimination(multilinear)]))
    qt = datum_from_q_matrix(tuple(tuple(QT.parse(x) for x in row)
                                   for row in (("1-t", "t"), ("t^-1", "t"))), QT)
    checks.append(("table ranks match full Sh blocks",
                   [oracles.table_matches_blocks(
                       [rational(3), specialize_datum(a2, 3), qt], 4)]))
    failed = False
    for name, results in checks:
        detail = next((d for d, _ in results if d is not None), None)
        if detail is None:
            print(f"PASS {name} ({sum(c for _, c in results)} checks)")
        else:
            failed = True
            print(f"FAIL {name}: {detail}")
    return EXIT_SELFTEST if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _int_in(low, high=None):
    """argparse type: an integer no smaller than low, and no larger than
    high when high is given."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value

    return parse


def _add_datum_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset",
                       help="cartan:TYPE, reductive:TYPE or doubled:TYPE "
                            "with TYPE one of A1, A1xA1, A2, B2, G2")
    group.add_argument("--datum", help="path to a datum JSON file")
    sub.add_argument("--base", default="t",
                     help="evaluate cartan/doubled presets at this nonzero "
                          "rational instead of the formal t")
    sub.add_argument("--specialize", type=_int_in(1), metavar="N",
                     help="send t to a primitive N-th root of unity "
                          f"(N at most {ORDER_LIMIT})")
    sub.add_argument("--block-limit", type=_int_in(1),
                     default=DEFAULT_BLOCK_LIMIT,
                     help="refuse blocks with more words than this "
                          f"(default {DEFAULT_BLOCK_LIMIT}); blocks of more "
                          f"than {LETTER_LIMIT} letters are always refused")


def _build_parser():
    parser = _Parser(prog="hopfmin",
                     description="exact rank tables for diagonal braidings")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="rank every block up to a total degree")
    _add_datum_options(p)
    p.add_argument("--max-total", type=_int_in(0), default=6,
                   help="largest total degree to table (default 6)")
    p.add_argument("--window", type=_int_in(2), default=3,
                   help="trailing window for the growth verdict (default 3)")
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")
    p.add_argument("--cache", help="rank cache file")
    p.add_argument("--jobs", type=_int_in(1), default=1,
                   help="at least 1; accepted for scripts that pass it, "
                        "but blocks run serially in this process")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("det", help="block determinant with cyclotomic factors")
    _add_datum_options(p)
    p.add_argument("--deg", required=True,
                   help="multidegree as comma-separated letter counts")
    p.add_argument("--factor-bound", type=_int_in(0), default=24,
                   help="try Phi_k(t) for k up to this bound (0: none)")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_det)

    p = subs.add_parser("sl2", help="classical highest-weight mirror")
    p.add_argument("--lam", required=True,
                   help="highest weight, a rational such as 3 or 1/2")
    p.add_argument("--depth", type=_int_in(0, SL2_DEPTH_LIMIT), default=8,
                   help=f"deepest pairing value (default 8, at most "
                        f"{SL2_DEPTH_LIMIT})")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_sl2)

    p = subs.add_parser("selftest", help="run the built-in oracle suites")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOCK
    except SpecializationPoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POLE
    except DatumValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_INPUT
    except (ScalarParseError, FieldMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the stdout consumer went away (e.g. piping into head); silence the
        # interpreter-shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
