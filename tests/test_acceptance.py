"""Acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. Each test exercises
its criterion in full; nothing here is a smoke test.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from hopfmin.cli import main as cli_main
from hopfmin.datum import (
    datum_from_q_matrix,
    make_datum,
    positive_roots,
    preset_cartan,
)
from hopfmin.det import gram_determinant
from hopfmin.growth import growth_classify, hilbert_table
from hopfmin.oracles import (
    random_q,
    random_word_pair,
    ranks_match_pbw,
    shuffle_morphism,
    symmetrizer_matches_permutation_sum,
    transposition_invariant,
)
from hopfmin.scalars import QQ, QT, CyclotomicField, RatFunc
from hopfmin.sl2 import dim_L, shapovalov_value

SEED = 20240917


def test_criterion_1_borel_tables_match_root_multiset_counts():
    """Rank tables for A1, A1xA1, A2 up to total degree 8 and B2 up to 6
    agree blockwise with the root-multiset counts (the PBW product at
    generic t), within two minutes."""
    start = time.monotonic()
    for name, bound in (("A1", 8), ("A1xA1", 8), ("A2", 8), ("B2", 6)):
        datum = preset_cartan(name)
        assert ranks_match_pbw(datum, positive_roots(name), bound) == (
            None, math.comb(bound + datum.m, datum.m))
    assert time.monotonic() - start < 120


def test_criterion_2_root_of_unity_collapse():
    """One letter with q = zeta_N: exactly N nonzero graded pieces, all of
    dimension one, and the verdict is finite, for N in 2..5."""
    for n in (2, 3, 4, 5):
        field = CyclotomicField(n)
        datum = datum_from_q_matrix(((field.zeta(),),), field)
        top = n + 4
        table = hilbert_table(datum, top)
        assert table.totals() == (1,) * n + (0,) * (top + 1 - n)
        verdict = growth_classify(table.totals(), window=3)
        assert verdict.kind == "finite"


def test_criterion_3_trivial_braiding_polynomial_growth():
    """Distinct characters paired with identity points give all blocks rank
    one and polynomial growth of degree m - 1."""
    for alphas in (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))):
        m = len(alphas)
        gammas = ((Fraction(1), Fraction(1)),) * m
        datum = make_datum(2, alphas, gammas, QQ)
        table = hilbert_table(datum, 8)
        assert all(b.rank == 1 for b in table.blocks)
        verdict = growth_classify(table.totals(), window=3)
        assert verdict.kind == "polynomial"
        assert verdict.degree == m - 1


def test_criterion_4_symmetrizer_equals_permutation_sum():
    """The recursive block matrices equal the permutation-sum definition on
    every multidegree of total at most 4, for the A2 preset and three
    seeded random rational braidings."""
    rng = random.Random(SEED)
    data = [preset_cartan("A2"),
            datum_from_q_matrix(random_q(rng, 2), QQ),
            datum_from_q_matrix(random_q(rng, 3), QQ),
            datum_from_q_matrix(random_q(rng, 2), QQ)]
    assert symmetrizer_matches_permutation_sum(data, 4) == (None, 80)


def test_criterion_5_concatenation_to_shuffle_morphism():
    """Sh(u . v) = Sh(u) shuffled with Sh(v) for 50 seeded word pairs of
    total degree at most 5, on A1, A2 and one random braiding."""
    rng = random.Random(SEED + 1)
    data = [preset_cartan("A1"), preset_cartan("A2"),
            datum_from_q_matrix(random_q(rng, 2), QQ)]
    for datum in data:
        braiding = datum.braiding_matrix
        pairs = [random_word_pair(rng, datum.m, 5) for _ in range(50)]
        assert shuffle_morphism(braiding, braiding, pairs) == (None, 50)


def test_criterion_6_transposition_invariance():
    """Transposing the q matrix changes nothing in the dimension table, for
    three seeded random braidings up to total degree 5."""
    rng = random.Random(SEED + 2)
    qs = [random_q(rng, m) for m in (2, 3, 2)]
    assert transposition_invariant(qs, 5) == (None, 21 + 56 + 21)


def _is_monomial(p):
    return sum(1 for c in p.coeffs if c) == 1


def test_criterion_7_frozen_determinants():
    """A1 block determinants are the braided factorials up to a nonzero
    rational constant for degrees up to 6, and the A2 block at (1, 1) has
    determinant 1 - t^-2 up to a unit."""
    a1 = preset_cartan("A1")
    q = RatFunc.t_power(2)
    expected = QT.one()
    for d in range(1, 7):
        expected = expected * sum((q ** i for i in range(d)), QT.zero())
        det = gram_determinant(a1, (d,)).determinant
        ratio = det / expected
        const = ratio.as_fraction()
        assert const is not None and const != 0, d

    det = gram_determinant(preset_cartan("A2"), (1, 1)).determinant
    target = QT.one() - RatFunc.t_power(-2)
    ratio = det / target
    assert ratio != 0
    assert _is_monomial(ratio.num) and _is_monomial(ratio.den)


def test_criterion_8_sl2_parallel():
    """Pairing values match the closed product over steps, and simple
    dimensions read off the first vanishing."""
    weights = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
               Fraction(1), Fraction(2), Fraction(3), Fraction(7))
    for lam in weights:
        prod = Fraction(1)
        for k in range(9):
            if k:
                prod *= k * (lam + 1 - k)
            assert shapovalov_value(lam, k) == prod, (lam, k)
    for n in range(7):
        assert dim_L(Fraction(n)) == n + 1
    assert dim_L(Fraction(-1)) == float("inf")
    assert dim_L(Fraction(1, 2)) == float("inf")


def _analyze_json(tmp_path, tag, jobs, cache_name):
    out = tmp_path / f"{tag}.json"
    cmd = [sys.executable, "-m", "hopfmin", "analyze",
           "--preset", "cartan:A2", "--max-total", "8", "--format", "json",
           "--jobs", str(jobs), "--cache", str(tmp_path / cache_name)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out.write_text(proc.stdout)
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    """analyze output is byte-identical across worker counts and across
    cold and warm cache runs, once the timings block is redacted."""
    run_serial = _analyze_json(tmp_path, "serial", 1, "c1.json")
    run_parallel = _analyze_json(tmp_path, "parallel", 8, "c2.json")
    run_warm = _analyze_json(tmp_path, "warm", 1, "c1.json")

    def redact(text):
        doc = json.loads(text)
        hits = doc["timings"]["cache_hits"]
        del doc["timings"]
        return json.dumps(doc, indent=2, sort_keys=True), hits

    a, hits_a = redact(run_serial)
    b, hits_b = redact(run_parallel)
    c, hits_c = redact(run_warm)
    assert a == b
    assert a == c
    assert hits_a == 0
    assert hits_c == len(json.loads(run_warm)["blocks"])
