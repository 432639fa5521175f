"""The shared oracles must notice a planted fault.

selftest and the acceptance tests both run hopfmin.oracles, so an oracle
that always agreed would pass both; each case here plants one fault and
expects a mismatch, after a clean run of the same check that agrees.
"""

import itertools
import random

import pytest

from hopfmin import det, oracles, shapovalov
from hopfmin.datum import (
    datum_from_q_matrix,
    positive_roots,
    preset_cartan,
    specialize_datum,
)
from hopfmin.growth import BlockDim, HilbertTable
from hopfmin.scalars import QQ
from hopfmin.shapovalov import SymMatrix

A2 = preset_cartan("A2")


def _perturb_symmetrizer(monkeypatch):
    real = oracles.symmetrizer

    def fake(datum, deg):
        mat = real(datum, deg)
        if deg != (2, 1):
            return mat
        rows = [list(r) for r in mat.entries]
        rows[1][0] = rows[1][0] + datum.field.one()
        return SymMatrix(mat.multidegree, mat.words,
                         tuple(map(tuple, rows)), mat.field)

    monkeypatch.setattr(oracles, "symmetrizer", fake)


def _change_second_table(monkeypatch):
    real = oracles.hilbert_table
    tables = []

    def fake(datum, bound):
        table = real(datum, bound)
        tables.append(table)
        if len(tables) % 2:
            return table
        *head, last = table.blocks
        last = BlockDim(last.deg, last.size, last.rank + 1, last.settled)
        return HilbertTable(table.max_total, (*head, last))

    monkeypatch.setattr(oracles, "hilbert_table", fake)


def _drop_chi(monkeypatch):
    # a table route whose right derivatives drop the scalar chi_a(d - e_a)
    # of d^R_a (a sh x) = a sh d^R_a x + chi_a(d - e_a) x
    monkeypatch.setattr(shapovalov, "_chi", lambda row, e: 1)


def _corrupt_braiding(monkeypatch):
    real = oracles.SymEngine
    monkeypatch.setattr(oracles, "SymEngine",
                        lambda braiding: real(oracles.corrupted(braiding)))


def _mutate_exponent(monkeypatch):
    real = det._varchenko_exponent
    monkeypatch.setattr(det, "_varchenko_exponent",
                        lambda n, k: real(n, k) + (k == 3))


def _multilinear_blocks():
    rng = random.Random(11)
    data = [datum_from_q_matrix(oracles.random_q(rng, m), QQ) for m in (3, 4)]
    return oracles.multilinear_det_matches_elimination(
        [(d, deg) for d in data for deg in itertools.product((0, 1), repeat=d.m)])


def _morphism_on_a2():
    rng = random.Random(7)
    pairs = [oracles.random_word_pair(rng, A2.m, 5) for _ in range(25)]
    return oracles.shuffle_morphism(A2.braiding_matrix, A2.braiding_matrix,
                                    pairs)


@pytest.mark.parametrize("check, plant", [
    (lambda: oracles.symmetrizer_matches_permutation_sum([A2], 3),
     _perturb_symmetrizer),
    (lambda: oracles.transposition_invariant(
        [oracles.random_q(random.Random(5), 2)], 3), _change_second_table),
    (_morphism_on_a2, _corrupt_braiding),
    (_multilinear_blocks, _mutate_exponent),
    (lambda: oracles.table_matches_blocks([specialize_datum(A2, 3)], 3),
     _drop_chi),
], ids=["symmetrizer", "transposition", "shuffle", "multilinear", "tables"])
def test_planted_fault_is_reported(monkeypatch, check, plant):
    detail, count = check()
    assert detail is None and count > 0
    plant(monkeypatch)
    detail, _ = check()
    assert detail is not None


def _shift_pbw(monkeypatch):
    real = oracles.pbw_dims
    monkeypatch.setattr(oracles, "pbw_dims",
                        lambda roots, q, deg: real(roots, q, deg) + 1)


def _bump_order(monkeypatch):
    real = oracles.root_order

    def fake(q, beta):
        n = real(q, beta)
        return n + 1 if beta == (1, 0) and n is not None else n

    monkeypatch.setattr(oracles, "root_order", fake)


@pytest.mark.parametrize("plant, first, count", [
    (_shift_pbw, (0, 0), 1),
    # A2 at zeta_3: alpha1 at order 4 first allows the block (3, 0), the
    # last of total 3 and the tenth block
    (_bump_order, (3, 0), 10),
], ids=["shift", "order"])
def test_planted_pbw_fault_is_reported(monkeypatch, plant, first, count):
    datum = specialize_datum(A2, 3)
    roots = positive_roots("A2")
    assert oracles.ranks_match_pbw(datum, roots, 4) == (None, 15)
    plant(monkeypatch)
    detail, at = oracles.ranks_match_pbw(datum, roots, 4)
    assert detail.startswith(f"block {first}: ") and at == count
