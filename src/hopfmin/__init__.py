"""Exact rank tables for braided Hopf algebras of diagonal type."""

from .datum import (
    Datum,
    DatumValidationError,
    datum_from_q_matrix,
    datum_hash,
    emit_datum,
    make_datum,
    parse_datum,
    preset_cartan,
    preset_doubled,
    preset_reductive,
    specialize_datum,
    validate,
)
from .growth import (
    GrowthVerdict,
    HilbertTable,
    dominance_verdict,
    growth_classify,
    hilbert_table,
)
from .oracles import pbw_dims
from .scalars import (
    QQ,
    QT,
    Cyclotomic,
    CyclotomicField,
    FieldMismatchError,
    Poly,
    RatFunc,
    ScalarParseError,
    SpecializationPoleError,
    cyclotomic_polynomial,
    parse_scalar,
    specialize,
)
from .shapovalov import (
    BlockSizeError,
    SymMatrix,
    gram_determinant,
    permutation_sum_oracle,
    rank,
    rank_symbolic,
    symmetrizer,
)
from .sl2 import dim_L, parallel_report, shapovalov_value
from .words import Element, braid_at, concat, shuffle, words_of_multidegree

__version__ = "0.1.0"
