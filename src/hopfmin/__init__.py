"""Exact rank tables for braided Hopf algebras of diagonal type.

The public names below load their module on first access (PEP 562), so a
command imports only the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Datum", "DatumValidationError", "datum_from_q_matrix", "datum_hash",
        "emit_datum", "make_datum", "parse_datum", "preset_cartan",
        "preset_doubled", "preset_reductive", "specialize_datum", "validate",
    ), "datum"),
    "gram_determinant": "det",
    **dict.fromkeys((
        "GrowthVerdict", "HilbertTable", "dominance_verdict",
        "growth_classify", "hilbert_table",
    ), "growth"),
    **dict.fromkeys(("pbw_dims", "permutation_sum_oracle"), "oracles"),
    **dict.fromkeys((
        "QQ", "QT", "Cyclotomic", "CyclotomicField", "FieldMismatchError",
        "Poly", "RatFunc", "ScalarParseError", "SpecializationPoleError",
        "cyclotomic_polynomial", "parse_scalar", "specialize",
    ), "scalars"),
    **dict.fromkeys(("SymMatrix", "rank", "symmetrizer"), "shapovalov"),
    **dict.fromkeys(("dim_L", "parallel_report", "shapovalov_value"), "sl2"),
    **dict.fromkeys((
        "BlockSizeError", "braid_at", "shuffle", "words_of_multidegree",
    ), "words"),
}

_SUBMODULES = set(_EXPORTS.values())

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """A public name, or a submodule, loaded on first access."""
    if name not in _EXPORTS and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
