"""Datum construction, validation, presets, serialization."""

import json
import sys
from fractions import Fraction

import pytest

from hopfmin import datum as datum_module
from hopfmin.datum import (
    CARTAN_TYPES,
    DatumValidationError,
    Datum,
    datum_from_q_matrix,
    datum_hash,
    emit_datum,
    make_datum,
    parse_datum,
    positive_roots,
    preset_cartan,
    preset_doubled,
    preset_reductive,
    require_valid,
    specialize_datum,
    validate,
)
from hopfmin.scalars import (
    ORDER_LIMIT,
    QQ,
    QT,
    Cyclotomic,
    CyclotomicField,
    FieldMismatchError,
    RatFunc,
)


def _tp(k):
    return RatFunc.t_power(k)


def test_q_matrix_a2():
    d = preset_cartan("A2")
    assert d.m == 2
    assert d.q_matrix == ((_tp(2), _tp(-1)), (_tp(-1), _tp(2)))
    assert d.braiding_matrix == d.q_matrix  # symmetric here


def test_q_matrix_b2():
    d = preset_cartan("B2")
    # the text is kept where each entry is checked, and asking for it
    # first builds the matrix, as an analyze served from the cache does
    assert d.q_text == (("t^2", "t^-2"), ("t^-2", "t^4"))
    assert d.q_matrix == ((_tp(2), _tp(-2)), (_tp(-2), _tp(4)))


def test_q_matrix_doubled_a1():
    d = preset_doubled("A1")
    assert d.m == 2
    assert d.q_matrix == ((_tp(2), _tp(-2)), (_tp(-2), _tp(2)))


def test_braiding_is_transpose():
    q = ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7)))
    d = datum_from_q_matrix(q, QQ)
    assert d.q_matrix == q
    assert d.braiding_matrix == ((Fraction(2), Fraction(5)),
                                 (Fraction(3), Fraction(7)))


def test_q_matrix_from_characters():
    # alpha = (1, -2) on gamma = (2, 3) gives 2 * 3^-2
    d = make_datum(2, [(1, -2)], [(Fraction(2), Fraction(3))], QQ)
    assert d.q_matrix == ((Fraction(2, 9),),)


def test_datum_is_an_immutable_record_with_cached_matrices():
    d = preset_cartan("A1")
    for name in ("rank", "alphas", "gammas", "field", "q_matrix", "q_text",
                 "gamma_text"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
    assert d.q_matrix is d.q_matrix  # computed once, kept in __dict__
    # validate keeps the text of the points; a datum it never passed
    # writes them out when first asked
    assert d.__dict__["gamma_text"] == (("t^2",),)
    unchecked = make_datum(1, [[1]], [[Fraction(1, 2)]], QQ)
    assert "gamma_text" not in unchecked.__dict__
    assert unchecked.gamma_text == (("1/2",),)
    assert d == preset_cartan("A1") and hash(d) == hash(preset_cartan("A1"))
    assert d != preset_cartan("A1", base=2)
    assert repr(d) == ("Datum(rank=1, alphas=((1,),), gammas=((t^2,),), "
                       "field=RationalFunctionField())")
    assert repr(make_datum(1, [[1]], [[Fraction(1, 2)]], QQ)) == (
        "Datum(rank=1, alphas=((1,),), gammas=((Fraction(1, 2),),), "
        "field=RationalField())")


def _q_errors(d):
    """The errors building d's q matrix raises, [] when it builds; d passes
    validate, which leaves the matrix unbuilt."""
    assert validate(d) == [] and "q_matrix" not in d.__dict__
    try:
        d.q_matrix
    except DatumValidationError as exc:
        return exc.errors
    return []


def test_q_matrix_refuses_a_power_too_long_before_taking_it(digit_limit):
    # 3**(10**9) would take hours; the exponent alone refuses it
    for gamma, field, reason in [(3, QQ, "holds an integer of more than 4300"),
                                 (Fraction(1, 3), QQ, "holds an integer"),
                                 (_tp(1), QT, "has degree 1000000000 in t")]:
        d = make_datum(2, [(1, 10 ** 9)], [(Fraction(1), gamma)], field)
        errors = _q_errors(d)
        assert len(errors) == 1
        assert errors[0].startswith(f"q[1][1] = alpha[1](gamma[1]) {reason}")


def test_q_matrix_tries_each_coordinate_once_on_a_valid_datum(
        monkeypatch, digit_limit):
    # the power check grows with the exponent, so each coordinate is tried
    # at its largest one; entries are tried only when one of those fails,
    # so 200 letters cost 200 checks, not 200 * 200
    calls = []
    real = datum_module.power_too_long

    def counting(base, n):
        calls.append(n)
        return real(base, n)

    monkeypatch.setattr(datum_module, "power_too_long", counting)
    d = make_datum(1, [(k,) for k in range(1, 201)], [(Fraction(2),)] * 200,
                   QQ)
    assert _q_errors(d) == [] and d.q_matrix[199][0] == 2 ** 200
    assert len(calls) <= 200
    # a coordinate that fails: every entry is tried, and each failing entry
    # is named, in order
    d = make_datum(1, [(1,), (10 ** 9,), (-10 ** 9,)], [(Fraction(3),)] * 3,
                   QQ)
    assert [e.split(" holds")[0] for e in _q_errors(d)] == [
        f"q[{i}][{j}] = alpha[{i}](gamma[{j}])" for i in (2, 3)
        for j in (1, 2, 3)]


def test_q_matrix_takes_cyclotomic_powers_by_squaring(digit_limit):
    # 1 + zeta_5 has infinite order, and its coordinates outgrow the digit
    # limit on the way to the power; zeta_5 ** 1000000001 is zeta_5
    field = CyclotomicField(5)
    zeta = field.zeta()
    d = make_datum(1, [(10 ** 9,)], [(1 + zeta,)], field)
    assert _q_errors(d) == ["q[1][1] = alpha[1](gamma[1]) holds an integer "
                            "of more than 4300 digits, the interpreter's "
                            "limit for writing one out"]
    d = make_datum(1, [(10 ** 9 + 1,)], [(zeta,)], field)
    assert _q_errors(d) == [] and d.q_matrix == ((zeta,),)
    d = make_datum(1, [(-10 ** 9 - 1,)], [(zeta,)], field)
    assert _q_errors(d) == [] and d.q_matrix == ((zeta ** 4,),)


def test_validate_messages():
    d = Datum(2, ((0, 0), (1, 0)), ((Fraction(1), Fraction(1)),
                                    (Fraction(1), Fraction(0))), QQ)
    errors = validate(d)
    assert "alpha[1] is zero" in errors
    assert "gamma[2][2] is zero" in errors
    with pytest.raises(DatumValidationError):
        require_valid(d)
    short = Datum(2, ((1,),), ((Fraction(1), Fraction(1)),), QQ)
    assert any("length" in e for e in validate(short))
    empty = Datum(1, (), (), QQ)
    assert validate(empty) == ["datum has no characters"]


@pytest.mark.parametrize("d, errors", [
    (Datum(0, ((1,),), ((Fraction(2),),), QQ),
     ["rank must be positive, found 0", "alpha[1] has length 1, expected 0",
      "gamma[1] has length 1, expected 0"]),
    (Datum(1, ((1,), (2,)), ((Fraction(2),),), QQ),
     ["2 characters but 1 points"]),
    (Datum(2, ((1,),), ((Fraction(1), Fraction(1)),), QQ),
     ["alpha[1] has length 1, expected 2"]),
    (Datum(2, ((1, 0),), ((Fraction(2),),), QQ),
     ["gamma[1] has length 1, expected 2"]),
    (Datum(1, ((1,),), ((_tp(1),),), QQ),
     ["gamma[1][1]: t is not a rational number"]),
], ids=["rank-zero", "count-mismatch", "alpha-length", "gamma-length",
        "outside-the-field"])
def test_validate_shape_errors(d, errors):
    assert validate(d) == errors
    with pytest.raises(DatumValidationError) as exc:
        require_valid(d)
    assert exc.value.errors == errors


def test_q_matrix_refuses_entries_too_long_to_write_out(digit_limit):
    # every output writes out the points or the q matrix, so an integer
    # past the limit is refused before any block: a point by validate, a q
    # entry as the q matrix is built
    big = Fraction(2 ** 15000)
    unused = Datum(2, ((1, 0), (1, 0)), ((Fraction(1), big),
                                         (Fraction(2), Fraction(1))), QQ)
    assert validate(unused) == [
        "gamma[1][2] holds an integer of more than 4300 digits, the "
        "interpreter's limit for writing one out"]
    powered = make_datum(1, [(15000,)], [(2,)], QQ)
    assert _q_errors(powered) == [
        "q[1][1] = alpha[1](gamma[1]) holds an integer of more than 4300 "
        "digits, the interpreter's limit for writing one out"]
    t_powered = make_datum(1, [(15000,)], [(2 * _tp(1),)], QT)
    assert _q_errors(t_powered)[0].startswith("q[1][1] ")
    assert _q_errors(make_datum(1, [(14000,)], [(2,)], QQ)) == []
    # 0 lifts the limit
    sys.set_int_max_str_digits(0)
    assert _q_errors(make_datum(1, [(15000,)], [(2,)], QQ)) == []


@pytest.mark.parametrize("entry, message", [
    ('"' + "1" * 4400 + '"',
     "gamma[1][1]: integer at position 0 has more than 4300 digits"),
    ("1" * 4400, "not valid JSON"),
], ids=["string", "number"])
def test_parse_datum_refuses_literals_too_long_to_read(digit_limit, entry,
                                                       message):
    text = json.dumps(_GOOD_DOC).replace('"2"', entry)
    with pytest.raises(DatumValidationError) as exc:
        parse_datum(text)
    assert exc.value.errors[0].startswith(message)


def test_preset_reductive_has_trivial_braiding():
    d = preset_reductive("A2")
    assert d.m == 6
    roots = positive_roots("A2")
    assert d.alphas[:3] == roots
    assert d.alphas[3:] == tuple(tuple(-e for e in r) for r in roots)
    assert all(x == 1 for row in d.q_matrix for x in row)


@pytest.mark.parametrize("name", sorted(CARTAN_TYPES))
def test_cartan_types_are_symmetrizable_cartan_matrices(name):
    cartan, dvec = CARTAN_TYPES[name]
    m = len(cartan)
    assert len(dvec) == m and all(len(row) == m for row in cartan)
    for i in range(m):
        assert cartan[i][i] == 2
        assert dvec[i] >= 1
        for j in range(m):
            if i != j:
                assert cartan[i][j] <= 0
            assert dvec[i] * cartan[i][j] == dvec[j] * cartan[j][i]


# datum_hash and q_text of preset_cartan(name, base): the datum JSON, and
# so every rank cache key, must keep its bytes
_PRESET_CARTAN = {
    ("A1", None): ("8c3cb4abbb8af8883b95475e115d10e85927c6bd29393df8fb41c1a6a75529f2",
                   (("t^2",),)),
    ("A1", "1/2"): ("40b25c2ccd02acd6ea0c1d6abe9d9b56bde7b9906348ed07545ddf339a78df85",
                    (("1/4",),)),
    ("A1", "-3"): ("76a806127508c31c1d463195cc0578cb765d0c48780fff5c38d1f1c82ad01a7c",
                   (("9",),)),
    ("A1XA1", None): ("2d4d15a63f6feae05b9b4c29c10d9cf94c63680fa8b689e5cefd0d2b305d0e2a",
                      (("t^2", "1"), ("1", "t^2"))),
    ("A1XA1", "1/2"): ("8c3c69c3ea4a377de9555215a311729c8ac127ba413e6e3c78f624e972e25498",
                       (("1/4", "1"), ("1", "1/4"))),
    ("A1XA1", "-3"): ("8850899d68f714320b2eab49aa0c6f86e7089121182db934315822e5edd62661",
                      (("9", "1"), ("1", "9"))),
    ("A2", None): ("d6b946f28485ad16ed418e731bac3e4d42d462a09b6a531791f6370c7e2e9c5c",
                   (("t^2", "t^-1"), ("t^-1", "t^2"))),
    ("A2", "1/2"): ("e8e8f1828e8d6ad32143ac73fc1fca818a486892e62a6ccb234d5d5a6306dfc1",
                    (("1/4", "2"), ("2", "1/4"))),
    ("A2", "-3"): ("95ccb38a09b85267ee63ab0cafcdf86f2ade7525d68cb03ac69d7fc12cb63719",
                   (("9", "-1/3"), ("-1/3", "9"))),
    ("B2", None): ("71d3dc8808f4f8f059a0b32445b2dfdc8e49cf93728d27308be8829d12e9f79d",
                   (("t^2", "t^-2"), ("t^-2", "t^4"))),
    ("B2", "1/2"): ("28d75b301ced5aa84b60f521994984e477021e370093f8932f29c83a92e06ad5",
                    (("1/4", "4"), ("4", "1/16"))),
    ("B2", "-3"): ("3802f72c2f4611a33ffcda7a8a2d932303f06d7dcd89a12816be64b59205f379",
                   (("9", "1/9"), ("1/9", "81"))),
    ("G2", None): ("d785af225e0d9eaa0cf391d729fb998b735a51760eb25856c4aa42ed4cd75c6e",
                   (("t^2", "t^-3"), ("t^-3", "t^6"))),
    ("G2", "1/2"): ("7652ff0deb48eac8097b26a815fca8272dcecac05f4b1cf3aa3d8ea2dfb8c323",
                    (("1/4", "8"), ("8", "1/64"))),
    ("G2", "-3"): ("569ea6146a6b4af5055001bf811f96c09bebe41cd6f406b275b96b580c644b1a",
                   (("9", "-1/27"), ("-1/27", "729"))),
}


@pytest.mark.parametrize("name, base", list(_PRESET_CARTAN))
def test_preset_cartan_keeps_its_hash_and_q_text(name, base):
    d = preset_cartan(name, None if base is None else Fraction(base))
    assert (datum_hash(d), d.q_text) == _PRESET_CARTAN[name, base]


def test_preset_cartan_rational_base():
    d = preset_cartan("A1", base=Fraction(1, 2))
    assert d.field == QQ
    assert d.q_matrix == ((Fraction(1, 4),),)
    with pytest.raises(DatumValidationError):
        preset_cartan("A1", base=0)


def test_unknown_type():
    with pytest.raises(ValueError):
        preset_cartan("E8")
    with pytest.raises(ValueError):
        positive_roots("Z9")


def test_positive_roots_tables():
    assert len(positive_roots("A1")) == 1
    assert len(positive_roots("A2")) == 3
    assert len(positive_roots("B2")) == 4
    assert len(positive_roots("G2")) == 6


def test_emit_parse_round_trip():
    for d in (preset_cartan("A2"), preset_reductive("B2"),
              preset_doubled("A1"),
              datum_from_q_matrix(((Fraction(-2, 3),),), QQ)):
        back = parse_datum(emit_datum(d))
        assert back.alphas == d.alphas
        assert back.gammas == d.gammas
        assert back.field == d.field
        assert datum_hash(back) == datum_hash(d)


def test_emit_parse_round_trip_cyclotomic():
    d = specialize_datum(preset_cartan("A2"), 5)
    assert d.field == CyclotomicField(5)
    back = parse_datum(emit_datum(d))
    assert back.gammas == d.gammas
    assert back.q_matrix == d.q_matrix


def test_specialize_datum_values():
    d = specialize_datum(preset_cartan("A1"), 4)
    z = CyclotomicField(4).zeta()
    assert d.q_matrix == ((z * z,),)
    with pytest.raises(FieldMismatchError):
        specialize_datum(d, 3)
    with pytest.raises(DatumValidationError, match="order 1001 is over"):
        specialize_datum(preset_cartan("A1"), ORDER_LIMIT + 1)


def test_laurent_monomial_points_take_no_inverse(monkeypatch):
    # c * t**j at zeta_N is zeta**(-j mod N) * c, with no Galois norm
    calls = []
    inverse = Cyclotomic.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    specialize_datum(preset_doubled("G2"), 1000)
    e = 10 ** 4000
    d = parse_datum(json.dumps({
        "rank": 1, "field": "cyclotomic(1000)",
        "alphas": [[e + i] for i in range(4)],
        "gammas": [["t"], ["t^3"], ["-t"], ["t^7"]]}))
    assert d.q_matrix and calls == []


def test_datum_hash_distinguishes():
    q = ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7)))
    qt = tuple(tuple(q[j][i] for j in range(2)) for i in range(2))
    a = datum_from_q_matrix(q, QQ)
    b = datum_from_q_matrix(qt, QQ)
    assert datum_hash(a) != datum_hash(b)
    assert datum_hash(a) == datum_hash(datum_from_q_matrix(q, QQ))


def test_parse_datum_rejects_bad_input():
    with pytest.raises(DatumValidationError) as exc:
        parse_datum("{not json")
    assert "not valid JSON" in exc.value.errors[0]
    with pytest.raises(DatumValidationError) as exc:
        parse_datum(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[1]], "gammas": [[0.5]]}))
    assert any("integers or string literals" in e for e in exc.value.errors)
    with pytest.raises(DatumValidationError):
        parse_datum(json.dumps({"rank": 1, "field": "rational",
                                "alphas": [[1]]}))
    with pytest.raises(DatumValidationError):
        parse_datum(json.dumps({"rank": 1, "field": "septic",
                                "alphas": [[1]], "gammas": [[2]]}))


_GOOD_DOC = {"rank": 1, "field": "rational", "alphas": [[1]], "gammas": [["2"]]}


@pytest.mark.parametrize("key, value, message", [
    ("alphas", 5, "alphas must be a list"),
    ("alphas", {"1": 1}, "alphas must be a list"),
    ("gammas", "x", "gammas must be a list"),
    ("field", 7, "field must be a string"),
    ("field", None, "field must be a string"),
    ("rank", True, "rank must be an integer"),
])
def test_parse_datum_rejects_wrong_json_types(key, value, message):
    with pytest.raises(DatumValidationError) as exc:
        parse_datum(json.dumps(dict(_GOOD_DOC, **{key: value})))
    assert len(exc.value.errors) == 1
    assert exc.value.errors[0].startswith(message)


@pytest.mark.parametrize("doc, errors", [
    ([_GOOD_DOC], ["datum file must be a JSON object"]),
    (dict(_GOOD_DOC, alphas=[5]), ["alphas[1] must be a list of integers"]),
    (dict(_GOOD_DOC, gammas=["2"]),
     ["gammas[1] must be a list of scalar literals"]),
    (dict(_GOOD_DOC, gammas=[[None]]),
     ["gamma[1][1]: expected a scalar literal"]),
    (dict(_GOOD_DOC, gammas=[[[2]]]),
     ["gamma[1][1]: expected a scalar literal"]),
    (dict(_GOOD_DOC, rank=0),
     ["rank must be positive, found 0", "alpha[1] has length 1, expected 0",
      "gamma[1] has length 1, expected 0"]),
    (dict(_GOOD_DOC, alphas=[[1], [2]]), ["2 characters but 1 points"]),
], ids=["array", "alphas-row", "gammas-row", "null-gamma", "list-gamma",
        "rank-zero", "count-mismatch"])
def test_parse_datum_rejects_wrong_json_shapes(doc, errors):
    with pytest.raises(DatumValidationError) as exc:
        parse_datum(json.dumps(doc))
    assert exc.value.errors == errors


def test_parse_datum_scalar_literals():
    doc = {"rank": 1, "field": "rational_function",
           "alphas": [[2]], "gammas": [["(t+1)/t"]]}
    d = parse_datum(json.dumps(doc))
    t = RatFunc.t_power(1)
    assert d.gammas == (((t + 1) / t,),)
    assert d.q_matrix == ((((t + 1) / t) ** 2,),)
