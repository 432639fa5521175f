"""Input data for the engine: lattice characters evaluated at torus points.

A datum holds m characters alpha_i of the lattice ZZ**n (integer exponent
vectors) together with m points gamma_j of the n-torus over an exact field
(nonzero coordinate vectors). Everything downstream is derived from the
matrix q[i][j] = alpha_i(gamma_j) = prod_k gamma_j[k] ** alpha_i[k]; letter i
of the free algebra carries the pair (alpha_i, gamma_i), and the diagonal
braiding reads the matrix transposed: b[i][j] = alpha_j(gamma_i).

Datum files are JSON objects with keys rank, field, alphas, gammas; gamma
coordinates are scalar literals in the grammar of scalars.parse_scalar
(for cyclotomic fields the letter t denotes zeta_N).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import cached_property

from .scalars import (
    ORDER_LIMIT,
    QQ,
    QT,
    Cyclotomic,
    CyclotomicField,
    FieldMismatchError,
    Record,
    ScalarParseError,
    field_from_name,
    power_too_long,
    specialize,
    too_long,
)


def _builtin_sha256():
    """The interpreter's built-in SHA-256, as random.py takes its SHA-512:
    hashlib loads OpenSSL's libcrypto, about 3 MB of every run's resident
    memory, for one digest of a few hundred bytes, and the digest is the
    same. The module is _sha2 from CPython 3.12 and _sha256 before it;
    each name is unknown to the other versions' standard library, so both
    are imported by name."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


_sha256 = _builtin_sha256()


class DatumValidationError(ValueError):
    """Invalid datum; .errors lists every problem found, with locations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class Datum(Record):
    """rank: int; alphas: int tuples; gammas: tuples of field scalars;
    field: a field object. No __slots__: the cached properties below keep
    their values in the instance __dict__."""

    _fields = ("rank", "alphas", "gammas", "field")

    @property
    def m(self):
        """Number of letters (character/point pairs)."""
        return len(self.alphas)

    @cached_property
    def q_matrix(self):
        """q[i][j] = alpha_i(gamma_j), 0-indexed, computed once: the one
        place a character's power is taken and a q entry written out, its
        text kept as q_text. DatumValidationError names each entry too long
        to write out, in row-major order. Powers are tried before they are
        taken, each entry's only when a point coordinate fails at its
        largest |exponent|."""
        top = [max(abs(a[k]) for a in self.alphas) for k in range(self.rank)]
        check = any(power_too_long(coord, n) for gamma in self.gammas
                    for coord, n in zip(gamma, top))
        rows = [[_entry(alpha, gamma, self.field, check)
                 for gamma in self.gammas] for alpha in self.alphas]
        errors = [f"q[{i}][{j}] = alpha[{i}](gamma[{j}]) {reason}"
                  for i, row in enumerate(rows, start=1)
                  for j, (_, _, reason) in enumerate(row, start=1) if reason]
        if errors:
            raise DatumValidationError(errors)
        self.__dict__["q_text"] = tuple(
            tuple(text for _, text, _ in row) for row in rows)
        return tuple(tuple(value for value, _, _ in row) for row in rows)

    @cached_property
    def q_text(self):
        """q_matrix as the field writes it out: the text q_matrix made as it
        checked each entry, so no entry is written out twice."""
        self.q_matrix
        return self.__dict__["q_text"]

    @cached_property
    def gamma_text(self):
        """The points as the field writes them out: the text validate kept
        as it checked each coordinate, or made here for a datum it never
        passed."""
        return tuple(tuple(map(self.field.render, g)) for g in self.gammas)

    @cached_property
    def braiding_matrix(self):
        """b[i][j] = alpha_j(gamma_i): the q matrix transposed."""
        q = self.q_matrix
        m = len(q)
        return tuple(tuple(q[j][i] for j in range(m)) for i in range(m))


def _entry(alpha, gamma, field, check):
    """(prod_k gamma[k] ** alpha[k] from the first power on, its text,
    None); or (None, None, why it cannot be written out): a power
    power_too_long refuses (tried when check is set), a cyclotomic power
    bounded as it is taken, or a product _text cannot write out. A root of
    unity in QQ(zeta_N) has an order dividing 2N, so its exponent is taken
    mod 2N, once it is that large."""
    value = None
    for exp, coord in zip(alpha, gamma):
        reason = power_too_long(coord, exp) if check else None
        if reason:
            return None, None, reason
        if isinstance(coord, Cyclotomic):
            digits = sys.get_int_max_str_digits()
            period = 2 * coord.order
            if abs(exp) >= period and coord.power(period, digits) == 1:
                exp %= period
            power = coord.power(exp, digits)
        else:
            power = coord ** exp
        if power is None:
            return None, None, too_long()
        value = power if value is None else value * power
    text = _text(field, value)
    return (value, text, None) if text else (None, None, too_long())


def make_datum(rank, alphas, gammas, field):
    """Build a datum, coercing coordinates into the field; no validation."""
    al = tuple(tuple(int(e) for e in a) for a in alphas)
    gm = tuple(tuple(field.coerce(c) for c in g) for g in gammas)
    return Datum(rank, al, gm, field)


def validate(datum):
    """All problems with the datum's shapes, characters and points, as
    human-readable strings; empty when ok, and then the text of each point
    is kept as Datum.gamma_text. Datum.q_matrix checks q entries."""
    errors = []
    if datum.rank < 1:
        errors.append(f"rank must be positive, found {datum.rank}")
    if not datum.alphas:
        errors.append("datum has no characters")
    if len(datum.gammas) != len(datum.alphas):
        errors.append(
            f"{len(datum.alphas)} characters but {len(datum.gammas)} points")
    for i, alpha in enumerate(datum.alphas, start=1):
        if len(alpha) != datum.rank:
            errors.append(f"alpha[{i}] has length {len(alpha)}, expected {datum.rank}")
        elif not any(alpha):
            errors.append(f"alpha[{i}] is zero")
    texts = []
    for j, gamma in enumerate(datum.gammas, start=1):
        if len(gamma) != datum.rank:
            errors.append(f"gamma[{j}] has length {len(gamma)}, expected {datum.rank}")
            continue
        row = []
        for k, coord in enumerate(gamma, start=1):
            try:
                value = datum.field.coerce(coord)
            except FieldMismatchError as exc:
                errors.append(f"gamma[{j}][{k}]: {exc}")
                continue
            text = _text(datum.field, value) if value else None
            if not value:
                errors.append(f"gamma[{j}][{k}] is zero")
            elif text is None:
                errors.append(f"gamma[{j}][{k}] {too_long()}")
            row.append(text)
        texts.append(tuple(row))
    if not errors:
        datum.__dict__["gamma_text"] = tuple(texts)
    return errors


def _text(field, value):
    """value as field writes it out, or None when it holds an integer past
    the interpreter's limit of digits (sys.get_int_max_str_digits())."""
    try:
        return field.render(value)
    except ValueError:
        return None


def require_valid(datum):
    """The datum if validate finds nothing; q entries wait for q_matrix."""
    errors = validate(datum)
    if errors:
        raise DatumValidationError(errors)
    return datum


def datum_from_q_matrix(q, field):
    """A datum realizing a given nonzero matrix as its q matrix.

    Characters are the standard basis of ZZ**m and point j is column j,
    so alpha_i(gamma_j) = gamma_j[i] = q[i][j] on the nose.
    """
    m = len(q)
    alphas = tuple(tuple(1 if k == i else 0 for k in range(m)) for i in range(m))
    gammas = tuple(tuple(field.coerce(q[i][j]) for i in range(m)) for j in range(m))
    return require_valid(Datum(m, alphas, gammas, field))


# ---------------------------------------------------------------------------
# presets

# Cartan matrix and symmetrizer d for each supported finite type, with the
# first simple root short where lengths differ. A constant: the tests, not
# preset_cartan, check that it is symmetrizable (d_i * a_ij = d_j * a_ji).
CARTAN_TYPES = {
    "A1": (((2,),), (1,)),
    "A1XA1": (((2, 0), (0, 2)), (1, 1)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -2), (-1, 2)), (1, 2)),
    "G2": (((2, -3), (-1, 2)), (1, 3)),
}

# Positive roots in simple-root coordinates, matching CARTAN_TYPES.
POSITIVE_ROOTS = {
    "A1": ((1,),),
    "A1XA1": ((1, 0), (0, 1)),
    "A2": ((1, 0), (0, 1), (1, 1)),
    "B2": ((1, 0), (0, 1), (1, 1), (2, 1)),
    "G2": ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
}


def _type_key(name):
    key = name.upper()
    if key not in CARTAN_TYPES:
        known = ", ".join(sorted(CARTAN_TYPES))
        raise DatumValidationError(
            [f"unknown Cartan type {name!r} (known: {known})"])
    return key


def positive_roots(name):
    return POSITIVE_ROOTS[_type_key(name)]


def preset_cartan(name, base=None):
    """Datum with q[i][j] = base ** (d_i * a_ij), the symmetrized Cartan
    pairing of the named type, built by datum_from_q_matrix; base defaults
    to t over QQ(t), and is otherwise a nonzero rational over QQ."""
    cartan, dvec = CARTAN_TYPES[_type_key(name)]
    if base is None:
        field, base = QT, QT.gen()
    else:
        field, base = QQ, Fraction(base)
        if not base:
            raise DatumValidationError(["base must be nonzero"])
    return datum_from_q_matrix(
        [[base ** (d * a) for a in row] for d, row in zip(dvec, cartan)],
        field)


def preset_reductive(name):
    """All roots of the type as characters, every point the identity.

    The braiding is identically 1, the shape of a classical coordinate ring.
    """
    pos = positive_roots(name)
    rank = len(pos[0])
    alphas = tuple(pos) + tuple(tuple(-e for e in root) for root in pos)
    one = Fraction(1)
    gammas = tuple((one,) * rank for _ in alphas)
    return require_valid(Datum(rank, alphas, gammas, QQ))


def preset_doubled(name, base=None):
    """Characters {alpha_i} and {-alpha_i} with points {gamma_i} and
    {gamma_i ** -1}, so q is the Cartan pairing of the signed roots."""
    half = preset_cartan(name, base=base)
    alphas = half.alphas + tuple(tuple(-e for e in a) for a in half.alphas)
    inverted = tuple(tuple(1 / c for c in g) for g in half.gammas)
    gammas = half.gammas + inverted
    return require_valid(Datum(half.rank, alphas, gammas, half.field))


# ---------------------------------------------------------------------------
# specialization, serialization, hashing


def _check_order(n):
    """Refuse a cyclotomic order over ORDER_LIMIT."""
    if n > ORDER_LIMIT:
        raise DatumValidationError(
            [f"cyclotomic order {n} is over the limit of {ORDER_LIMIT}"])


def specialize_datum(datum, n):
    """Send t to zeta_n coordinatewise; for QQ(t) data, n <= ORDER_LIMIT."""
    if datum.field != QT:
        raise FieldMismatchError(
            f"can only specialize rational-function data, not {datum.field.name}")
    _check_order(n)
    field = CyclotomicField(n)
    gammas = tuple(
        tuple(specialize(QT.coerce(c), n) for c in g) for g in datum.gammas)
    return require_valid(Datum(datum.rank, datum.alphas, gammas, field))


def datum_doc(datum):
    """The datum as a JSON object: rank, field tag, characters, points."""
    return {"rank": datum.rank, "field": datum.field.name,
            "alphas": datum.alphas, "gammas": datum.gamma_text}


def emit_datum(datum):
    """Canonical one-line JSON text for the datum; parse_datum inverts it."""
    return json.dumps(datum_doc(datum), sort_keys=True)


def parse_datum(text):
    """Parse and validate datum JSON; raises DatumValidationError on problems."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an over-long integer, or arrays nested too deeply
        raise DatumValidationError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise DatumValidationError(["datum file must be a JSON object"])
    errors = []
    for key in ("rank", "field", "alphas", "gammas"):
        if key not in doc:
            errors.append(f"missing key {key!r}")
    if errors:
        raise DatumValidationError(errors)
    if type(doc["rank"]) is not int:
        errors.append("rank must be an integer")
    if not isinstance(doc["field"], str):
        errors.append("field must be a string such as \"rational\"")
    for key in ("alphas", "gammas"):
        if not isinstance(doc[key], list):
            errors.append(f"{key} must be a list")
    if errors:
        raise DatumValidationError(errors)
    try:
        field = field_from_name(doc["field"])
    except ValueError as exc:
        raise DatumValidationError([str(exc)]) from exc
    if isinstance(field, CyclotomicField):
        _check_order(field.order)

    def scalar_in(entry, where):
        if isinstance(entry, bool) or isinstance(entry, float):
            errors.append(f"{where}: numbers must be integers or string literals")
            return field.one()
        if isinstance(entry, int):
            return field.coerce(entry)
        if isinstance(entry, str):
            try:
                return field.parse(entry)
            except ScalarParseError as exc:
                errors.append(f"{where}: {exc}")
                return field.one()
        errors.append(f"{where}: expected a scalar literal")
        return field.one()

    alphas = []
    for i, row in enumerate(doc["alphas"], start=1):
        if not isinstance(row, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in row):
            errors.append(f"alphas[{i}] must be a list of integers")
            continue
        alphas.append(tuple(row))
    gammas = []
    for j, row in enumerate(doc["gammas"], start=1):
        if not isinstance(row, list):
            errors.append(f"gammas[{j}] must be a list of scalar literals")
            continue
        gammas.append(tuple(
            scalar_in(entry, f"gamma[{j}][{k}]")
            for k, entry in enumerate(row, start=1)))
    if errors:
        raise DatumValidationError(errors)
    return require_valid(Datum(doc["rank"], tuple(alphas), tuple(gammas), field))


def datum_hash(datum):
    """sha256 over the canonical emit: field tag, characters, points."""
    return _sha256(emit_datum(datum).encode("utf-8")).hexdigest()
