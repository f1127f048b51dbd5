"""Exception hierarchy and the input policy shared across the toolkit.

DataError covers malformed or inconsistent inputs (bad files, dimension
mismatches, violated invariants); NumericalError covers failures that occur
with well-formed inputs (solver divergence, NaN parameters). The CLI maps
these onto exit codes 2 and 3 respectively.

Every input file goes through read_text (and parse_object or read_records),
and every number in it through is_number or float_rows; a bad value is echoed
through must_be. A free-form object that a file holds (a demonstration's
provenance, a stream's metadata) goes through check_json_object. Every
output file goes through atomic_write_text.
"""
import io
import json
import math
import os
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np


class DexError(Exception):
    """Base class for all toolkit errors."""


class DataError(DexError, ValueError):
    """Malformed or inconsistent input data."""


class DescriptionError(DataError):
    """Invalid robot description document."""

    def __init__(self, message: str, element: str | None = None):
        self.element = element
        if element is not None:
            message = f"{message} (element: {element})"
        super().__init__(message)


class StreamFormatError(DataError):
    """Invalid hand-pose stream file."""


class DemoFormatError(DataError):
    """Invalid demonstration file."""


class NumericalError(DexError, RuntimeError):
    """Numerical failure on otherwise valid input."""


def read_text(path, error, what: str) -> str:
    """The UTF-8 text of file `path`. A missing file raises FileNotFoundError;
    one that cannot be read or decoded raises error("cannot read <what>: ...")."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def atomic_write_text(path, data):
    """Write `data` through a sibling temporary file, so that the file appears
    complete or not at all: text as UTF-8, bytes as they are, and a dict of
    arrays as an .npz archive. If the write or the rename fails, the
    temporary file is removed and the error re-raised."""
    if isinstance(data, dict):
        buffer = io.BytesIO()
        np.savez(buffer, **data)
        data = buffer.getvalue()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_object(text: str, error, what: str) -> dict:
    """The JSON object in `text`; bad JSON or another JSON value raises `error`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or an integer of too many digits
        raise error(f"cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    return doc


def read_records(path, fmt: str, error, what: str, item: str) -> tuple[dict, dict[int, dict]]:
    """The header object, whose `format` must be `fmt`, and the record objects
    of a line-delimited JSON file. Records are keyed by line number less one
    (blank lines are skipped but counted), which errors name as `<item> i`."""
    lines = read_text(path, error, what).splitlines()
    if not lines:
        raise error(f"empty {what} file")
    header = parse_object(lines[0], error, f"{what} header")
    if header.get("format") != fmt:
        raise error(f"unsupported {what} format {header.get('format')!r}, expected {fmt!r}")
    return header, {i: parse_object(line, error, f"{item} {i}")
                    for i, line in enumerate(lines[1:]) if line.strip()}


def is_number(value, kind=Real) -> bool:
    """Whether value is a real number (or, with kind=Integral, an integer)
    that converts to a float; booleans, strings and integers too large for a
    float count as neither."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def must_be(what: str, rule: str, value) -> str:
    """The message '<what> must be <rule>, got <value>'. A value whose repr
    is longer than 40 characters shows only its ends and its length."""
    shown = repr(value)
    if len(shown) > 40:
        shown = f"{shown[:24]}...{shown[-8:]} ({len(shown)} characters)"
    return f"{what} must be {rule}, got {shown}"


def finite_number(value, error, what: str) -> float:
    """value as a float; it must be a finite number by is_number."""
    if is_number(value) and math.isfinite(value):
        return float(value)
    raise error(must_be(what, "a finite number", value))


def float_rows(rows, width: int, error, names, field: str | None = None) -> np.ndarray:
    """The number lists `rows` as one (len(rows), width) float array. Each
    must be a list (or tuple) of `width` finite numbers by is_number; the
    first that is not raises `error` naming it by its entry of `names`, or,
    with a `field`, raises error("<field> must be ...", name), so that a
    DescriptionError names the row's element. Rows of JSON numbers are
    checked in bulk, a few passes at C speed."""
    if (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {width}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        try:
            arr = np.array(rows, dtype=float).reshape(len(rows), width)
        except OverflowError:  # an integer too large for a float; found below
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return arr
    for row, name in zip(rows, names):
        if not (isinstance(row, (list, tuple)) and len(row) == width and all(map(is_number, row))
                and np.isfinite(np.array(row, dtype=float)).all()):
            if field is None:
                raise error(f"{name} must be {width} finite numbers")
            raise error(f"{field} must be {width} finite numbers", name)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def check_json_object(value, error, what: str):
    """Raise `error` unless value is a dict that a JSON round trip gives back
    equal: string keys and JSON values only (no NaN or infinity, tuple or
    array), so that what is written is what is read back."""
    try:
        same = isinstance(value, dict) and json.loads(json.dumps(value)) == value
    except (TypeError, ValueError, RecursionError):  # a value JSON cannot hold, or a circular one
        same = False
    if not same:
        raise error(must_be(what, "a JSON object that reads back unchanged", value))


def check_number_fields(config, reals=(), integers=()):
    """Raise DataError unless each named attribute of config holds a finite
    real number (`reals`) or an integer (`integers`) by is_number."""
    for name in reals:
        finite_number(getattr(config, name), DataError, name)
    for name in integers:
        if not is_number(value := getattr(config, name), Integral):
            raise DataError(must_be(name, "an integer", value))
