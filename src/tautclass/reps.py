"""Surface-representation files.

A representation file is JSON:

    {"field": "Q" | {"quad": d},
     "genus": g,
     "tag": "SL" | "GL+" | "PGL+" | "P+GL+",
     "matrices": [[["p/q", ...], ...], ...]}   # A1, B1, ..., Ag, Bg

Every entry is an exact scalar; a decimal entry is a format error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

from ._value import Value
from .exactmath import Field, Matrix, field_from_json, parse_scalar
from .flatbundles import TAGS

FIXTURES_ENV = "TAUTCLASS_FIXTURES"


class RepFormatError(ValueError):
    """A representation file is missing a key or has one of the wrong type."""


class SurfaceRep(Value):
    """Generator matrices A1, B1, ..., Ag, Bg of a surface representation."""

    __slots__ = ("field", "genus", "tag", "matrices")

    def __init__(self, field: Field, genus: int, tag: str, matrices: list[Matrix]):
        self._set(field=field, genus=genus, tag=tag, matrices=matrices)

    def float_matrices(self) -> list[list[list[float]]]:
        return [[[float(x) for x in row] for row in m.rows] for m in self.matrices]


def _parse_entry(text: str, field: Field):
    text = text.strip()
    try:
        return parse_scalar(text, field)
    except (ValueError, ZeroDivisionError):  # "1/0" is a ZeroDivisionError
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
            reason = f"exceeds Python's {limit:,}-digit integer-string limit"
            raise RepFormatError(f"key 'matrices': entry {text!r:.80} {reason}") from None
        raise RepFormatError(f"key 'matrices': cannot parse entry {text!r:.80}") from None


def _is_matrix_list(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(m, list) and all(isinstance(row, list) for row in m) for m in x
    )


def rep_from_dict(data: dict) -> SurfaceRep:
    """Parse a representation; RepFormatError names a missing or ill-typed key."""
    if not isinstance(data, dict):
        raise RepFormatError("a representation must be a JSON object")
    for key in ("field", "genus", "tag", "matrices"):
        if key not in data:
            raise RepFormatError(f"missing key {key!r}")
    try:
        field = field_from_json(data["field"])
    except (TypeError, ValueError) as exc:
        raise RepFormatError(f"key 'field': {exc}") from None
    genus, tag, matrices = data["genus"], data["tag"], data["matrices"]
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 1:
        raise RepFormatError(
            f"key 'genus' must be a positive integer, got {genus!r:.80}"
        )
    if tag not in TAGS:
        raise RepFormatError(f"key 'tag' must be one of {', '.join(TAGS)}, got {tag!r:.80}")
    if not _is_matrix_list(matrices):
        raise RepFormatError(
            f"key 'matrices' must be a list of matrices given as lists of rows, "
            f"got {matrices!r:.80}"
        )
    sizes = {len(m) for m in matrices} | {len(row) for m in matrices for row in m}
    if len(matrices) != 2 * genus or len(sizes) != 1 or 0 in sizes:
        raise RepFormatError(f"key 'matrices' must hold 2*genus = {2 * genus} "
                             "nonempty square matrices of one size")
    parsed = [
        Matrix([[_parse_entry(str(x), field) for x in row] for row in rows])
        for rows in matrices
    ]
    return SurfaceRep(field, genus, tag, parsed)


def resolve_rep_path(path: str) -> Path:
    """Resolve a representation file, honoring TAUTCLASS_FIXTURES.

    Only a regular file resolves: a directory is a missing file.
    """
    p = Path(path)
    if p.is_file():
        return p
    root = os.environ.get(FIXTURES_ENV)
    if root:
        candidate = Path(root) / p.name
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(path)


def load_rep(path: str) -> SurfaceRep:
    with open(resolve_rep_path(path), encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # not JSON, not UTF-8, an int past the integer-string limit (the
            # message names the limit) or nesting past the recursion limit
            raise RepFormatError(f"not a JSON file: {exc}") from None
    return rep_from_dict(data)
