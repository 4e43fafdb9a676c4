"""Text formats for landmark sets.

Two formats are supported:

* ``pls``, a partial-square grid: n1 rows of n2 whitespace-separated
  cells, where a symbol k in row i, column j records the landmark
  (i, j, k) and ``.`` records an empty cell.  Only sets in which no two
  landmarks share their first two coordinates are representable.
* ``triples``, one ``i j k`` line per landmark with a
  ``# graph n1 n2 n3 K`` header line.

In both, a ``# graph`` header must describe the graph given, and every
cell, field and header number is an optionally signed run of ASCII digits.

Round trip: parsing an emitted document reproduces the landmark set,
with its format given or detected.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import ParseError, Unsupported
from .hamming import GhgParams
from .resolving import LandmarkSet

FORMATS = ("pls", "triples")
# int() alone would also take 1_0 as 10, and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(field: str) -> int:
    if not _INTEGER.fullmatch(field):
        raise ValueError(field)
    return int(field)


def _data_lines(text: str, g: GhgParams | None) -> Iterator[tuple[int, str, list[str] | None]]:
    """(line number, line, fields) of each data line of a document, in
    order, skipping blank lines and comments.  Each ``# graph`` header is
    checked against g when it is reached, or, with g None, yielded with
    fields None."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()
            continue
        parts = line[1:].split()  # none on a blank line
        if parts[:1] != ["graph"]:
            continue
        if g is None:
            yield lineno, line, None
            continue
        if len(parts) != 5:
            raise ParseError("graph header needs n1 n2 n3 K", line=lineno)
        try:
            dims = tuple(_integer(p) for p in parts[1:4])
            k = frozenset(_integer(p) for p in parts[4].split(","))
        except ValueError:
            raise ParseError(f"malformed graph header {line!r}", line=lineno) from None
        if dims != g.dims or k != g.k:
            # worded from the numbers alone, which need not make a valid graph
            raise ParseError(f"header describes {'x'.join(map(str, dims))};K={_format_k(k)}, "
                             f"expected {g.format()}", line=lineno)


def _pls_rows(W: LandmarkSet) -> dict[int, dict[int, int]]:
    """Symbol k by column j by row i for each landmark (i, j, k): the one
    check that W has a pls form, refusing two landmarks in one cell."""
    rows: dict[int, dict[int, int]] = {}
    for i, j, k in W.members:
        row = rows.setdefault(i, {})
        if j in row:
            raise Unsupported(f"not pls-representable: two landmarks share row {i}, column {j}")
        row[j] = k
    return rows


def _pls_lines(dims: tuple[int, ...], rows: dict[int, dict[int, int]]) -> Iterator[str]:
    """The grid row by row, each filled in from a row of blank cells; the
    caller checks ``rows`` with ``_pls_rows`` before the first line."""
    n1, n2, n3 = dims
    width = len(str(n3))
    blank = [".".rjust(width)] * n2
    for i in range(1, n1 + 1):
        cells = blank.copy()
        for j, k in rows.get(i, {}).items():
            cells[j - 1] = str(k).rjust(width)
        yield " ".join(cells) + "\n"


def emit_pls(W: LandmarkSet) -> str:
    return emit_landmarks(W, "pls")[0]


def pls_representable(W: LandmarkSet) -> bool:
    try:
        _pls_rows(W)
    except Unsupported:
        return False
    return True


def parse_pls(text: str, g: GhgParams) -> LandmarkSet:
    if g.r != 3:
        raise Unsupported(f"pls grids need 3 coordinates, got r={g.r}")
    n1, n2, n3 = g.dims
    rows = list(_data_lines(text, g))  # every header is checked before any row
    if len(rows) != n1:
        raise ParseError(f"expected {n1} rows, found {len(rows)}")
    members = []
    for i, (lineno, _, cells) in enumerate(rows, start=1):
        if len(cells) != n2:
            raise ParseError(
                f"row {i} has {len(cells)} cells, expected {n2}", line=lineno
            )
        for j, cell in enumerate(cells, start=1):
            if cell == ".":
                continue
            try:
                k = _integer(cell)
            except ValueError:
                raise ParseError(
                    f"cell {cell!r} is neither an integer nor '.'",
                    line=lineno, column=j,
                ) from None
            if not 1 <= k <= n3:
                raise ParseError(
                    f"symbol {k} outside 1..{n3}", line=lineno, column=j
                )
            members.append((i, j, k))
    # rows, columns and symbols are in range, one landmark to a cell
    return LandmarkSet._trusted(g, tuple(members))


def _format_k(k) -> str:
    return ",".join(str(j) for j in sorted(k))


def _triples_lines(W: LandmarkSet) -> Iterator[str]:
    g = W.graph
    yield f"# graph {g.dims[0]} {g.dims[1]} {g.dims[2]} {_format_k(g.k)}\n"
    for i, j, k in W.members:
        yield f"{i} {j} {k}\n"


def emit_triples(W: LandmarkSet) -> str:
    return emit_landmarks(W, "triples")[0]


def parse_triples(text: str, g: GhgParams) -> LandmarkSet:
    if g.r != 3:
        raise Unsupported(f"landmark sets need 3 coordinates, got r={g.r}")
    members: dict[tuple[int, int, int], None] = {}  # in order of their lines
    for lineno, line, parts in _data_lines(text, g):
        if len(parts) != 3:
            raise ParseError(
                f"expected three integers, found {len(parts)} fields", line=lineno
            )
        try:
            triple = tuple(_integer(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line=lineno) from None
        for col, (c, d) in enumerate(zip(triple, g.dims), start=1):
            if not 1 <= c <= d:
                raise ParseError(
                    f"coordinate {c} outside 1..{d}", line=lineno, column=col
                )
        if triple in members:
            raise ParseError(f"duplicate landmark {triple}", line=lineno)
        members[triple] = None
    # every coordinate is in range and every duplicate refused above
    return LandmarkSet._trusted(g, tuple(members))


def detect_format(text: str, g: GhgParams | None = None) -> str:
    """Guess pls vs triples: a grid contains '.' cells or non-triple rows;
    a triples document is all 3-field data lines.

    Given the graph, a document that reads both ways is refused: one with
    no ``# graph`` header and exactly n1 rows of three integers, when
    n2 = 3, is a full grid as much as a list of triples.
    """
    rows = []
    header = False
    for _, _, parts in _data_lines(text, None):
        if parts is None:
            header = True
        elif "." in parts or len(parts) != 3:
            return "pls"
        else:
            rows.append(parts)
    if (g is not None and not header and g.dims[1] == 3 and len(rows) == g.dims[0]
            and all(_INTEGER.fullmatch(f) for parts in rows for f in parts)):
        raise ParseError(
            f"document reads as both a full pls grid and {len(rows)} triples; "
            "name its format with --format")
    return "triples"


def parse_landmarks(text: str, fmt: str | None, g: GhgParams) -> LandmarkSet:
    """Parse a landmark document; ``fmt`` is 'pls', 'triples', or None to sniff."""
    if fmt is None:
        fmt = detect_format(text, g)
    if fmt == "pls":
        return parse_pls(text, g)
    if fmt == "triples":
        return parse_triples(text, g)
    raise Unsupported(f"unknown format {fmt!r}; expected one of {FORMATS}")


def landmark_lines(W: LandmarkSet, fmt: str | None = None) -> tuple[Iterator[str], str]:
    """(lines, format used) of a landmark document, each line made as it
    is read, a grid row by row.  With ``fmt`` None, pls when no two
    landmarks share a cell and the grid is not full with three columns,
    whose rows read as triples too; else triples.  An unknown format or a
    set with no pls form is refused here, before any line is made.
    """
    if fmt is None:
        n1, n2, _ = W.graph.dims
        full_three = n2 == 3 and len(W) == 3 * n1
        fmt = "pls" if not full_three and pls_representable(W) else "triples"
    if fmt == "pls":
        return _pls_lines(W.graph.dims, _pls_rows(W)), "pls"
    if fmt == "triples":
        return _triples_lines(W), "triples"
    raise Unsupported(f"unknown format {fmt!r}; expected one of {FORMATS}")


def emit_landmarks(W: LandmarkSet, fmt: str | None = None) -> tuple[str, str]:
    """(text, format used) of a landmark document: the lines of
    ``landmark_lines(W, fmt)`` joined."""
    lines, used = landmark_lines(W, fmt)
    return "".join(lines), used


__all__ = [
    "FORMATS",
    "emit_pls",
    "parse_pls",
    "emit_triples",
    "parse_triples",
    "parse_landmarks",
    "emit_landmarks",
    "landmark_lines",
    "detect_format",
    "pls_representable",
]
