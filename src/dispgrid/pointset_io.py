"""Line-oriented text format for point sets.

Layout:

    dispgrid v1 d=<d> k=<k> n=<n> repr=grid|real
    <point>
    ...

One point per line: grid representation uses space-separated integer
numerators, real representation uses decimal float literals (written with
repr, so reading recovers the exact float). Real-valued files carry k=0.
Lines starting with '#' after the header are metadata comments and are
ignored on read; grid files round-trip numerators exactly.
"""

import re
from pathlib import Path

from .grid import GRID_REPR, REAL_REPR, PointSet

FORMAT_VERSION = "v1"

_HEADER_RE = re.compile(
    r"^dispgrid (?P<version>v\d+) d=(?P<d>\d+) k=(?P<k>\d+) n=(?P<n>\d+) repr=(?P<repr>grid|real)$"
)


class PointSetParseError(ValueError):
    """Malformed point-set file; carries the offending 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def format_header(points: PointSet) -> str:
    k = points.k if points.repr == GRID_REPR else 0
    return f"dispgrid {FORMAT_VERSION} d={points.dim} k={k} n={points.n} repr={points.repr}"


def write_point_set(points: PointSet, path, *, metadata: dict | None = None) -> None:
    """Write a point set; optional metadata becomes '# key=value' comment lines."""
    lines = [format_header(points)]
    if metadata:
        for key, value in metadata.items():
            lines.append(f"# {key}={value}")
    text = str if points.repr == GRID_REPR else repr
    lines.extend(" ".join(map(text, row)) for row in points.points.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_point_set(path) -> PointSet:
    """Parse a point-set file, validating the header, ranges, and point count."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise PointSetParseError(path, 1, "empty file, expected a header line")
    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise PointSetParseError(path, 1, f"malformed header: {lines[0]!r}")
    if match["version"] != FORMAT_VERSION:
        raise PointSetParseError(path, 1, f"unsupported format version {match['version']}")
    d = int(match["d"])
    k = int(match["k"])
    n = int(match["n"])
    repr_tag = match["repr"]
    if repr_tag == GRID_REPR and k < 2:
        raise PointSetParseError(path, 1, f"grid files need k >= 2, got k={k}")
    if repr_tag == REAL_REPR and k != 0:
        raise PointSetParseError(path, 1, f"real files must carry k=0, got k={k}")

    top = 2 ** min(k, 63) - 1  # numerators are stored as int64
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != d:
            raise PointSetParseError(path, line_no, f"expected {d} coordinates, found {len(fields)}")
        if repr_tag == GRID_REPR:
            try:
                row = tuple(int(f) for f in fields)
            except ValueError as exc:
                raise PointSetParseError(path, line_no, f"bad integer numerator: {exc}") from None
            for a in row:
                if not (1 <= a <= top):
                    raise PointSetParseError(
                        path, line_no, f"numerator {a} outside 1 .. {top} (k={k})"
                    )
        else:
            try:
                row = tuple(float(f) for f in fields)
            except ValueError as exc:
                raise PointSetParseError(path, line_no, f"bad float literal: {exc}") from None
            for x in row:
                if not (0.0 <= x <= 1.0):
                    raise PointSetParseError(path, line_no, f"coordinate {x} outside [0, 1]")
        rows.append(row)

    if len(rows) != n:
        raise PointSetParseError(
            path, len(lines), f"header announced n={n} points but file contains {len(rows)}"
        )
    if repr_tag == GRID_REPR:
        return PointSet(dim=d, points=rows, repr=GRID_REPR, k=k)
    return PointSet(dim=d, points=rows, repr=REAL_REPR, k=None)
