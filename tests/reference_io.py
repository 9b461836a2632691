"""Reference point-file reader, line by line on Fractions.

This is read_point_set as it stood before it turned a file into its stored
rows in one pass: every line split on its own, every exact token through
Fraction(str), every float token through float(), and the tuples handed to
PointSet.from_points.  The oracle tests compare the library against it:
equal sets from good files, the same exception type and message from bad
ones.
"""

from __future__ import annotations

from fractions import Fraction

from dirlab import FormatError, PointSet


def read_point_set(path) -> PointSet:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise FormatError("header must be 'd n mode'")
        try:
            dimension, count = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError(f"bad header counts: {header[:2]}") from exc
        mode = header[2]
        if mode not in ("exact", "float"):
            raise FormatError(f"unknown mode {mode!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tokens = line.split()
            if len(tokens) != dimension:
                raise FormatError(f"line {lineno}: expected {dimension} coordinates")
            try:
                if mode == "exact":
                    rows.append(tuple(Fraction(t) for t in tokens))
                else:
                    rows.append(tuple(float(t) for t in tokens))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"line {lineno}: bad token") from exc
        if len(rows) != count:
            raise FormatError(f"expected {count} points, found {len(rows)}")
    return PointSet.from_points(rows, mode=mode)
