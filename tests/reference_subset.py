"""Reference separated subset with per-key units and tuple chart cells.

This is the separated subset as it stood before it moved onto arrays:
units from DirectionKey.unit_vector() one key at a time, chart cells as
(face, idx_0, ..., idx_{d-2}) tuples in dicts, parity classes keyed by
tuples, and two hand-written greedy loops that re-index the kept units for
every candidate.  The oracle tests compare the library against it field by
field.

greedy is the array greedy that followed, one norm over every kept unit
per candidate; the library's slab greedy is compared with it pass by pass.
"""

from __future__ import annotations

import math

import numpy as np

from dirlab.directions import DirectionCensus, SeparatedSubset
from reference_pairs import face_decompose


def chart_cells(units: np.ndarray, pitch: float) -> list[tuple]:
    k, d = units.shape
    m = max(1, math.ceil(2 / pitch))
    face, other = face_decompose(units)
    idx = np.clip(((other + 1.0) / pitch).astype(np.int64), 0, m - 1)
    return [
        (int(face[i]),) + tuple(int(v) for v in idx[i])
        for i in range(k)
    ]


def separated_subset(census: DirectionCensus, delta: float) -> SeparatedSubset:
    keys = sorted(census.keys, key=lambda key: key.rep)
    units = np.array([key.unit_vector() for key in keys], dtype=np.float64)
    d = units.shape[1]
    n_classes = 2 ** (d - 1)
    pitch = (d + 1) * delta

    while True:
        cells = {}
        for pos, cell in enumerate(chart_cells(units, pitch)):
            cells.setdefault(cell, pos)
        occupied = len(cells)
        need = math.ceil(occupied / n_classes)

        classes: dict[tuple, list[int]] = {}
        for cell in sorted(cells):
            sigma = tuple(v % 2 for v in cell[1:])
            classes.setdefault(sigma, []).append(cells[cell])

        best: list[int] = []
        for sigma in sorted(classes):
            kept: list[int] = []
            for pos in classes[sigma]:
                if kept:
                    gaps = np.linalg.norm(units[kept] - units[pos], axis=1)
                    if gaps.min() < delta:
                        continue
                kept.append(pos)
            if len(kept) > len(best):
                best = kept

        if len(best) >= need:
            chosen = list(best)
            members = set(chosen)
            for pos in range(len(keys)):
                if pos in members:
                    continue
                gaps = np.linalg.norm(units[chosen] - units[pos], axis=1)
                if gaps.min() >= delta:
                    chosen.append(pos)
                    members.add(pos)
            return SeparatedSubset(
                keys=[keys[pos] for pos in chosen],
                delta=delta,
                pitch=pitch,
                occupied_cells=occupied,
                color_classes=n_classes,
            )
        pitch *= 2


def greedy(units: np.ndarray, kept: list, candidates: list, delta: float) -> list:
    """kept, then each candidate in order whose unit lies at least delta
    from every unit kept so far."""
    chosen = list(kept)
    buf = np.empty((len(chosen) + len(candidates), units.shape[1]))
    buf[: len(chosen)] = units[chosen]
    for pos in candidates:
        n = len(chosen)
        if n and np.linalg.norm(buf[:n] - units[pos], axis=1).min() < delta:
            continue
        buf[n] = units[pos]
        chosen.append(pos)
    return chosen
