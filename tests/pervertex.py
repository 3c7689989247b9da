"""Per-vertex reference for ``spectrum``: the oracle for its vertex blocks.

Each vertex's support is thresholded from its own ``diagonal_weights`` and
every number is formatted on its own, then laid out by the standard library
(``json.dumps`` of the rounded floats, ``csv.writer``, padded columns), as
the command did before it worked in vertex blocks.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

import numpy as np

from sedwalk.spectral import SUPPORT_TOL, SpectralDecomposition

HEADERS = ("vertex", "eigenvalue", "weight")


def spectrum_output(dec: SpectralDecomposition, vertices: Iterable[int], fmt: str) -> str:
    supports = []
    for u in vertices:
        weights = dec.diagonal_weights(u)
        idx = np.flatnonzero(np.sqrt(weights) > SUPPORT_TOL)
        supports.append((u, dec.eigenvalues[idx].tolist(), weights[idx].tolist()))
    if fmt == "json":
        records = [
            {
                "vertex": u,
                "values": [float(f"{v:.12g}") for v in values],
                "weights": [float(f"{w:.12g}") for w in weights],
            }
            for u, values, weights in supports
        ]
        return json.dumps(records, indent=2) + "\n"
    rows = [
        [str(u), f"{v:.12g}", f"{w:.12g}"]
        for u, values, weights in supports
        for v, w in zip(values, weights)
    ]
    if fmt == "csv":
        sio = io.StringIO()
        csv.writer(sio, lineterminator="\n").writerows([HEADERS, *rows])
        return sio.getvalue()
    widths = [max(len(cell) for cell in column) for column in zip(HEADERS, *rows)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in [HEADERS, *rows]
    )
