"""Graph specs: one description, rendered two independent ways.

A spec is a nested tuple such as ``("join", ("O", 2), ("K", 6))`` or
``("edges", n, ((u, v, w), ...))``.  :func:`dsl` renders it as the
``--graph`` expression the program parses, :func:`edge_list_text` as the
``--file`` format, and :func:`adjacency` builds its adjacency matrix with
numpy alone, so the output checks never rely on the program's own graph
code.  Vertex orders follow the documented conventions of the expression
language (parts consecutive, ``(u, v) -> u * n_y + v``, copy-major
blow-ups, cells in order).
"""

from __future__ import annotations

import numpy as np


def dsl(spec: tuple) -> str:
    """The ``--graph`` expression of a spec (not defined for edge lists)."""
    head = spec[0]
    if head in ("K", "O", "P", "C", "CP"):
        return f"{head}({spec[1]})"
    if head == "KM":
        return "KM(" + ",".join(str(p) for p in spec[1]) + ")"
    if head == "Gamma":
        cells = ",".join(str(c) for c in spec[1])
        return f"Gamma({cells})" if spec[2] == "O" else f"Gamma({cells};start=K)"
    if head in ("join", "dprod", "cprod"):
        return f"{head}({dsl(spec[1])},{dsl(spec[2])})"
    if head == "blowup":
        return f"blowup({spec[1]},{dsl(spec[2])})"
    raise ValueError(f"no expression form for {head!r}")


def edge_list_text(spec: tuple) -> str:
    """The ``--file`` edge-list text of an ``("edges", n, triples)`` spec."""
    if spec[0] != "edges":
        raise ValueError("only edge-list specs have a file form")
    lines = [f"n {spec[1]}"] + [f"{u} {v} {w}" for u, v, w in spec[2]]
    return "\n".join(lines) + "\n"


def _multipartite(parts) -> np.ndarray:
    n = sum(parts)
    a = np.ones((n, n))
    start = 0
    for p in parts:
        a[start : start + p, start : start + p] = 0.0
        start += p
    return a


def _join(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    nx, ny = len(x), len(y)
    a = np.ones((nx + ny, nx + ny))
    a[:nx, :nx] = x
    a[nx:, nx:] = y
    return a


def _union(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    nx, ny = len(x), len(y)
    a = np.zeros((nx + ny, nx + ny))
    a[:nx, :nx] = x
    a[nx:, nx:] = y
    return a


def adjacency(spec: tuple) -> np.ndarray:
    """Weighted adjacency matrix of a spec, built with numpy only."""
    head = spec[0]
    if head == "K":
        n = spec[1]
        return np.ones((n, n)) - np.eye(n)
    if head == "O":
        return np.zeros((spec[1], spec[1]))
    if head in ("P", "C"):
        n = spec[1]
        a = np.zeros((n, n))
        idx = np.arange(n - 1)
        a[idx, idx + 1] = a[idx + 1, idx] = 1.0
        if head == "C":
            a[0, n - 1] = a[n - 1, 0] = 1.0
        return a
    if head == "CP":
        return _multipartite([2] * (spec[1] // 2))
    if head == "KM":
        return _multipartite(spec[1])
    if head == "Gamma":
        clique = (lambda j: j % 2 == 0) if spec[2] == "O" else (lambda j: j % 2 == 1)
        a = None
        for j, m in enumerate(spec[1], start=1):
            cell = adjacency(("K", m)) if clique(j) else np.zeros((m, m))
            a = cell if a is None else (_join(a, cell) if clique(j) else _union(a, cell))
        return a
    if head == "join":
        return _join(adjacency(spec[1]), adjacency(spec[2]))
    if head == "dprod":
        return np.kron(adjacency(spec[1]), adjacency(spec[2]))
    if head == "cprod":
        x, y = adjacency(spec[1]), adjacency(spec[2])
        return np.kron(x, np.eye(len(y))) + np.kron(np.eye(len(x)), y)
    if head == "blowup":
        return np.kron(np.ones((spec[1], spec[1])), adjacency(spec[2]))
    if head == "edges":
        a = np.zeros((spec[1], spec[1]))
        for u, v, w in spec[2]:
            a[u, v] = a[v, u] = float(w)
        return a
    raise ValueError(f"unknown spec head {head!r}")


def walk_matrix(adj: np.ndarray, matrix: str) -> np.ndarray:
    """``A``, ``L = D - A`` or ``Mq:q = q D + A`` for a loopless adjacency."""
    if matrix == "A":
        return adj
    deg = np.diag(adj.sum(axis=1))
    if matrix == "L":
        return deg - adj
    if matrix.startswith("Mq:"):
        return float(matrix[3:]) * deg + adj
    raise ValueError(f"unknown matrix {matrix!r}")
