"""Seeded op lists for the three benchmark workloads.

An op is one CLI command line.  Every list is built from the seed alone, as
repeated *blocks*: each block draws the same sequence of op templates.
Choices that change an op's cost cycle through fixed options from seeded
phases, so any few consecutive blocks hold the same mix of commands, sizes
and matrices; vertices, cost-neutral parameters and random graphs are drawn
freely.  That keeps throughput comparable across seeds.  The program sees
only DSL strings and edge-list files written under the run's input directory.

Workloads (see README.md for the layer each one stresses):

* ``twin-families``: the paper's families with twins, 6 to 60 vertices, under
  ``A``, ``L`` and ``Mq:q``; ``analyze``, ``classify --vertex`` and
  ``families`` sweeps over the same parameters.
* ``aperiodic-plain``: twin-free paths, cycles, grids and seeded weighted
  trees and sparse graphs, 6 to 16 vertices, mostly unrecognized supports.
* ``spectral-large``: ``spectrum`` and ``series`` on 100 to 400 vertices.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

from graphspec import adjacency, dsl, edge_list_text, walk_matrix

WORKLOADS = ("twin-families", "aperiodic-plain", "spectral-large")

# Blocks per list; a timed run rarely gets through all of them, so ops do
# not repeat within a run on the machines this was sized on.
BLOCKS = 60


@dataclass(frozen=True)
class Op:
    """One CLI command plus what the output checks need to know about it."""

    argv: tuple[str, ...]
    command: str
    matrix: str | None = None
    spec: tuple | None = None
    vertices: tuple[int, ...] | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


class _OpList:
    """Collects ops and writes the edge-list files they refer to."""

    def __init__(self, seed: int, input_dir: str):
        self.seed = seed
        self.rng = random.Random(seed)
        self.input_dir = input_dir
        self.ops: list[Op] = []
        self._files = 0
        self._phases: dict[str, int] = {}

    def cycle(self, name: str, options: tuple, block: int):
        """The option for this block of a choice that cycles through
        ``options`` from a seeded phase, so every few consecutive blocks hold
        each option equally often.  Choices that change an op's cost cycle;
        only cost-neutral ones are drawn at random."""
        if name not in self._phases:
            self._phases[name] = random.Random(f"{self.seed}:{name}").randrange(len(options))
        return options[(block + self._phases[name]) % len(options)]

    def source(self, spec: tuple) -> list[str]:
        if spec[0] != "edges":
            return ["--graph", dsl(spec)]
        path = os.path.join(self.input_dir, f"g{self._files:04d}.txt")
        self._files += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edge_list_text(spec))
        return ["--file", path]

    def graph_op(self, command: str, spec: tuple, matrix: str, vertex: int | None = None,
                 extra: tuple[str, ...] = (), n: int | None = None) -> None:
        argv = [command, *self.source(spec), "--matrix", matrix]
        if vertex is not None:
            argv += ["--vertex", str(vertex)]
        argv += list(extra)
        n = n if n is not None else len(adjacency(spec))
        verts = (vertex,) if vertex is not None else tuple(range(n))
        self.ops.append(Op(tuple(argv), command, matrix, spec, verts))

    def families_op(self, args: list[str], matrix: str, fmt: str) -> None:
        argv = ["families", *args, "--matrix", matrix, "--format", fmt]
        self.ops.append(Op(tuple(argv), "families", matrix))


# -- graph generators ----------------------------------------------------------


def has_twins(adj: np.ndarray) -> bool:
    """Whether two vertices see every third vertex with equal weights."""
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[[u, v]] = False
            if np.array_equal(adj[u, mask], adj[v, mask]):
                return True
    return False


def _weighted_tree(rng: random.Random, n: int) -> tuple:
    edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
    return ("edges", n, tuple(sorted(edges)))


def _weighted_sparse(rng: random.Random, n: int, extra: int) -> tuple:
    """A random spanning tree plus ``extra`` further edges, weights 1 to 3."""
    edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.randint(1, 3))
    return ("edges", n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def spectral_spread_gap(spec: tuple, matrix: str) -> tuple[float, float]:
    """Eigenvalue spread and smallest gap between distinct eigenvalues.

    The cost of a bounded-horizon scan grows with spread/gap, so drawing
    graphs with that ratio in a fixed band keeps their cost comparable.
    """
    eig = np.linalg.eigvalsh(walk_matrix(adjacency(spec), matrix))
    gaps = np.diff(eig)
    gaps = gaps[gaps > 1e-6 * max(1.0, float(np.max(np.abs(eig))))]
    return float(eig[-1] - eig[0]), float(gaps.min()) if len(gaps) else math.inf


def _random_graph(rng: random.Random, make, matrix: str, band: tuple[float, float]) -> tuple:
    """A twin-free graph from ``make`` whose spread/gap ratio under ``matrix``
    lies in ``band`` and whose smallest gap is at least ``MIN_GAP``."""
    low, high = band
    while True:
        spec = make()
        spread, gap = spectral_spread_gap(spec, matrix)
        if gap >= MIN_GAP and low <= spread / gap <= high and not has_twins(adjacency(spec)):
            return spec


# -- twin-families ---------------------------------------------------------------


def _large_family(b: _OpList, block: int, slot: int, gen: str) -> tuple[tuple, str]:
    """A family graph with twin sets on 40 to 60 vertices, and a matrix under
    which its spectrum is integral (so the one-period scan applies)."""
    rng = b.rng
    pick = b.cycle(f"large{slot}", ("CP", "KM", "dprod", "blowup"), block)
    matrix = b.cycle(f"large{slot}-matrix", ("A", "L", gen), block)
    if pick == "CP":
        return ("CP", 2 * rng.randint(20, 30)), matrix
    if pick == "KM":
        parts = [rng.randint(2, 6) for _ in range(rng.randint(10, 13))]
        while sum(parts) > 60:
            parts.pop()
        while sum(parts) < 40:
            parts.append(rng.randint(2, 6))
        return ("KM", tuple(parts)), "L"
    if pick == "dprod":
        m = rng.randint(5, 7)
        return ("dprod", ("K", m), ("K", rng.randint(-(-40 // m), 60 // m))), matrix
    r = rng.randint(8, 12)
    return ("blowup", rng.randint(-(-40 // r), 60 // r), ("K", r)), matrix


def _twin_families_block(b: _OpList, block: int) -> None:
    rng = b.rng
    fmt = b.cycle("format", ("table", "json", "csv"), block)
    gen = b.cycle("q", ("Mq:-1", "Mq:2", "Mq:3"), block)
    json_out = ("--format", "json")

    def sweep(family: str, first: int, low: int, stop: int, matrix: str) -> None:
        """A sweep over ``[start, stop]`` that includes ``first``."""
        start = max(low, first - rng.randint(0, 4))
        b.families_op(["--family", family, "--start", str(start), "--stop", str(stop)],
                      matrix, fmt)

    k = b.cycle("cp", (6, 7, 8), block)
    m_cp = b.cycle("cp-matrix", ("A", "L"), block)
    sweep("cp", k, 1, k + rng.randint(0, 3), m_cp)
    b.graph_op("analyze", ("CP", 2 * k), m_cp, extra=json_out)

    n = b.cycle("km2", (8, 9, 10), block)
    m_km = b.cycle("km2-matrix", ("A", "L"), block)
    sweep("clique-minus-edge", n, 3, n + rng.randint(0, 3), m_km)
    b.graph_op("analyze", ("KM", (2,) + (1,) * (n - 2)), m_km, extra=json_out)

    x, y = b.cycle("dprod", ((3, 4), (4, 4), (3, 5), (2, 6)), block)
    b.families_op(["--family", "product", "--start", "2", "--stop", str(max(x, y) + 1)], "A",
                  fmt)
    b.graph_op("analyze", ("dprod", ("K", x), ("K", y)), "A", extra=json_out)

    first = b.cycle("gamma-first", ("O", "K"), block)
    h = 4 if first == "O" else 3
    cells = [1] * h
    for _ in range(b.cycle("gamma", (6, 7, 8), block)):
        cells[rng.randrange(h)] += 1
    b.families_op(["--family", "threshold", "--cells", ",".join(map(str, cells)),
                   "--first-cell", first], "L", fmt)
    b.graph_op("analyze", ("Gamma", tuple(cells), first), "L", extra=json_out)

    m, inner = b.cycle("blowup", ((3, ("K", 4)), (2, ("K", 6)), (3, ("C", 4)), (2, ("C", 6))),
                       block)
    b.graph_op("analyze", ("blowup", m, inner), gen, extra=json_out)

    total = b.cycle("join", (9, 10, 11), block)
    a = rng.randint(2, 5)
    left, right = ("O", a), ("K", total - a)
    if rng.random() < 0.5:
        left, right = right, left
    b.graph_op("analyze", ("join", left, right), b.cycle("join-matrix", ("A", "L"), block),
               extra=json_out)

    parts = [1, 1, 1]
    for _ in range(b.cycle("km", (5, 6, 7), block)):
        parts[rng.randrange(3)] += 1
    b.graph_op("analyze", ("KM", tuple(parts)), "L", extra=json_out)

    b.graph_op("analyze", ("CP", b.cycle("cp-large", (20, 22, 24), block)),
               b.cycle("cp-large-matrix", ("L", gen), block), extra=json_out)

    for slot in range(2):
        spec, matrix = _large_family(b, block, slot, gen)
        b.graph_op("classify", spec, matrix, vertex=rng.randrange(len(adjacency(spec))),
                   extra=json_out)


# -- aperiodic-plain ---------------------------------------------------------------


# Spread/gap bands of the random graphs: ordinary ones, and ones whose ratio
# is large enough for the scan to use its full 10^6 points.
ORDINARY_BAND = (30.0, 90.0)
SMALL_BAND = (12.0, 36.0)
FULL_SCAN_BAND = (350.0, math.inf)
# Below a gap of about 0.003 the scan horizon passes 4.5e5, where doubles are
# spaced wider than the 1e-10 tolerance of the golden-section refinement in
# WalkEvaluator.infimum_diagonal, and that loop never ends.  Such inputs
# cannot be timed, so random graphs keep their gaps above this.
MIN_GAP = 0.004


def _aperiodic_block(b: _OpList, block: int) -> None:
    rng = b.rng
    turn = b.cycle("matrices", (0, 1, 2), block)
    mats = ("A", "L", "Mq:-1")[turn:] + ("A", "L", "Mq:-1")[:turn]
    json_out = ("--format", "json")

    def random_op(command: str, make, matrix: str, band: tuple[float, float], n: int) -> None:
        spec = _random_graph(rng, make, matrix, band)
        vertex = None if command == "analyze" else rng.randrange(n)
        b.graph_op(command, spec, matrix, vertex=vertex, extra=json_out)

    b.graph_op("analyze", ("P", b.cycle("path", (6, 7, 8), block)), mats[0], extra=json_out)
    b.graph_op("analyze", ("C", b.cycle("cycle", (6, 7, 8), block)), mats[1], extra=json_out)
    b.graph_op("classify", ("P", 16), mats[2], vertex=rng.randrange(16), extra=json_out)
    n = b.cycle("cycle16", (12, 14, 16), block)
    b.graph_op("classify", ("C", n), mats[0], vertex=rng.randrange(n), extra=json_out)
    x, y = b.cycle("grid", ((2, 6), (3, 4), (3, 5), (4, 4), (2, 7)), block)
    b.graph_op("classify", ("cprod", ("P", x), ("P", y)), mats[1], vertex=rng.randrange(x * y),
               extra=json_out)
    n = b.cycle("tree", (12, 14, 16), block)
    random_op("classify", lambda: _weighted_tree(rng, n), mats[2], ORDINARY_BAND, n)
    n = b.cycle("sparse", (10, 12, 14), block)
    random_op("classify", lambda: _weighted_sparse(rng, n, n // 3), mats[0], ORDINARY_BAND, n)
    n = b.cycle("small-tree", (6, 7), block)
    random_op("analyze", lambda: _weighted_tree(rng, n), mats[1], SMALL_BAND, n)
    # two full-length scans per block, so the slowest tenth of ops falls
    # inside one cost class rather than on the edge between two
    for matrix in ("L", "Mq:-1"):
        random_op("classify", lambda: _weighted_tree(rng, 9), matrix, FULL_SCAN_BAND, 9)


# -- spectral-large ----------------------------------------------------------------


def _spectral_block(b: _OpList, block: int) -> None:
    rng = b.rng

    def series(spec: tuple, n: int) -> None:
        tmax = f"{rng.uniform(5.0, 50.0):.3f}"
        b.graph_op("series", spec, rng.choice(("A", "L")), vertex=rng.randrange(n),
                   extra=("--tmax", tmax, "--steps", "2000"), n=n)

    def spectrum(spec: tuple, n: int, fmt: str) -> None:
        b.graph_op("spectrum", spec, rng.choice(("A", "L")), extra=("--format", fmt), n=n)

    n = b.cycle("path", (200, 240, 280), block)
    spectrum(("P", n), n, "json")
    n = b.cycle("cycle", (180, 200, 220), block)
    spectrum(("C", n), n, "csv")
    n = b.cycle("sparse", (100, 110, 120), block)
    spectrum(_weighted_sparse(rng, n, n // 4), n, "json")
    x, y = b.cycle("grid", ((10, 14), (12, 12), (11, 13)), block)
    spectrum(("cprod", ("P", x), ("P", y)), x * y, "csv")
    x = b.cycle("torus", (10, 11, 12), block)
    spectrum(("cprod", ("C", x), ("C", x)), x * x, "json")
    # the largest decomposition of the workload, in every block
    series(("P", 400), 400)
    n = b.cycle("sparse-series", (210, 230, 250), block)
    series(_weighted_sparse(rng, n, n // 4), n)
    x = b.cycle("torus-series", (13, 14, 15), block)
    series(("cprod", ("C", x), ("C", x)), x * x)
    n = b.cycle("cycle-series", (220, 250, 280), block)
    series(("C", n), n)


_BLOCKS = {
    "twin-families": _twin_families_block,
    "aperiodic-plain": _aperiodic_block,
    "spectral-large": _spectral_block,
}

# One fixed, small op per workload: the warm-up op of every setup.
WARMUP = {
    "twin-families": ("analyze", "--graph", "CP(6)", "--matrix", "L", "--format", "json"),
    "aperiodic-plain": ("classify", "--graph", "P(5)", "--matrix", "A", "--vertex", "0",
                        "--format", "json"),
    "spectral-large": ("spectrum", "--graph", "P(50)", "--format", "json"),
}


def build_ops(workload: str, seed: int, input_dir: str, blocks: int = BLOCKS) -> list[Op]:
    """The seeded op list of a workload; edge-list files go to ``input_dir``."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(input_dir, exist_ok=True)
    b = _OpList(seed, input_dir)
    for block in range(blocks):
        _BLOCKS[workload](b, block)
    return b.ops
