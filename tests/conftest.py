"""Shared fixtures: an independent matrix-exponential oracle and graph makers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from sedwalk.graphs import ADJACENCY, MatrixKind, WeightedGraph
from sedwalk.numtheory import periodic_form, recognize_values


@pytest.fixture(scope="session")
def oracle():
    """Dense matrix exponential U(t) = exp(i t M), independent of the package's
    spectral path."""

    def evolve(g: WeightedGraph, kind: MatrixKind, t: float) -> np.ndarray:
        m = g.matrix(kind)
        return scipy.linalg.expm(1j * t * m)

    return evolve


@pytest.fixture(scope="session")
def pair_amplitudes():
    """U(t)_{u,v} at an array of times from a decomposition: the phases
    exp(i t lambda_j) times the projector entries (E_j)_{u,v}."""

    def amplitudes(dec, u: int, v: int, times: np.ndarray) -> np.ndarray:
        return np.exp(1j * np.outer(times, dec.eigenvalues)) @ dec.entries(u, v)

    return amplitudes


@pytest.fixture(scope="session")
def support_form():
    """The periodic form of vertex u's support values, or None: what
    ``classify_all`` hands to ``WalkEvaluator.infimum_diagonal``."""

    def form(dec, u: int):
        exacts = recognize_values(dec.support(u).values)
        return periodic_form(exacts) if exacts is not None else None

    return form


@pytest.fixture(scope="session")
def period_reference():
    """Checks an exact one-period minimum of |U(t)_{u,u}| against the grid
    np.linspace(0, period, points), sampled by the baby-step/giant-step
    kernel (itself checked against direct phases in test_walk).  The value
    may not lie above the grid minimum, nor below it by more than half the
    step times the Lipschitz bound sum_j w_j (lambda_j - lambda_min), and |U|
    at the reported time must equal it."""

    def check(ev, u: int, scan, points: int = 200_001) -> None:
        grid_min = float(ev.diagonal_grid_magnitudes(u, scan.horizon, points).min())
        lam = ev.dec.eigenvalues
        slope = float(ev.dec.diagonal_weights(u) @ (lam - lam.min()))
        step = scan.horizon / (points - 1)
        assert scan.value <= grid_min + 1e-12, (u, scan.value, grid_min)
        assert scan.value >= grid_min - slope * step / 2, (u, scan.value, grid_min)
        assert abs(ev.magnitude(u, u, scan.attained_time) - scan.value) <= 1e-12, u

    return check


def _connected(g: WeightedGraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.incident(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


@pytest.fixture(scope="session")
def rand_graph():
    """Random simple graph factory with small integer weights (exact spectra
    stay recognizable)."""

    def make(
        rng: np.random.Generator,
        n: int,
        p: float = 0.5,
        weights: tuple[int, ...] = (1, 2, 3),
        connected: bool = False,
    ) -> WeightedGraph:
        for _ in range(200):
            edges = [
                (u, v, int(rng.choice(weights)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = WeightedGraph.from_edges(n, edges)
            if not connected or _connected(g):
                return g
        raise RuntimeError("could not sample a connected graph")

    return make


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    lines: dict[str, str] = {}
    for outcome, mark in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                lines[nodeid.split("::")[-1]] = mark
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name in sorted(lines):
            terminalreporter.write_line(f"  {name}: {lines[name]}")
