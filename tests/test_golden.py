"""Golden snapshot of ``classify_all`` under A and L.

The snapshot in ``golden/classify.json`` pins verdicts, flags, partners,
times, constants and the names of the certificate steps for a graph list
that reaches every branch of the classification tree: the criterion-12
list of the acceptance suite plus graphs that add plain PST, a singleton
support, a pair without a general constant, a sharp twin floor, an
unrecognized support and a dominant-class floor on a twin-free vertex.

Regenerate the file (only when a verdict change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from sedwalk import (
    InfimumMode,
    MatrixKind,
    WalkEvaluator,
    WeightedGraph,
    blow_up,
    classify_all,
    cocktail_party,
    complete,
    complete_multipartite,
    decompose,
    direct_product,
    find_twin_sets,
    parse_graph,
    star,
    threshold,
)

GOLDEN = Path(__file__).parent / "golden" / "classify.json"
KINDS = (MatrixKind.adjacency(), MatrixKind.laplacian())
FLOAT_TOL = 1e-9

GRAPHS = {
    "complete(2)": lambda: complete(2),
    "complete(4)": lambda: complete(4),
    "star(3)": lambda: star(3),
    "star(4)": lambda: star(4),
    "cocktail_party(2)": lambda: cocktail_party(2),
    "cocktail_party(3)": lambda: cocktail_party(3),
    "threshold([2,3])": lambda: threshold([2, 3]),
    "threshold([2,6])": lambda: threshold([2, 6]),
    "pendant_path": lambda: WeightedGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]
    ),
    "complete_multipartite([2,2,2])": lambda: complete_multipartite([2, 2, 2]),
    "complete_multipartite([1,5])": lambda: complete_multipartite([1, 5]),
    "blow_up(2,complete(3))": lambda: blow_up(2, complete(3)),
    "direct_product(complete(3),complete(3))": lambda: direct_product(complete(3), complete(3)),
    "cprod(cprod(K(2),K(2)),K(2))": lambda: parse_graph("cprod(cprod(K(2),K(2)),K(2))"),
    "O(2)": lambda: parse_graph("O(2)"),
    "join(K(2),C(4))": lambda: parse_graph("join(K(2),C(4))"),
    "Gamma(2,1,1,2)": lambda: parse_graph("Gamma(2,1,1,2)"),
    "P(5)": lambda: parse_graph("P(5)"),
    "join(O(2),K(6))": lambda: parse_graph("join(O(2),K(6))"),
    # twin-free vertices 0 and 1 with a non-periodic Laplacian support
    # {3 +/- sqrt5, 3, 0} and one class above weight 1/2: the dominant-class
    # floor, once blocked and once approached
    "edges(6:0-2,0-3,0-4,0-5,1-2,1-3)": lambda: WeightedGraph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3)]
    ),
}

FLOAT_FIELDS = ("constant", "tightness_time", "pst_time")


def step_name(step: str) -> str:
    """A certificate step without its numbers: ``pst:time=1.57`` -> ``pst``.

    Steps that carry no ``=`` keep their full text, so branch and parity
    outcomes such as ``parity:all-even`` stay part of the name.
    """
    if "=" not in step:
        return step
    return step.split("=", 1)[0].rsplit(":", 1)[0]


def snapshot_record(rec) -> dict:
    return {
        "vertex": rec.vertex,
        "verdict": rec.verdict.value,
        "certified": rec.certified,
        "tight": rec.tight,
        "sharp": rec.sharp,
        "partner": rec.partner,
        "constant": rec.constant,
        "tightness_time": rec.tightness_time,
        "pst_time": rec.pst_time,
        "steps": [step_name(s) for s in rec.certificate],
    }


def snapshot(name: str, kind: MatrixKind) -> list[dict]:
    return [snapshot_record(rec) for rec in classify_all(GRAPHS[name](), kind)]


def _key(name: str, kind: MatrixKind) -> str:
    return f"{name} {kind.short_name}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("name", list(GRAPHS))
def test_classify_all_matches_golden(golden, name, kind):
    expected = golden[_key(name, kind)]
    got = snapshot(name, kind)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        where = (name, kind.short_name, want["vertex"])
        for field, value in want.items():
            if field in FLOAT_FIELDS and value is not None:
                assert have[field] is not None, (where, field)
                assert math.isclose(have[field], value, rel_tol=0.0, abs_tol=FLOAT_TOL), (
                    where,
                    field,
                )
            else:
                assert have[field] == value, (where, field, have[field])


def test_golden_covers_every_graph(golden):
    assert set(golden) == {_key(name, kind) for name in GRAPHS for kind in KINDS}


# the golden list already holds Gamma(2,1,1,2)
SHARED_TABLE_GRAPHS = [*GRAPHS, "CP(8)", "KM(3,3,2)"]
SHARED_TABLE_KINDS = (*KINDS, MatrixKind.parse("Mq:-1"))


@pytest.mark.parametrize("kind", SHARED_TABLE_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("name", SHARED_TABLE_GRAPHS)
def test_shared_period_table_changes_no_bits(period_reference, support_form, name, kind):
    """Every exact one-period minimum in a classification is the bit-exact
    scan of its class representative, the first vertex whose record holds
    the same scan; twins share it; and it passes the dense-grid reference
    check at every vertex it serves."""
    g = GRAPHS[name]() if name in GRAPHS else parse_graph(name)
    dec = decompose(g, kind)
    ev = WalkEvaluator(dec)
    twin_sets = find_twin_sets(g)
    records = classify_all(g, kind, dec, twin_sets=twin_sets)
    for ts in twin_sets:
        assert all(records[m].evidence is records[ts.members[0]].evidence for m in ts.members)
    representative: dict[int, int] = {}
    for u, rec in enumerate(records):
        scan = rec.evidence
        w = representative.setdefault(id(scan), u)
        if scan.mode is not InfimumMode.EXACT_ON_PERIOD or scan.grid_points == 1:
            continue
        assert scan == WalkEvaluator(dec).infimum_diagonal(w, support_form(dec, w)), u
        period_reference(ev, u, scan)


def main() -> None:
    data = {_key(name, kind): snapshot(name, kind) for name in GRAPHS for kind in KINDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
