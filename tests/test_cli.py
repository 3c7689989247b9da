"""End-to-end command line checks driven through main(argv)."""

from __future__ import annotations

import csv
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from sedwalk import (
    MatrixKind,
    classify_vertex,
    cli,
    from_edge_list_text,
    parse_graph,
    to_edge_list_text,
)
from sedwalk import twins as twins_module
from sedwalk import walk as walk_module
from sedwalk.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_classify_table_tight_pair(capsys):
    rc, out, err = run(
        capsys, "classify", "--graph", "KM(2,2,2)", "--matrix", "L", "--vertex", "0"
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == [
        "vertex", "verdict", "constant", "tight", "sharp", "time",
        "partner", "certified", "trail",
    ]
    row = lines[1].split()
    assert row[:7] == [
        "0", "sedentary", "0.333333333333", "yes", "no", "1.57079632679", "(pi/2)",
    ]
    assert row[7:9] == ["-", "yes"]
    trail = row[9]
    assert "parity:odd-relation" in trail
    assert "equality-time:t1=1.57079632679" in trail


def test_classify_table_pst_pair(capsys):
    rc, out, _ = run(
        capsys, "classify", "--graph", "join(O(2),K(6))", "--matrix", "L", "--vertex", "0"
    )
    assert rc == 0
    row = out.splitlines()[1].split()
    assert row[1] == "pst"
    assert row[5:7] == ["1.57079632679", "(pi/2)"]
    assert row[7] == "1"  # the other vertex of the empty cell
    assert "pst:time=1.57079632679" in row[9]


def test_classify_json_schema(capsys):
    rc, out, _ = run(
        capsys, "classify", "--graph", "KM(2,2,2)", "--matrix", "L",
        "--vertex", "0", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    rec = payload[0]
    assert rec["schema"] == 1
    assert rec["vertex"] == 0
    assert rec["matrix_kind"] == "L"
    assert rec["verdict"] == "sedentary"
    assert rec["constant"] == pytest.approx(1 / 3, abs=1e-9)
    assert rec["tight"] is True and rec["sharp"] is False
    assert rec["tightness_time"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert rec["partner"] is None and rec["pst_time"] is None
    assert rec["certified"] is True
    assert isinstance(rec["lemma_trail"], list) and rec["lemma_trail"]
    ev = rec["evidence"]
    assert set(ev) == {"grid_min", "grid_argmin", "mode", "grid_points", "horizon"}
    assert ev["mode"] == "exact-on-period"
    assert ev["grid_min"] == pytest.approx(rec["constant"], abs=1e-9)


def test_large_support_gets_its_equality_time(capsys):
    # eigenvalues -4 plus the 14 distinct subset sums of {3, 4, 5, 7}
    rc, out, _ = run(
        capsys, "classify", "--graph", "cprod(cprod(K(3),K(4)),cprod(K(5),K(7)))",
        "--vertex", "0", "--format", "json",
    )
    assert rc == 0
    (rec,) = json.loads(out)
    assert rec["verdict"] == "sedentary" and rec["certified"] is True
    assert rec["constant"] == pytest.approx(1 / 7, abs=1e-12)
    assert rec["lemma_trail"][-1] == "equality-time:t1=3.14159265359"


@pytest.mark.parametrize("matrix", ["A", "L", "Mq:-1"])
def test_cube_zeros_sit_at_half_the_period(capsys, matrix):
    rc, out, _ = run(
        capsys, "classify", "--graph", "cprod(cprod(K(2),K(2)),K(2))", "--matrix", matrix,
        "--format", "json",
    )
    assert rc == 0
    records = json.loads(out)
    assert len(records) == 8
    for rec in records:
        assert "zero-at-minimum:t=1.57079632679" in rec["lemma_trail"]


def test_series_csv_minimum(capsys):
    rc, out, _ = run(
        capsys, "series", "--graph", "dprod(K(3),K(4))", "--vertex", "0",
        "--tmax", str(2 * math.pi), "--steps", "20000",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "u0"]
    assert rows[1] == ["0", "1"]
    ts = [float(r[0]) for r in rows[1:]]
    vals = [float(r[1]) for r in rows[1:]]
    k = min(range(len(vals)), key=vals.__getitem__)
    assert vals[k] == pytest.approx(0.141923, abs=1e-4)
    assert ts[k] == pytest.approx(0.9445, abs=1e-3)
    assert len(rows) == 20001  # header plus one line per sample point


def test_series_endpoint_included(capsys):
    rc, out, _ = run(
        capsys, "series", "--graph", "K(2)", "--vertex", "0",
        "--tmax", "6.2832", "--steps", "8",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 9  # header plus eight sample points
    assert float(rows[-1][0]) == pytest.approx(6.2832)


BAD_GRID_FLAGS = [
    ("--tmax", "-1"),
    ("--tmax", "0"),
    ("--tmax", "nan"),
    ("--tmax", "inf"),
    ("--steps", "1"),
]


@pytest.mark.parametrize("flag,value", BAD_GRID_FLAGS)
def test_series_rejects_bad_grid(capsys, flag, value):
    rc, out, err = run(capsys, "series", "--graph", "K(2)", "--vertex", "0", flag, value)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("steps", [walk_module.MAX_SERIES_CELLS // 2 + 1, 10**12])
def test_series_above_the_cell_cap_exits_2(capsys, steps):
    # one vertex: two cells (t and |U|) per step
    rc, out, err = run(capsys, "series", "--graph", "K(2)", "--vertex", "0", "--steps", str(steps))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: series of {steps} steps for 1 vertices") and "cap" in err


def test_series_above_the_cell_cap_writes_nothing_to_out(capsys, tmp_path):
    target = tmp_path / "series.csv"
    steps = str(walk_module.MAX_SERIES_CELLS // 2 + 1)
    rc, out, err = run(
        capsys, "series", "--graph", "K(2)", "--vertex", "0", "--steps", steps, "--out", str(target)
    )
    assert rc == 2 and out == "" and "cap" in err
    assert not target.exists()


def test_series_cell_cap_counts_the_time_column(capsys, monkeypatch):
    monkeypatch.setattr(walk_module, "MAX_SERIES_CELLS", 30)
    rc, out, _ = run(capsys, "series", "--graph", "K(2)", "--steps", "10")
    assert rc == 0 and len(out.splitlines()) == 11
    rc, out, err = run(capsys, "series", "--graph", "K(2)", "--steps", "11")
    assert rc == 2 and out == "" and "33 cells" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--steps", str(walk_module.MAX_SERIES_CELLS // 2 + 1)), ("--tmax", "nan"), ("--steps", "1")],
)
def test_series_checks_its_grid_before_it_decomposes(capsys, monkeypatch, flag, value):
    def refuse(*args):
        raise AssertionError("decompose ran before the grid check")

    monkeypatch.setattr(cli, "decompose", refuse)
    rc, out, err = run(capsys, "series", "--graph", "P(30)", "--vertex", "0", flag, value)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_series_holds_one_block_of_text(tmp_path):
    # the float table (2,020,000 cells, 16.2 MB) and one block of text; the
    # whole text (30.5 MB) held as blocks and joined took 77.6 MB
    path = tmp_path / "series.csv"
    tracemalloc.start()
    try:
        rc = main(["series", "--graph", "P(100)", "--steps", "20000", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and path.stat().st_size > 30_000_000
    assert peak < 40e6


def test_series_memory_is_bounded_by_its_output(tmp_path):
    path = tmp_path / "series.csv"
    assert main(["series", "--graph", "K(2)", "--steps", "3", "--out", str(path)]) == 0
    tracemalloc.start()
    try:
        rc = main(["series", "--graph", "P(60)", "--steps", "5000", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    size = path.stat().st_size
    # 4.6 MB of text: the float table (2.4 MB), the row blocks and their join
    # take 11.7 MB; a list of cell strings per row took 34.7 MB
    assert peak < 3 * size


@pytest.mark.parametrize("flag,value", BAD_GRID_FLAGS + [("--steps", "0"), ("--steps", "-3")])
@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_scan_rejects_bad_grid(capsys, command, flag, value):
    rc, out, err = run(capsys, command, "--graph", "P(5)", flag, value)
    assert rc == 2 and out == ""
    want = "need at least 2 steps" if flag == "--steps" else "t_max must be"
    assert err.startswith("error: " + want)


@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_scan_above_the_grid_cap_exits_2(capsys, command):
    # at 8 B a point the grid would take 128 MB; it is refused before the grid,
    # and before the graph (32 MB of weights) and its decomposition
    steps = walk_module.MAX_SERIES_CELLS + 1
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, command, "--graph", "P(2000)", "--vertex", "0", "--steps", str(steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err == f"error: {steps} grid points are above the cap of {walk_module.MAX_SERIES_CELLS}\n"
    assert peak < 16e6


def test_steps_reach_twin_scans(capsys):
    # vertex 0 has a twin and a support in a cubic field, so no period: its
    # bounded scan takes --steps like that of any other vertex
    rc, out, _ = run(
        capsys, "classify", "--graph", "blowup(2,C(7))", "--vertex", "0",
        "--steps", "2001", "--format", "json",
    )
    assert rc == 0
    [rec] = json.loads(out)
    assert rec["lemma_trail"][0].startswith("twin-set:size=2")
    assert rec["lemma_trail"][-1] == "unrecognized-support"
    assert rec["evidence"]["mode"] == "grid-lower-confidence"
    assert rec["evidence"]["grid_points"] == 2001


@pytest.mark.parametrize("command", ["classify", "analyze", "series", "spectrum"])
def test_tol_flag_is_rejected(capsys, command):
    # the grouping tolerance is fixed: a wide one merged the spectrum of P(3)
    # into one class and certified vertex 0 sedentary with constant 1
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "P(3)", "--tol", "10"])
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert "unrecognized arguments: --tol 10" in cap.err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "spectrum", "twins"])
def test_q_beyond_the_float_range_exits_2(capsys, command):
    rc, out, err = run(capsys, command, "--graph", "K(3)", "--matrix", "Mq:1e400")
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "float range" in err


def test_spectrum_beyond_the_float_range_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("n 2\n0 1 1e308\n0 0 1e308\n")
    rc, out, err = run(capsys, "analyze", "--file", str(path))
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "float range" in err


# finite weights whose degree, or q times it, passes the float range
_WALK_MATRIX_OVERFLOWS = (
    ("n 3\n0 1 1e308\n1 2 1e308\n", "L"),
    ("n 3\n0 1 1e300\n1 2 1e300\n", "Mq:1e9"),
    ("n 4\n0 1 1e300\n1 2 1e300\n2 3 2e300\n", "Mq:1e9"),
)


@pytest.mark.parametrize(
    "listing,matrix,command",
    [
        pytest.param(*case, command, id=f"{i}-{command}")
        for i, case in enumerate(_WALK_MATRIX_OVERFLOWS)
        for command in ("spectrum", "series", "classify", "analyze")
    ]
    # twins builds no walk matrix; it fails on the twin eigenvalue q*deg of {0, 2}
    + [pytest.param(*_WALK_MATRIX_OVERFLOWS[1], "twins", id="1-twins")],
)
def test_walk_matrix_beyond_the_float_range_exits_2(capsys, tmp_path, listing, matrix, command):
    path = tmp_path / "huge.txt"
    path.write_text(listing)
    rc, out, err = run(capsys, command, "--file", str(path), "--matrix", matrix)
    assert rc == 2 and out == "" and _one_error_line(err)
    assert "float range" in err


def test_twins_print_a_finite_eigenvalue_of_an_overflowing_walk_matrix(capsys, tmp_path):
    # the Laplacian's diagonal holds 2e308 at vertex 1, but the twin eigenvalue
    # of {0, 2} is deg(0) = 1e308
    path = tmp_path / "huge.txt"
    path.write_text(_WALK_MATRIX_OVERFLOWS[0][0])
    rc, out, err = run(capsys, "twins", "--file", str(path), "--matrix", "L", "--format", "csv")
    assert (rc, out, err) == (0, "members,omega,eta,theta\n0|2,0,0,1e+308\n", "")


def test_infinite_weight_is_refused_by_name(capsys, tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("n 2\n0 1 1e400\n")
    rc, out, err = run(capsys, "analyze", "--file", str(path))
    assert rc == 2 and out == "" and _one_error_line(err)
    assert err == "error: weight '1e400' is not a finite float\n"


@pytest.mark.parametrize("matrix", ["A", "L", "Mq:-1"])
def test_spellings_of_one_weight_matrix_classify_alike(capsys, tmp_path, oracle, matrix):
    """A direct product with an irregular factor, its one-copy blow-up and
    its edge list are one weight matrix: one graph, and one output under
    every matrix kind, the Laplacian included."""
    exprs = ("dprod(P(3),K(2))", "blowup(1,dprod(P(3),K(2)))")
    product, blown = map(parse_graph, exprs)
    edge_file = tmp_path / "dprod.txt"
    edge_file.write_text(to_edge_list_text(product))
    read = from_edge_list_text(edge_file.read_text())
    assert product == blown == read
    assert hash(product) == hash(blown) == hash(read)
    outs = set()
    for source in (("--graph", exprs[0]), ("--graph", exprs[1]), ("--file", str(edge_file))):
        rc, out, err = run(capsys, "classify", *source, "--matrix", matrix, "--format", "json")
        assert (rc, err) == (0, "")
        outs.add(out)
    assert len(outs) == 1
    if matrix == "L":
        (out,) = outs
        records = json.loads(out)
        assert [rec["vertex"] for rec in records] == list(range(6))
        for rec in records:
            assert (rec["verdict"], rec["certified"]) == ("sedentary", True)
            assert rec["constant"] == pytest.approx(1 / 3, abs=1e-12)
            u = rec["vertex"]
            at = abs(oracle(product, MatrixKind.laplacian(), rec["tightness_time"])[u, u])
            assert at == pytest.approx(rec["constant"], abs=1e-9)


def test_exit_code_for_unsupported_laplacian(capsys):
    """The Laplacian of a direct product with an irregular factor used to be
    refused with exit status 3.  D - A of any weighted graph is symmetric,
    so every command that reads a walk now runs on it and exits 0."""
    for command in ("classify", "analyze", "spectrum", "twins"):
        rc, out, err = run(capsys, command, "--graph", "dprod(P(3),K(2))", "--matrix", "L")
        assert (rc, err) == (0, "")
        assert out


def test_exit_code_for_parse_error(capsys):
    rc, _, err = run(capsys, "classify", "--graph", "K(3")
    assert rc == 2
    assert "position" in err


def test_exit_code_for_bad_vertex(capsys):
    rc, _, err = run(capsys, "classify", "--graph", "K(2)", "--vertex", "5")
    assert rc == 2
    assert "out of range" in err


@pytest.mark.parametrize("expr", ["K(100000)", "dprod(K(300),K(300))", "blowup(1000,K(100))"])
def test_oversized_graph_exits_2_quickly(capsys, expr):
    start = time.perf_counter()
    rc, out, err = run(capsys, "analyze", "--graph", expr)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "exceeds the cap of 4096 vertices" in err


def test_oversized_edge_list_exits_2_quickly(capsys, tmp_path):
    listing = tmp_path / "big.txt"
    listing.write_text("n 100000\n0 1\n1 2 3\n", encoding="utf-8")
    start = time.perf_counter()
    rc, out, err = run(capsys, "analyze", "--file", str(listing))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert "exceeds the cap of 4096 vertices" in err


@pytest.mark.parametrize("detail", ["Unable to allocate 74.5 GiB for an array", ""])
def test_out_of_memory_exits_2(capsys, monkeypatch, detail):
    def exhausted(args):
        raise MemoryError(detail)

    monkeypatch.setattr("sedwalk.cli.cmd_spectrum", exhausted)
    rc, out, err = run(capsys, "spectrum", "--graph", "K(2)")
    assert rc == 2 and out == ""
    assert err == "error: out of memory" + (f": {detail}" if detail else "") + "\n"


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch):
    commands = (
        ["classify", "--graph", "P(5)", "--vertex", "0", "--steps", "2001", "--format", "json"],
        ["classify", "--graph", "P(5)", "--vertex", "x"],
        ["analyze", "--graph", "KM(2,2,2)", "--matrix", "L"],
        ["spectrum", "--graph", "P(5)", "--format", "csv"],
        ["classify", "--graph", "K(3)", "--vertex", "1"],
    )

    def outcome(argv: list[str]) -> tuple[int, str, str]:
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    builds = 0
    build_parser = cli.build_parser

    def counted() -> object:
        nonlocal builds
        builds += 1
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in commands]
    assert builds == 1
    assert [rc for rc, _, _ in shared] == [0, 2, 0, 0, 0]
    assert "invalid int value: 'x'" in shared[1][2]
    for argv, seen in zip(commands, shared):
        cli._parser.cache_clear()
        assert outcome(argv) == seen, argv
    assert builds == 1 + len(commands)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--graph", "CP(6)", "--matrix", "L", "--vertex", "3"],
        ["classify", "--graph", "P(5)", "--vertex", "0", "--format", "json"],
        ["analyze", "--graph", "KM(2,2,2)", "--matrix", "L"],
        ["analyze", "--graph", "join(O(2),K(3))", "--vertex", "4", "--format", "json"],
        ["analyze", "--graph", "dprod(P(3),K(2))", "--matrix", "L", "--format", "csv"],
    ],
)
def test_each_op_decomposes_and_finds_twins_once(capsys, monkeypatch, argv):
    """One ``eigh`` and one twin partition per op: the classifier computes
    both, and ``analyze`` reads the partition back from the graph's memo for
    its report."""
    eighs = misses = 0
    eigh, partition = np.linalg.eigh, twins_module._twin_partition

    def counted_eigh(mat):
        nonlocal eighs
        eighs += 1
        return eigh(mat)

    def counted_partition(g):
        nonlocal misses
        misses += "twins" not in g.memo
        return partition(g)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(twins_module, "_twin_partition", counted_partition)
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "") and out
    assert (eighs, misses) == (1, 1)


def test_repeated_runs_are_identical(capsys):
    argv = ["analyze", "--graph", "Gamma(2,6)", "--matrix", "L", "--format", "json"]
    rc1 = main(argv)
    first = capsys.readouterr().out
    rc2 = main(argv)
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "classify", "--graph", "K(3)", "--format", "json", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    rc, direct, _ = run(capsys, "classify", "--graph", "K(3)", "--format", "json")
    assert rc == 0
    assert target.read_text(encoding="utf-8") == direct


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--graph", "C(30)", "--steps", "3000"],
        ["spectrum", "--graph", "P(300)", "--format", "csv"],
        ["spectrum", "--graph", "P(300)", "--format", "json"],
        ["spectrum", "--graph", "P(300)", "--matrix", "L"],
    ],
)
def test_out_gets_the_bytes_of_stdout(capsys, tmp_path, argv):
    target = tmp_path / "out.txt"
    rc, direct, _ = run(capsys, *argv)
    assert rc == 0
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_bytes() == direct.encode("utf-8")


def test_unwritable_out_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, "spectrum", "--graph", "K(2)", "--out", str(tmp_path))
    assert rc == 2 and out == "" and err.startswith("error:")


def test_edge_list_file_matches_expression(capsys, tmp_path):
    listing = tmp_path / "path3.txt"
    listing.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
    rc, via_file, _ = run(capsys, "classify", "--file", str(listing), "--matrix", "L")
    assert rc == 0
    rc, via_expr, _ = run(capsys, "classify", "--graph", "P(3)", "--matrix", "L")
    assert rc == 0
    assert via_file == via_expr


def test_scan_past_double_spacing_terminates(capsys, tmp_path):
    # smallest gap below 0.003: the bounded-horizon scan runs past t = 4.5e5,
    # where doubles are spaced wider than the golden-section tolerance
    listing = tmp_path / "tree9.txt"
    listing.write_text(
        "n 9\n0 1 1\n0 3 3\n0 4 1\n1 2 2\n3 6 3\n3 7 3\n4 5 2\n6 8 1\n",
        encoding="utf-8",
    )
    rc, out, _ = run(
        capsys, "classify", "--file", str(listing), "--matrix", "Mq:-1", "--vertex", "2",
        "--format", "json",
    )
    assert rc == 0
    (rec,) = json.loads(out)
    assert rec["verdict"] == "undetermined"
    assert rec["evidence"]["horizon"] > 4.5e5


def test_edge_list_weights_and_loops(capsys, tmp_path):
    listing = tmp_path / "loop.txt"
    listing.write_text("# a weighted loop\nn 2\n0 1 2\n0 0 1/2\n", encoding="utf-8")
    rc, out, _ = run(capsys, "twins", "--file", str(listing))
    assert rc == 0
    assert out.splitlines()[0].split() == ["members", "omega", "eta", "theta"]


def test_families_product_table(capsys):
    rc, out, _ = run(capsys, "families", "--family", "product", "--start", "2", "--stop", "5")
    assert rc == 0
    rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert rows["dprod(K(2),K(3))"][3] == "not-sedentary"
    assert rows["dprod(K(3),K(3))"][2:5] == ["product-odd-factors", "sedentary", "0.111111111111"]
    assert rows["dprod(K(3),K(4))"][2:4] == ["product-balanced", "undetermined"]
    assert rows["dprod(K(3),K(4))"][-1] == "no"  # not certified
    assert rows["dprod(K(4),K(4))"][2:5] == ["product-dominant-class", "sedentary", "0.125"]
    assert rows["dprod(K(5),K(5))"][4] == "0.28"


def test_families_cp_table(capsys):
    rc, out, _ = run(capsys, "families", "--family", "cp", "--start", "2", "--stop", "5")
    assert rc == 0
    rows = {ln.split()[0]: ln.split() for ln in out.splitlines()[1:]}
    assert rows["CP(4)"][3] == "pst"
    assert rows["CP(6)"][3:5] == ["sedentary", "0.333333333333"]
    assert rows["CP(8)"][3] == "pst"
    assert rows["CP(10)"][3:5] == ["sedentary", "0.2"]


def test_families_clique_minus_edge_table(capsys):
    rc, out, _ = run(
        capsys, "families", "--family", "clique-minus-edge",
        "--start", "3", "--stop", "4", "--matrix", "L",
    )
    assert rc == 0
    rows = [ln.split() for ln in out.splitlines()[1:]]
    n3 = [r for r in rows if r[0] == "KM(2,1)"]
    assert n3[0][2:5] == ["pair-part-three", "sedentary", "0.333333333333"]
    n4 = [r for r in rows if r[0] == "KM(2,1,1)"]
    assert n4[0][3] == "pst"


def test_families_threshold_needs_laplacian(capsys):
    rc, _, err = run(capsys, "families", "--family", "threshold", "--cells", "2,6")
    assert rc == 2
    assert "--matrix L" in err
    rc, out, _ = run(
        capsys, "families", "--family", "threshold", "--cells", "2,6", "--matrix", "L"
    )
    assert rc == 0
    rows = [ln.split() for ln in out.splitlines()[1:]]
    assert rows[0][2:4] == ["first-cell-pst", "pst"]
    assert rows[1][2:5] == ["clique-cell", "sedentary", "0.75"]


@pytest.mark.parametrize(
    "args, order",
    [
        (("--family", "cp", "--start", "1", "--stop", "2049"), 4098),
        (("--family", "cp", "--start", "1", "--stop", "1000000000"), 2000000000),
        (("--family", "clique-minus-edge", "--start", "3", "--stop", "4097"), 4097),
        (("--family", "product", "--start", "2", "--stop", "65"), 4225),
        (("--family", "threshold", "--cells", "4000,97", "--matrix", "L"), 4097),
    ],
)
def test_families_above_the_vertex_cap_exit_2(capsys, args, order):
    # the largest graph of the sweep: CP(2 stop), stop vertices, stop^2, the cells' sum
    start = time.perf_counter()
    rc, out, err = run(capsys, "families", *args)
    assert rc == 2 and out == ""
    assert err == f"error: graph on {order} vertices exceeds the cap of 4096 vertices\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "args",
    [
        ("--family", "product", "--start", "64", "--stop", "64"),
        ("--family", "threshold", "--cells", "4000,96", "--matrix", "L"),
    ],
)
def test_families_at_the_vertex_cap_run(capsys, args):
    rc, out, _ = run(capsys, "families", *args)
    assert rc == 0 and len(out.splitlines()) > 1


def test_spectrum_table(capsys):
    rc, out, _ = run(capsys, "spectrum", "--graph", "K(3)", "--vertex", "0")
    assert rc == 0
    lines = [ln.split() for ln in out.splitlines()]
    assert lines[0] == ["vertex", "eigenvalue", "weight"]
    assert lines[1] == ["0", "2", "0.333333333333"]
    assert lines[2] == ["0", "-1", "0.666666666667"]


def test_twins_table(capsys):
    rc, out, _ = run(capsys, "twins", "--graph", "Gamma(2,3)")
    assert rc == 0
    lines = [ln.split() for ln in out.splitlines()]
    assert lines[1] == ["0,1", "0", "0", "0"]
    assert lines[2] == ["2,3,4", "0", "1", "-1"]


def test_classify_csv_format(capsys):
    rc, out, _ = run(
        capsys, "classify", "--graph", "K(2)", "--matrix", "L", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert "matrix" in rows[0]
    assert len(rows) == 3  # header plus one row per vertex


@pytest.mark.xfail(
    reason="the 1e-9 loop makes vertices 0 and 1 non-cospectral, so no PST exists, "
    "yet float recognition and the 1e-8 zero tolerance certify one",
)
def test_tiny_loop_is_not_certified_pst(capsys, tmp_path):
    path = tmp_path / "tiny-loop.txt"
    path.write_text("n 2\n0 1\n0 0 1/1000000000\n")
    rc, out, _ = run(
        capsys, "classify", "--file", str(path), "--vertex", "0", "--format", "json"
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert not (row["certified"] and row["verdict"] in ("pst", "not-sedentary"))


@pytest.mark.xfail(
    reason="grouping merges the eigenvalues +/-1e-8 into one class, so the support "
    "looks like a singleton, yet U(t)_{0,0} = cos(1e-8 t) reaches 0",
)
def test_tiny_edge_is_not_certified_sedentary(capsys, tmp_path):
    path = tmp_path / "tiny-edge.txt"
    path.write_text("n 2\n0 1 1/100000000\n")
    rc, out, _ = run(
        capsys, "classify", "--file", str(path), "--vertex", "0", "--format", "json"
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert not (row["certified"] and row["verdict"] == "sedentary")


@pytest.mark.xfail(
    reason="grouping merges the eigenvalues 2e9+2 and 2e9-1 into one class, so the "
    "support looks like a singleton with constant 1, yet the constant is 1/3; the "
    "vertex minimal polynomial has two roots (ROADMAP item 10)",
)
def test_generalized_k3_at_large_q_is_not_certified_constant_1(capsys):
    # U(t)_{0,0} = e^{i(2e9)t} (e^{2it} + 2 e^{-it}) / 3, whose modulus falls to 1/3
    rc, out, _ = run(
        capsys, "classify", "--graph", "K(3)", "--matrix", "Mq:1e9", "--vertex", "0",
        "--format", "json",
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert not row["certified"] or (
        row["verdict"] == "sedentary" and abs(row["constant"] - 1 / 3) <= 1e-9
    )


@pytest.mark.xfail(
    reason="grouping merges the eigenvalues 4e8-2, 4e8 and 4e8+4 into one class, so "
    "the twin pair's support looks like a singleton with constant 1, yet the constant "
    "is 1/3, as q = 1e6 prints (ROADMAP items 10 and 12)",
)
def test_cocktail_party_at_large_q_is_not_certified_constant_1(capsys):
    # Mq = 4e8 I + A on CP(6), so |U(t)_{0,0}| is A's,
    # |e^{4it} / 6 + 1/2 + e^{-2it} / 3|, which is 1/3 at t = pi/2
    rc, out, _ = run(
        capsys, "classify", "--graph", "CP(6)", "--matrix", "Mq:1e8", "--vertex", "0",
        "--format", "json",
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert not row["certified"] or (
        row["verdict"] == "sedentary" and abs(row["constant"] - 1 / 3) <= 1e-9
    )


@pytest.mark.xfail(
    reason="the support {0, +-sqrt(2)/3} is not recognized from floats, though the "
    "same path with weights 3 is certified pst; scaling the matrix to integers "
    "recognizes it (ROADMAP item 10)",
)
def test_third_weighted_path_certifies_pst(capsys, tmp_path):
    # P(3) with both weights 1/3 is P(3)/3: end-to-end PST at 3 pi / sqrt(2)
    path = tmp_path / "third-path.txt"
    path.write_text("n 3\n0 1 1/3\n1 2 1/3\n")
    rc, out, _ = run(
        capsys, "classify", "--file", str(path), "--vertex", "0", "--format", "json"
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert row["verdict"] == "pst" and row["partner"] == 2 and row["certified"] is True
    assert abs(row["pst_time"] - 3 * math.pi / math.sqrt(2)) <= 1e-9


@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_tiny_edge_with_one_exact_value_is_unrecognized(capsys, tmp_path, command):
    # grouping keeps +-6e-8 as two classes, and recognition rounds both to 0;
    # two classes cannot share an exact value, so the support is unrecognized
    path = tmp_path / "tiny-edge.txt"
    path.write_text("n 2\n0 1 6/100000000\n")
    rc, out, err = run(capsys, command, "--file", str(path), "--format", "json")
    assert rc == 0, err
    data = json.loads(out)
    rows = data["classification"] if command == "analyze" else data
    for row in rows:
        assert row["verdict"] == "undetermined" and row["certified"] is False
        assert row["lemma_trail"][-1] == "unrecognized-support"


def test_third_edge_certifies_only_pst(capsys, tmp_path):
    # the support +-1/3 is rational, so the vertex is periodic and its two
    # classes reach opposite phases at 3 pi/2
    path = tmp_path / "third-edge.txt"
    path.write_text("n 2\n0 1 1/3\n")
    rc, out, _ = run(
        capsys, "classify", "--file", str(path), "--vertex", "0", "--format", "json"
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert row["verdict"] == "pst" and row["partner"] == 1 and row["certified"] is True
    # JSON carries 12 significant digits; the library carries the time itself
    assert row["pst_time"] == float(f"{3 * math.pi / 2:.12g}")
    rec = classify_vertex(from_edge_list_text(path.read_text()), MatrixKind.adjacency(), 0)
    assert abs(rec.pst_time - 3 * math.pi / 2) <= 1e-12
