"""The public surface stays in step with the code: every exported name
resolves, and the README's library quick start and CLI examples run as
printed."""

from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import sedwalk
from sedwalk import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["sedwalk"] + [f"sedwalk.{m.name}" for m in pkgutil.iter_modules(sedwalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Verdict.PST 1 1.5707963267948966"
    assert len(lines) == 2


def _readme_cli_examples() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_lists_six_cli_examples():
    examples = _readme_cli_examples()
    assert [argv[:1] for argv in examples] == [["sedwalk"]] * 6
    assert sorted(argv[1] for argv in examples) == sorted(
        ["classify", "analyze", "series", "twins", "spectrum", "families"]
    )


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[1])
def test_readme_cli_example_runs(capsys, tmp_path, argv):
    args = argv[1:]
    out = None
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = out = str(tmp_path / args[at])
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    assert out is None or Path(out).stat().st_size > 0
