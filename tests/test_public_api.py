"""The public surface stays in step with the code: every exported name
resolves, and the README's library quick start runs as printed."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sedwalk

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
