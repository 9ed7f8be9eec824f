"""The scripts under scripts/ run as written, in-process."""

import runpy
import sys
from pathlib import Path

import pytest

from idealbench.scenarios import bundled_names, load_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    """Run scripts/<name> as ``__main__`` with ``args``; its exit code."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_bench_partition_times_the_difference_engine(monkeypatch, capsys):
    assert run_script(monkeypatch, "bench_partition.py", "--posdiff", "1200") == 0
    out = capsys.readouterr().out
    assert out.startswith("posdiff-blocks horizon 1200 stages 4: run_posdiff ")
    assert " assemble " in out


def test_bench_partition_reaches_its_frontier(monkeypatch, capsys):
    assert run_script(monkeypatch, "bench_partition.py", "6") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["depth  4", "depth  5", "depth  6"]
    assert all(line.endswith("passed=True") for line in lines[:-1])
    assert lines[-1] == "frontier: depth 6"


def test_emitted_scenarios_load_back_unchanged(monkeypatch, capsys, tmp_path):
    assert run_script(monkeypatch, "emit_scenarios.py", str(tmp_path)) == 0
    names = bundled_names()
    assert sorted(path.stem for path in tmp_path.glob("*.json")) == names
    for name in names:
        path = tmp_path / f"{name}.json"
        assert load_scenario(str(path)).to_json() == load_scenario(name).to_json()
    assert len(capsys.readouterr().out.splitlines()) == len(names)
