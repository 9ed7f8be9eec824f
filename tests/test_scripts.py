"""The scripts under scripts/ run as written, in-process."""

import json
import platform
import runpy
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from idealbench import certify, construction
from idealbench.scenarios import bundled_names, load_scenario
from idealbench.serialize import dump_json

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


def test_bench_partition_times_certificates(monkeypatch, capsys):
    assert run_script(monkeypatch, "bench_partition.py", "--certs", "3", "5", "8") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["depth  3", "depth  5", "depth  8"]
    # pw-2c runs its four stages from depth 8 on
    for line, pw_2c in zip(lines, ([], [], ["pw-2c"])):
        words = line.split()
        columns = ["partition", "weight-bound", "subset-reduction", *pw_2c]
        assert words[2::5] == columns
        assert set(words[3::5]) == {"produce"} and set(words[5::5]) == {"recheck"}
        assert len(words) == 2 + 5 * len(columns)


def test_bench_partition_times_each_produce_cold_and_its_recheck_warm(monkeypatch, capsys):
    # levels read before the run serve no timed produce, and no recheck runs
    # the recurrence; a repeated depth is timed cold again
    events = []
    greedy_numbers, recheck = construction.greedy_numbers, certify.recheck

    def counted(number=int):
        events.append(number.__name__)
        return greedy_numbers(number)

    def marked(cert):
        events.append("recheck")
        return recheck(cert)

    monkeypatch.setattr(construction, "_LEVELS", {})
    construction.greedy_levels(8, Decimal)
    construction.greedy_levels(8)
    monkeypatch.setattr(construction, "greedy_numbers", counted)
    monkeypatch.setattr(certify, "recheck", marked)
    assert run_script(monkeypatch, "bench_partition.py", "--certs", "8", "8") == 0
    # partition, weight-bound, subset-reduction and pw-2c, in that order
    row = ["Decimal", "recheck", "Decimal", "recheck", "recheck", "int", "recheck"]
    assert events == row * 2
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_emitted_scenarios_load_back_unchanged(monkeypatch, capsys, tmp_path):
    assert run_script(monkeypatch, "emit_scenarios.py", str(tmp_path)) == 0
    names = bundled_names()
    assert sorted(path.stem for path in tmp_path.glob("*.json")) == names
    for name in names:
        path = tmp_path / f"{name}.json"
        assert load_scenario(str(path)).to_json() == load_scenario(name).to_json()
    assert len(capsys.readouterr().out.splitlines()) == len(names)


def write_record(path, seed, cli_s, rss, changed=()):
    """A perfbench record of a partition-deep run with the given metrics."""
    metrics = {"cli_s.p50": cli_s, "peak_rss_mb": rss}
    record = {"workload": "partition-deep", "seed": seed, "trace": 0, "failed": 0,
              "git_rev": None, "source_sha256": "ab" * 32, "machine": {"nproc": 2},
              "python": "3.11.7", "metrics": metrics,
              "raw_metrics": {name: 2 * value for name, value in metrics.items()}}
    record.update(changed)
    path.write_text(json.dumps(record), encoding="utf-8")
    return str(path)


def test_bench_fold_writes_medians_quartiles_and_pair_wins(monkeypatch, capsys, tmp_path):
    parents = [write_record(tmp_path / f"p{seed}.json", seed, 0.2 + seed / 100, 30.0)
               for seed in range(1, 6)]
    # the change is faster in four pairs and slower in the last one
    changes = [write_record(tmp_path / f"c{seed}.json", seed, 0.1 if seed < 5 else 0.3, 31.0)
               for seed in range(1, 6)]
    assert run_script(monkeypatch, "bench_fold.py", "--rev", "abc1234", "--out-dir", str(tmp_path),
                      "--parent", *parents, "--change", *changes) == 0
    assert "cli_s.p50: 0.23 -> 0.1 (change better in 4 of 5)" in capsys.readouterr().out
    doc = json.loads((tmp_path / "BENCH_abc1234.json").read_text(encoding="utf-8"))
    assert doc["rev"] == "abc1234"
    assert doc["parent"]["source_sha256"] == ["ab" * 32]
    folded = doc["workloads"]["partition-deep"]
    assert folded["pairs"] == 5 and folded["seeds"] == [1, 2, 3, 4, 5]
    cli = folded["normalized"]["cli_s.p50"]
    assert cli["parent"] == pytest.approx({"q1": 0.215, "median": 0.23, "q3": 0.245})
    assert cli["change"]["median"] == 0.1 and cli["change_better_pairs"] == 4
    assert folded["raw"]["cli_s.p50"]["parent"]["median"] == pytest.approx(0.46)
    assert folded["normalized"]["peak_rss_mb"]["change_better_pairs"] == 0
    assert set(folded["normalized"]) == {"cli_s.p50", "peak_rss_mb"}


def test_bench_fold_makes_its_output_directory(monkeypatch, capsys, tmp_path):
    parents = [write_record(tmp_path / f"p{seed}.json", seed, 0.2, 30.0) for seed in (1, 2)]
    changes = [write_record(tmp_path / f"c{seed}.json", seed, 0.1, 30.0) for seed in (1, 2)]
    out_dir = tmp_path / "not" / "made"
    assert run_script(monkeypatch, "bench_fold.py", "--rev", "abc1234", "--out-dir", str(out_dir),
                      "--parent", *parents, "--change", *changes) == 0
    assert json.loads((out_dir / "BENCH_abc1234.json").read_text(encoding="utf-8"))["rev"] == (
        "abc1234")
    assert f"wrote {out_dir / 'BENCH_abc1234.json'}" in capsys.readouterr().out


@pytest.mark.parametrize("broken", [{"seed": 9}, {"failed": 1}, {"trace": 1}],
                         ids=["unpaired-seed", "failed-operations", "traced-run"])
def test_bench_fold_refuses_runs_it_cannot_compare(monkeypatch, capsys, tmp_path, broken):
    parents = [write_record(tmp_path / f"p{seed}.json", seed, 0.2, 30.0) for seed in (1, 2)]
    changes = [write_record(tmp_path / "c1.json", 1, 0.1, 30.0),
               write_record(tmp_path / "c2.json", 2, 0.1, 30.0, broken)]
    assert run_script(monkeypatch, "bench_fold.py", "--rev", "abc1234", "--out-dir", str(tmp_path),
                      "--parent", *parents, "--change", *changes) == 2
    assert capsys.readouterr().err.startswith("bench_fold: ")
    assert not (tmp_path / "BENCH_abc1234.json").exists()



@pytest.mark.parametrize("tamper", [False, True])
def test_check_refs_compares_each_output_with_its_reference(monkeypatch, capsys, tamper):
    monkeypatch.syspath_prepend(str(SCRIPTS.parent))
    from perfbench import harness, workloads

    universe = workloads.universe
    # one job of each type: a certificate, a bundled scenario and a partition
    # through the CLI
    picks = {"partition-deep": ("cli-partition",), "engine-stages": ("cert", "cli-scenario")}
    monkeypatch.setattr(workloads, "universe", lambda workload: [
        next(job for job in universe(workload) if job["type"] == kind)
        for kind in picks.get(workload, ())])
    refs = harness.load_refs()
    if tamper:
        refs[harness.ref_key({"cli": "construct", "depth": 12})] = "0" * 64
    monkeypatch.setattr(harness, "load_refs", lambda: refs)
    assert run_script(monkeypatch, "check_refs.py") == (1 if tamper else 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"{3 if tamper else 4} of 4 outputs match perfbench/refs.json")
    assert lines[-1].endswith(f" under Python {platform.python_version()}: "
                              "1 cert, 1 construct, 1 diagonalize, 1 verify-construction")
    assert lines[:-1] == (['differs: {"cli": "construct", "depth": 12}'] if tamper else [])


def test_trusted_lines_counts_the_modules_each_recheck_loads(monkeypatch, capsys, tmp_path):
    certs = {"pairing.json": ("pairing", {"bound": 5, "unordered_bound": 5}),
             "diag-hindman-case2.json": ("diagonalization",
                                         load_scenario("hindman-case2").certificate_inputs(2)),
             "diag-hindman-case3.json": ("diagonalization",
                                         load_scenario("hindman-case3").certificate_inputs(2))}
    for name, (kind, inputs) in certs.items():
        dump_json(tmp_path / name, certify.produce(kind, inputs, 5))
    assert run_script(monkeypatch, "trusted_lines.py", "--suite", str(tmp_path)) == 0

    def row(group, modules, files):
        source = SCRIPTS.parent / "src" / "idealbench"
        lines = sum((source / f"{m}.py").read_text().count("\n") for m in modules.split())
        return f"{group}: {lines} lines: {modules} ({len(files)}: {' '.join(files)})"

    engine = "anchored certify cli diagonal errors finite pairing ramsey records scenarios serialize"
    assert capsys.readouterr().out.splitlines() == [
        row("diagonalization hindman", engine, sorted(certs)[:2]),
        row("pairing", "certify checkers cli errors records serialize", ["pairing.json"])]
