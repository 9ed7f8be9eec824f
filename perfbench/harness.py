"""Executes benchmark jobs: timing, correctness gate and CLI children.

One client in one process, closed loop: each job is produced, checked and
rechecked before the next job starts, and CLI commands run one child
process at a time.  Every operation (produce, recheck, mutant recheck, CLI
command) is attempted once; it fails on an exception, a digest that
differs from the committed reference, an outcome other than the expected
one, a recheck that does not pass, a mutant that is not rejected, or a
non-zero CLI exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFS_PATH = BENCH_DIR / "refs.json"

CLI_TIMEOUT_S = 120.0

# what each certificate kind must report for its outcome to count as expected
EXPECTED: Dict[str, Callable[[dict], bool]] = {
    "partition": lambda b: b["report"]["passed"],
    "weight-bound": lambda b: b["below_one"],
    "subset-reduction": lambda b: b["all_included"] and b["all_certificates"],
    "pigeonhole": lambda b: b["block_bound_holds"] and b["weight_bound_holds"],
    "diagonalization": lambda b: b["as_expected"],
    "structural-identity": lambda b: b["all_match"],
    "tree-labelling": lambda b: b["root_as_expected"] and b["critical_as_declared"],
    "sparseness": lambda b: b["all_fail"] and b["all_witnessed"],
    "ramsey-oracle": lambda b: b["agreement"],
    "collision": lambda b: b["forbidden_label_hit"],
    "pairing": lambda b: b["all_hold"],
}


def canonical(obj) -> bytes:
    """Canonical JSON bytes, written independently of idealbench.serialize."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def ref_key(identity: dict) -> str:
    return hashlib.sha256(canonical(identity)).hexdigest()[:32]


def cert_identity(job: dict) -> dict:
    return {"kind": job["kind"], "inputs": job["inputs"], "seed": job["seed"]}


def load_refs() -> Dict[str, str]:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_child(args: List[str], env: Optional[dict] = None, cwd=None) -> int:
    """Exit code of a child process, with its output discarded.

    The child is waited for with a blocking wait, so the caller's clock
    stops when it exits.  ``subprocess.run`` with a timeout polls instead,
    in sleeps of up to 50 ms, which rounds every child's wall time up to the
    next poll.  A child still running after CLI_TIMEOUT_S is killed.
    """
    proc = subprocess.Popen(args, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- statistics ---------------------------------------------------------------------

TAIL_BEYOND = 10


def tail(values: List[float]) -> tuple:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples
    beyond it, the largest one when there are fewer samples than that."""
    xs = sorted(values)
    rank = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[rank], 100.0 * rank / max(1, len(xs) - 1)


# -- machine-speed normalization -------------------------------------------------------

# The shared machine this benchmark was tuned on drifts in speed by up to 2x within
# a minute, and interpreter-bound code drifts more than big-integer
# arithmetic.  Every timed operation therefore follows a calibration kernel
# with two timed parts that do not use idealbench: an interpreter part
# (exact fractions on small integers, frozenset and dict work) and a
# big-integer part (decimal conversion of a 16,902-digit integer).  An
# operation's time is scaled by a power of its part's reference time over
# the median of that part's times around it.  In-process operations are
# timed in CPU seconds against the kernel's CPU seconds, to the power 1, and
# against the three kernel runs around them (the one before, the one after
# and the one before that): partition and weight-bound certificates against
# the big-integer part, posdiff scenarios (fraction sums whose denominators
# grow to hundreds of digits) against the geometric mean of both parts, and
# everything else against the interpreter part.  CLI children and the set-up
# probes are timed in wall seconds against the interpreter part's wall
# seconds in the nine kernel runs around them, to the power 0.5, because
# much of a child's time (process start, page faults, file reads) does not
# follow the kernel.  The result is seconds at the reference speed of a
# 2-core 2.1 GHz x86-64 machine; raw seconds are kept in the run record.
CAL_REF_S = {"interp": 0.0015, "bigint": 0.0050}
# timing part: (kernel parts, "cpu" or "wall" seconds, exponent, half window)
PARTS = {
    "interp": (("interp",), "cpu", 1.0, 1),
    "bigint": (("bigint",), "cpu", 1.0, 1),
    "mixed": (("interp", "bigint"), "cpu", 1.0, 1),
    "child": (("interp",), "wall", 0.5, 4),
}
BIGINT_KINDS = ("partition", "weight-bound")
_CAL_BIG = 7 ** 20000


def timing_part(job: dict) -> str:
    """The kernel part an in-process job's times are scaled by."""
    if job["kind"] in BIGINT_KINDS:
        return "bigint"
    if job["inputs"].get("scenario", {}).get("engine") == "posdiff":
        return "mixed"
    return "interp"


def cpu_time() -> float:
    """CPU seconds used so far by this process (all its threads) and by the
    children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def calibration_kernel() -> Dict[str, Dict[str, float]]:
    """Wall and CPU seconds of each kernel part."""
    t0, c0 = time.perf_counter(), cpu_time()
    acc = Fraction(0)
    for x in range(1, 200):
        acc += Fraction(1, x + 1)
    seen: Dict[frozenset, int] = {}
    for t in combinations(range(22), 3):
        key = frozenset(t[:2])
        seen[key] = seen.get(key, 0) + t[2]
    t1, c1 = time.perf_counter(), cpu_time()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        str(_CAL_BIG)
    finally:
        sys.set_int_max_str_digits(limit)
    t2, c2 = time.perf_counter(), cpu_time()
    return {"wall": {"interp": t1 - t0, "bigint": t2 - t1},
            "cpu": {"interp": c1 - c0, "bigint": c2 - c1}}


class Clock:
    """Times one operation at a time, each run once and, with ``calibrate``
    set, after a calibration kernel.

    Every operation is timed on its one and only call, so a cache inside
    idealbench can only help where a job really repeats work.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        # kernel seconds by clock ("wall", "cpu") and part
        self.kernel: Dict[str, Dict[str, List[float]]] = {
            clock: {part: [] for part in CAL_REF_S} for clock in ("wall", "cpu")}

    def measure(self, fn, *args, **kwargs):
        """(result, wall seconds, CPU seconds, index of the kernel run just
        before)."""
        if self.calibrate:
            for clock, parts in calibration_kernel().items():
                for part, seconds in parts.items():
                    self.kernel[clock][part].append(seconds)
        t0, c0 = time.perf_counter(), cpu_time()
        out = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - t0, cpu_time() - c0
        return out, wall, cpu, len(self.kernel["wall"]["interp"]) - 1

    def normalized(self, raw: float, index: int, part: str) -> float:
        kernel_parts, clock, exponent, half = PARTS[part]
        ratio = 1.0
        for kernel_part in kernel_parts:
            series = self.kernel[clock][kernel_part]
            around = series[max(0, index - half):index + half + 1]
            ratio *= CAL_REF_S[kernel_part] / median(around)
        return raw * ratio ** (exponent / len(kernel_parts))


# -- the correctness gate ---------------------------------------------------------------

class Gate:
    """Counts operations and failures; checks digests against references.

    With ``record`` set, digests are stored instead of checked (used to
    write ``refs.json`` from a trusted tree).
    """

    def __init__(self, refs: Optional[Dict[str, str]], record: bool = False) -> None:
        self.refs = refs if refs is not None else {}
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests_checked = 0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def digest_ok(self, identity: dict, value: str) -> bool:
        key = ref_key(identity)
        if self.record:
            self.refs[key] = value
            return True
        self.digests_checked += 1
        return self.refs.get(key) == value


# -- samples ---------------------------------------------------------------------------

class Samples:
    """Timed operations of one pass; ``seconds`` normalizes them at the end."""

    def __init__(self) -> None:
        self.ops: List[tuple] = []   # (operation, raw seconds, kernel index, timing part, depth)
        self.certs = 0               # certificates produced and rechecked in process
        self.diag_stages = 0
        self.diag_contradictions = 0

    def add(self, name: str, raw: float, index: int, part: str,
            depth: Optional[int] = None) -> None:
        self.ops.append((name, raw, index, part, depth))

    def seconds(self, clock: Optional["Clock"] = None) -> Dict[str, List[float]]:
        """Seconds per operation kind ("produce", "recheck", "cli") and per
        "<kind>@<depth>"; normalized when a clock is given, else raw."""
        out: Dict[str, List[float]] = defaultdict(list)
        for name, raw, index, part, depth in self.ops:
            value = clock.normalized(raw, index, part) if clock is not None else raw
            out[name].append(value)
            if depth is not None:
                out[f"{name}@{depth}"].append(value)
        return out

    def count_body(self, kind: str, body: dict) -> None:
        if kind != "diagonalization":
            return
        if body.get("outcome") == "stages":
            self.diag_stages += len(body["result"].get("stages", []))
        else:
            self.diag_contradictions += 1


# -- execution ---------------------------------------------------------------------------

class Executor:
    """Runs jobs one at a time; CLI commands go to children unless in_process."""

    def __init__(self, gate: Gate, work_dir: Path, in_process_cli: bool = False,
                 calibrate: bool = True) -> None:
        self.gate = gate
        self.work_dir = work_dir
        self.in_process_cli = in_process_cli
        self.tracer = None  # a perfbench.tracing.Tracer while a job is traced
        self.clock = Clock(calibrate)
        self.env = cli_env()

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _cli_call(self, args: List[str]) -> int:
        if self.in_process_cli:
            from idealbench import cli

            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.run(args)
        return run_child([sys.executable, "-m", "idealbench.cli", *args], self.env,
                         self.work_dir)

    def cli(self, args: List[str], samples: Samples, depth: Optional[int] = None) -> int:
        code, wall, _, index = self.clock.measure(self._cli_call, args)
        samples.add("cli", wall, index, "child", depth)
        return code

    def run(self, job: dict, samples: Samples, index: int) -> None:
        if self.tracer is not None:
            self.tracer.job = index
        with self._span("bench.job"):
            try:
                getattr(self, "_" + job["type"].replace("-", "_"))(job, samples, index)
            except Exception as exc:  # a job that raises is a failed operation
                self.gate.op(False, f"{job['label']}: {type(exc).__name__}: {exc}")

    def _cert(self, job: dict, samples: Samples, index: int) -> None:
        from idealbench import certify, serialize

        gate, kind, label, clock = self.gate, job["kind"], job["label"], self.clock
        depth = job.get("depth")
        part = timing_part(job)
        cert, _, cpu, index = clock.measure(certify.produce, kind, job["inputs"], job["seed"])
        samples.add("produce", cpu, index, part, depth)
        ok = gate.digest_ok(cert_identity(job), digest(cert))
        expected = EXPECTED[kind](cert["body"])
        samples.count_body(kind, cert["body"])
        if not gate.op(ok and expected, f"{label}: produce (digest ok={ok}, expected={expected})"):
            return
        (passed, detail), _, cpu, index = clock.measure(certify.recheck, cert)
        samples.add("recheck", cpu, index, part, depth)
        gate.op(passed, f"{label}: recheck failed ({detail})")
        if job["mutant"]:
            tampered = dict(cert)
            tampered["body"], path = serialize.mutate_one_field(cert["body"])
            (accepted, _), _, cpu, index = clock.measure(certify.recheck, tampered)
            samples.add("recheck", cpu, index, part)
            gate.op(not accepted, f"{label}: mutation at {path} went unnoticed")
        samples.certs += 1
        if job["cli_certify"]:
            path = self.work_dir / f"cert-{index}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, sort_keys=True, indent=1)
            code = self.cli(["certify", "--in", str(path)], samples)
            path.unlink()
            gate.op(code == 0, f"{label}: certify --in exited {code}")

    def _cli_partition(self, job: dict, samples: Samples, index: int) -> None:
        gate, depth = self.gate, job["depth"]
        data = self.work_dir / f"partition-{index}.json"
        report = self.work_dir / f"report-{index}.json"
        try:
            code = self.cli(["construct", "--depth", str(depth), "--out", str(data)], samples, depth)
            ok = code == 0 and gate.digest_ok({"cli": "construct", "depth": depth},
                                              digest(_load(data)))
            if not gate.op(ok, f"construct --depth {depth}: exit {code}, digest ok={ok}"):
                return
            code = self.cli(["verify-construction", "--in", str(data), "--out", str(report)],
                            samples, depth)
            ok = code == 0 and gate.digest_ok({"cli": "verify-construction", "depth": depth},
                                              digest(_load(report)))
            gate.op(ok, f"verify-construction depth {depth}: exit {code}, digest ok={ok}")
        finally:
            for path in (data, report):
                if path.exists():
                    path.unlink()

    def _cli_scenario(self, job: dict, samples: Samples, index: int) -> None:
        gate, name, seed = self.gate, job["scenario"], job["seed"]
        path = self.work_dir / f"scenario-{index}.json"
        try:
            code = self.cli(["diagonalize", "--scenario", name, "--seed", str(seed),
                             "--out", str(path)], samples)
            cert = _load(path) if code == 0 else None
            ok = cert is not None and gate.digest_ok(
                {"cli": "diagonalize", "scenario": name, "seed": seed}, digest(cert))
            if cert is not None:
                samples.count_body(cert["kind"], cert["body"])
            if not gate.op(ok, f"diagonalize {name}: exit {code}, digest ok={ok}"):
                return
            code = self.cli(["certify", "--in", str(path)], samples)
            gate.op(code == 0, f"certify --in {name}: exit {code}")
        finally:
            if path.exists():
                path.unlink()


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
