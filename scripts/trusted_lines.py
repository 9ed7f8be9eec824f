"""Count the idealbench code that a fresh recheck of each certificate kind loads.

Writes the certificates of ``idealbench suite --seed 5`` to a temporary
directory, or reads those that ``--suite DIR`` holds, and rechecks each
one with ``idealbench certify --in`` in a fresh interpreter.  The suite's
depth-30 attempts (C01, C02) get a one-second budget here: they write no
certificate, and the suite's certificates do not depend on it.  For each
kind, and for each engine of a diagonalization or structural-identity,
prints the source lines and the names of the ``idealbench`` submodules
that the recheck loaded, not counting the package ``__init__``, with the
certificate files that loaded them.  Lines are newline counts of the
module files under ``src/idealbench``.

Usage: python scripts/trusted_lines.py [--suite DIR]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# a fresh child that rechecks one certificate file and prints the submodules it loaded
CHILD = """
import json, sys
from idealbench.cli import run
assert run(["certify", "--in", sys.argv[1]]) == 0, sys.argv[1]
print(json.dumps(sorted(m[len("idealbench."):] for m in sys.modules
                        if m.startswith("idealbench."))))
"""


def lines_of(module):
    with open(os.path.join(SRC, "idealbench", f"{module}.py"), encoding="utf-8") as fh:
        return fh.read().count("\n")


def loaded_by_recheck(path):
    """The idealbench submodules a fresh ``certify --in path`` loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, path], capture_output=True, text=True,
                          env=env, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def group_of(cert):
    """The certificate's kind, with its scenario's engine for a diagonalization kind."""
    scenario = cert["inputs"].get("scenario") if isinstance(cert["inputs"], dict) else None
    engine = scenario.get("engine") if isinstance(scenario, dict) else None
    kind = cert["kind"]
    return f"{kind} {engine}" if kind in ("diagonalization", "structural-identity") else kind


def table(directory):
    """{(group, modules): [file, ...]} over the certificate files of ``directory``."""
    rows = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        rows.setdefault((group_of(cert), loaded_by_recheck(path)), []).append(name)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", help="a directory of certificates, as `suite --out` writes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        directory = args.suite
        if directory is None:
            from idealbench.acceptance import run_all

            directory = tmp
            run_all(5, directory, depth30_budget=1.0)
        rows = table(directory)
    for (group, modules), files in sorted(rows.items()):
        total = sum(map(lines_of, modules))
        print(f"{group}: {total} lines: {' '.join(modules)} ({len(files)}: {' '.join(files)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
