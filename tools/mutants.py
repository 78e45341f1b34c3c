"""Mutation check of the verdict rules: every listed mutant must be killed.

    python tools/mutants.py

``tools/mutants.json`` lists the mutants.  Each entry names a file, the text
to replace (it must occur exactly once), its replacement, the rule it moves
and the tests that kill it.  The script copies ``src/``, ``tests/``,
``scenarios/`` and ``pyproject.toml`` into a temporary directory and checks
that the named tests pass there.  Then, for each mutant in turn, it edits the
copy and runs that mutant's tests with ``-x``; the mutant is killed when they
fail.  Exit status: 0 when every mutant is killed, 1 when one survives, and 2
when the list does not apply or the named tests fail unmutated.  Nothing is
written outside the temporary directory (no bytecode, no pytest cache).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "scenarios", "pyproject.toml")


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for tests, run in copy on copy's package."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            print(f"{m['file']}: {m['old']!r} occurs {count} times, not once")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, copy / name)
        if run_tests(copy, sorted({t for m in mutants for t in m["tests"]})):
            print("the named tests fail on the unmutated source")
            return 2
        survivors = 0
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            killed = run_tests(copy, m["tests"]) != 0
            path.write_text(original)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {m['rule']} ({m['file']})")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
