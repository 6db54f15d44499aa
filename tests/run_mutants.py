"""Run each mutant of ``tests/mutants.py`` against its killers and print the table.

Usage, from anywhere::

    python tests/run_mutants.py

For each mutant, the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory, replaces the mutant's old text
with its new text, and runs each killer there:
``verify-all`` as ``python -m pbrlab.cli verify-all --seed 42``, a test file
as ``python -m pytest -q -x -p no:cacheprovider FILE``.  A killer kills when it
exits non-zero.  Each killer first runs on an unmutated copy, where it must
pass.  Exits 0 when every killer passes that copy and kills its mutant.
Stdlib only; pytest does not collect this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def _apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run(killer: str, tree: Path) -> tuple[int, str, float]:
    """(exit code, the output's last line, seconds) of one killer on ``tree``."""
    if killer == "verify-all":
        argv = [sys.executable, "-m", "pbrlab.cli", "verify-all", "--seed", "42"]
    else:
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", killer]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", time.perf_counter() - start


def _row(*cells) -> str:
    return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"


def main() -> int:
    print(_row("mutant", "killer", "result", "s"))
    print(_row("---", "---", "---", "---:"))
    ok = True
    with tempfile.TemporaryDirectory(prefix="pbrlab-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        for killer in sorted({k for m in MUTANTS for k in m.killers if not k.startswith("equivalent: ")}):
            code, last, seconds = _run(killer, clean)
            ok = ok and code == 0
            result = "passes" if code == 0 else f"FAILS, exit {code}: {last}"
            print(_row("(unmutated)", killer, result, f"{seconds:.1f}"))
        for i, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            _apply(mutant, tree)
            for killer in mutant.killers:
                if killer.startswith("equivalent: "):
                    print(_row(mutant.name, killer, "not run", ""))
                    continue
                code, last, seconds = _run(killer, tree)
                ok = ok and code != 0
                result = f"killed, exit {code}: {last}" if code else "SURVIVED"
                print(_row(mutant.name, killer, result, f"{seconds:.1f}"))
            shutil.rmtree(tree)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
