#!/usr/bin/env python3
"""Run tier-1 against planted one-line mutants and print the kill table.

    python3 scripts/mutants.py

Each mutant in ``MUTANTS`` replaces one text that occurs exactly once in
one file of the checkout.  For each, the checkout (working tree, caches
left out) is copied to a temporary directory, the edit is applied there,
and tier-1 runs twice in the copy: once with ``-k "not pinned"``, which
deselects every test that compares output with a recorded sha256, and once
in full.  Both runs leave out the test that checks the table applies,
which fails on every mutant.  A mutant is killed by a run when at least one
test fails.  A mutant that only the full run kills is checked by a recorded
hash and by no stated rule.  The table lists, per mutant, the failed-test counts of both
runs and the first failing tests of the ``not pinned`` run; the last lines
count the mutants killed only by a pinned test and the survivors.

Every run takes about as long as tier-1 (one to two minutes on 2 vCPUs),
so this script is not part of tier-1; ``tests/test_scripts.py`` checks only
that each mutant still applies to the current source.  The exit code is 0
when every mutant dies without the pinned tests, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old text, new text, what the mutant breaks)
MUTANTS = [
    ("src/geodl/model.py",
     '"nf4": _two_ball_row("+dist -r_C -r_D -sigma -gamma", -1, True)',
     '"nf4": _two_ball_row("+dist -r_C -r_D +sigma -gamma", -1, True)',
     "sigma's sign flipped in the nf4 hinge"),
    ("src/geodl/training.py",
     "g += ADAM_EPS",
     "g += 2 * ADAM_EPS",
     "Adam's denominator epsilon doubled"),
    ("src/geodl/training.py",
     "negatives[:, 2] = repl + (repl >= negatives[:, 2])",
     "negatives[:, 2] = repl",
     "a negative's tail may be the true tail again"),
    ("src/geodl/training.py",
     "VALIDATION_INTERVAL = 25",
     "VALIDATION_INTERVAL = 24",
     "validation every 24 epochs instead of 25"),
    ("src/geodl/training.py",
     "evals_since_best >= config.patience",
     "evals_since_best > config.patience",
     "early stopping one evaluation late"),
    ("src/geodl/training.py",
     "nominal_ids if last else None",
     "nominal_ids",
     "the nominal term on every batch, not only an epoch's last"),
    ("src/geodl/cli.py",
     'lines = fh.read().split("\\n")',
     "lines = fh.read().splitlines()",
     "axiom files split at \\x0c, \\x1c-\\x1e, \\x85, \\u2028, \\u2029 too"),
    ("src/geodl/training.py",
     'enumerate(text.split("\\n"), start=1)',
     "enumerate(text.splitlines(), start=1)",
     "config files split at \\x0c, \\x1c-\\x1e, \\x85, \\u2028, \\u2029 too"),
    ("src/geodl/cli.py",
     "path = os.path.realpath(out)",
     "path = os.path.abspath(out)",
     "an output symlinked to an input or to another output is written"),
]

# fails on every mutant by design: it checks that each old text is present
_SELF_CHECK = ("tests/test_scripts.py"
               "::test_every_mutant_still_applies_to_the_source")
_IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                  ".perfbench", ".benchmarks", "__pycache__")
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times")
    target.write_text(text.replace(old, new))


def tier1(tree: Path, *select: str) -> list:
    """The tests that fail (or error) in one tier-1 run inside *tree*."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", _SELF_CHECK,
         *select],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = _FAILED.findall(done.stdout)
    if done.returncode != 0 and not failed:
        failed = [f"pytest exited {done.returncode}"]
    return failed


def main() -> int:
    rows = []
    for number, (path, old, new, reason) in enumerate(MUTANTS, start=1):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "checkout"
            shutil.copytree(ROOT, tree, ignore=_IGNORED)
            apply(tree, path, old, new)
            spec = tier1(tree, "-k", "not pinned")
            full = tier1(tree)
        rows.append((number, reason, spec, full))
        print(f"mutant {number}: {len(spec)} failed without pinned tests, "
              f"{len(full)} with them", file=sys.stderr)
    print("| # | mutant | failed, `not pinned` | failed, full | "
          "first kills, `not pinned` |")
    print("|--:|---|--:|--:|---|")
    for number, reason, spec, full in rows:
        kills = ", ".join(name.rsplit("::", 1)[-1] for name in spec[:3])
        print(f"| {number} | {reason} | {len(spec)} | {len(full)} | "
              f"{kills or '(survived)'} |")
    hash_only = sum(1 for _, _, spec, full in rows if full and not spec)
    survivors = sum(1 for _, _, _, full in rows if not full)
    print(f"\nkilled only by a pinned test: {hash_only} of {len(rows)}")
    print(f"survived every test: {survivors} of {len(rows)}")
    return 0 if all(spec for _, _, spec, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
