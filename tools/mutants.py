"""Show that each guard still catches its fault: a committed mutation battery.

    python tools/mutants.py      # every mutant in tools/mutants.json, two at a time

Each entry of ``tools/mutants.json`` plants one fault: in ``file``, the
exact text ``find``, which must occur there once, becomes ``replace``.
``kills`` lists the pytest ids that must fail with the fault in place.
The tool first runs every listed test on the tree as it is (they must
pass), then, per mutant, copies the working tree to a temporary
directory, applies the mutant there and runs only its listed tests.

A listed test kills its mutant when it fails or errors, or when its
module, or a ``conftest.py`` above it, no longer imports with the fault
in place (pytest reports a collection error).  Any other result is a
problem: a survivor (the test passes with the fault in place), a test
that did not run (pytest crashed, was killed, or no longer finds the
id), a run that took longer than ``TIMEOUT`` seconds, or a stale entry
(its text no longer occurs exactly once, or a listed test does not pass
on the tree as it is), so a change that moves guarded code updates its
mutants.
Exit status: 0 when every mutant is killed by every listed test, 1
otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tools" / "mutants.json"
# pytest's -rA summary: one "PASSED id" or "FAILED id - reason" line per test,
# and "ERROR path" for a test module that failed to import
OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)")
# pytest's line, on stderr, for a conftest.py that raised on import
CONFTEST = re.compile(r"^ImportError while loading conftest '(.+)'")
JOBS = 2  # mutants run at once
TIMEOUT = 120  # seconds one pytest run may take; the whole battery takes about 60


def run_tests(tree: Path, ids: list[str]) -> tuple[dict[str, str], str]:
    """Run ``ids`` on ``tree``: (id or module path -> PASSED, FAILED or
    ERROR, how pytest ended)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "tests")]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p",
                               "no:cacheprovider", *ids], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {}, f"timed out after {TIMEOUT} s"
    outcomes = {}
    for line in done.stdout.splitlines():
        match = OUTCOME.match(line)
        if match:
            outcomes[match.group(2)] = match.group(1)
    for line in done.stderr.splitlines():
        match = CONFTEST.match(line)
        if match:  # every test under the conftest's directory failed to import
            conftest = Path(match.group(1)).resolve()
            outcomes[str(conftest.parent.relative_to(tree.resolve()))] = "ERROR"
    return outcomes, f"pytest exit {done.returncode}"


def verdict(test: str, outcomes: dict[str, str], ended: str) -> str:
    """What a mutant's run says of one listed test: killed (it failed, or
    its module or a conftest.py above it failed to import), survived or
    did not run."""
    module = Path(test.split("::")[0])
    outcome = outcomes.get(test)
    if outcome in ("FAILED", "ERROR") or any(
            outcomes.get(str(scope)) == "ERROR" for scope in (module, *module.parents)):
        return "killed"
    return "survived" if outcome == "PASSED" else f"did not run ({ended})"


def copy_tree(dest: Path) -> None:
    """The working tree, without git's files and caches, at ``dest``."""
    shutil.copytree(ROOT, dest, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis", ".benchmarks"))


def check(mutant: dict) -> list[str]:
    """The problems of one mutant: empty when every listed test fails."""
    name, path = mutant["name"], mutant["file"]
    count = (ROOT / path).read_text().count(mutant["find"])
    if count != 1:
        return [f"{name}: stale, its text occurs {count} times in {path}"]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / path
        target.write_text(target.read_text().replace(mutant["find"], mutant["replace"]))
        outcomes, ended = run_tests(tree, mutant["kills"])
    verdicts = {test: verdict(test, outcomes, ended) for test in mutant["kills"]}
    return [f"{name}: {said} {test}" for test, said in verdicts.items() if said != "killed"]


def main() -> int:
    mutants = json.loads(LIST.read_text())
    start = time.monotonic()
    ids = sorted({test for m in mutants for test in m["kills"]})
    outcomes, ended = run_tests(ROOT, ids)
    broken = [test for test in ids if outcomes.get(test) != "PASSED"]
    for test in broken:
        print(f"stale: {test} did not run ({ended})" if test not in outcomes
              else f"baseline: {test} {outcomes[test].lower()} without a mutant")
    if broken:
        return 1
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(check, mutants))
    for mutant, problems in zip(mutants, results):
        print(f"{'killed' if not problems else 'FAILED'}  {mutant['name']}")
        for problem in problems:
            print(f"    {problem}")
    failed = sum(bool(p) for p in results)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed by every listed test "
          f"({time.monotonic() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
