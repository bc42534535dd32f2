"""The mutation battery's tool: it reports a stale entry, a survivor and a
listed test that did not run, and counts only a failure as a kill.

``tools/mutants.py`` plants each fault of ``tools/mutants.json`` in a copy
of the tree and runs the tests listed to catch it; CI runs the battery.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_a_text_that_no_longer_occurs_once_is_stale():
    mutant = {"name": "gone", "file": "src/modcap/tensor.py", "find": "no such text\n",
              "replace": "", "kills": []}
    assert mutants.check(mutant) == ["gone: stale, its text occurs 0 times in "
                                     "src/modcap/tensor.py"]


def test_a_fault_no_listed_test_catches_survives():
    test = "tests/test_tensor.py::TestAdam::test_single_step_closed_form"
    harmless = {"name": "harmless", "file": "src/modcap/tensor.py",
                "find": "FLOAT32 = np.float32\n", "replace": "FLOAT32 = np.float32  # same\n",
                "kills": [test]}
    assert mutants.check(harmless) == [f"harmless: survived {test}"]


def test_a_listed_test_that_does_not_run_is_not_a_kill():
    test = "tests/test_tensor.py::no_such_test"
    harmless = {"name": "harmless", "file": "src/modcap/tensor.py",
                "find": "FLOAT32 = np.float32\n", "replace": "FLOAT32 = np.float32  # same\n",
                "kills": [test]}
    assert mutants.check(harmless) == [f"harmless: did not run (pytest exit 4) {test}"]


def test_a_run_that_times_out_is_not_a_kill():
    test = "tests/test_tensor.py::TestAdam::test_single_step_closed_form"
    assert mutants.verdict(test, {}, "timed out after 120 s") == \
        "did not run (timed out after 120 s)"


def test_a_module_that_no_longer_imports_kills_its_tests():
    broken = {"name": "broken", "file": "src/modcap/tensor.py",
              "find": "FLOAT32 = np.float32\n",
              "replace": "FLOAT32 = np.float32\nraise ImportError('planted')\n",
              "kills": ["tests/test_tensor.py::TestAdam::test_single_step_closed_form"]}
    assert mutants.check(broken) == []


def test_every_entry_names_its_file_text_and_tests():
    for mutant in mutants.json.loads(mutants.LIST.read_text()):
        assert {"name", "about", "file", "find", "replace", "kills"} == mutant.keys()
        assert (ROOT / mutant["file"]).read_text().count(mutant["find"]) == 1, mutant["name"]
        assert mutant["kills"], mutant["name"]
