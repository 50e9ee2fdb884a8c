"""A smoke test of tools/mutants.py on a tiny module, so the mutation
runner cannot rot."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

# One site of each operator: the comparison, the and, the not and two
# integer literals.
TINY = '''\
def small(n, flag):
    if not flag and n < 2:
        return 0
    return n


def untouched(n):
    return n == 1
'''
# Kills the and/or swap, the dropped not and 0 -> 1; misses < -> <= and 2 -> 3.
CHECK = "import tiny; assert tiny.small(1, False) == 0; assert tiny.small(5, False) == 5"


def test_each_operator_makes_one_mutant_per_site():
    changes = [(line, change) for line, change, _ in mutants.mutants(TINY)]
    assert changes == [(2, "drop not"), (2, "2 -> 3"), (2, "< -> <="), (2, "and -> or"),
                       (3, "0 -> 1"), (8, "1 -> 2"), (8, "== -> !=")]
    (_, _, one), (_, _, other) = mutants.mutants(TINY, frozenset({"untouched"}))
    assert "return n == 2" in one and "return n != 1" in other


def test_a_run_lists_the_mutants_no_stage_notices(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text(TINY, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    stage = f"{sys.executable} -c '{CHECK}'"
    made, survivors = mutants.run("src/tiny.py", [stage], frozenset({"small"}))
    assert made == 5
    assert survivors == [(2, "2 -> 3"), (2, "< -> <=")]
