"""The README mutation table's edits (tools/mutants.py) still apply to the
checkout's source: each edit's old text matches exactly once in its file,
so a refactor that moves an edited line fails here, not at the next run of
the table. The mutants themselves are not run: each costs a tier-1 run."""
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


mutants = load_mutants()


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_edit_matches_once_in_the_source(mutant, tmp_path):
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    shutil.copyfile(ROOT / mutant.path, target)
    mutants.apply(mutant, tmp_path)
    text = target.read_text()
    assert mutant.new in text and text != (ROOT / mutant.path).read_text()


def test_a_stale_or_doubled_edit_raises(tmp_path):
    # the check the test above relies on
    mutant = mutants.Mutant("m", "a mechanism", "m.py", "old text", "new text")
    for text, count in (("no match here", 0), ("old text, old text", 2)):
        (tmp_path / "m.py").write_text(text)
        with pytest.raises(ValueError, match=f"edit matches {count} times"):
            mutants.apply(mutant, tmp_path)
