"""Only ``models.py`` forms a symmetry matrix.

Every symmetry the package applies goes through
``ProjectorFamily.act``, which skips the identity, and the untwisting
gauge through ``ProjectorFamily.twist``.  A module that fetches
``tau_power`` or ``theta_matrix``, or reads a family's ``.tau`` or
``.theta`` for more than an ``is None`` test, keeps a second copy of a
symmetry product; these tests fail first.
"""
import pathlib
import re

import blochframe

SOURCES = sorted(pathlib.Path(blochframe.__file__).parent.glob("*.py"))


def test_no_module_but_models_fetches_a_symmetry_matrix():
    assert "models.py" in [path.name for path in SOURCES]
    fetches = {
        path.name: re.findall(r"\b(?:tau_power|theta_matrix)\(", path.read_text())
        for path in SOURCES
        if path.name != "models.py"
    }
    assert {name: found for name, found in fetches.items() if found} == {}


def test_no_module_but_models_reads_the_symmetry_matrices():
    reads = {
        path.name: re.findall(r"\.(?:tau|theta)\b(?!\s+is\s+(?:not\s+)?None\b)", path.read_text())
        for path in SOURCES
        if path.name != "models.py"
    }
    assert {name: found for name, found in reads.items() if found} == {}
