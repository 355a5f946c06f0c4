"""Only ``models.py`` forms a symmetry matrix.

Every symmetry the package applies goes through
``ProjectorFamily.act``, which skips the identity.  A module that fetches
``tau_power`` or ``theta_matrix`` itself keeps a second copy of the
symmetry product, which multiplies by the identity for every built-in
model; this test fails first.
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
