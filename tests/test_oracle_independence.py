"""`homology_oracle` cross-checks h2 and the reduced multiplier, so it
shares with the main path only the group engine and `ntheory`: nothing
from `homology` (its cochain space is its own) and nothing from `intmat`
(no elimination of any kind)."""
import ast
from pathlib import Path

import hurwitzlab

ALLOWED: dict = {}
# main-path modules from which the oracle may import only the names in
# ALLOWED (none, for a module ALLOWED leaves out)
CHECKED = ("homology", "intmat")


def test_oracle_imports_only_allowed_names():
    path = Path(hurwitzlab.__file__).parent / "homology_oracle.py"
    imported = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in CHECKED:
            imported.setdefault(node.module, set()).update(
                a.name for a in node.names)
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hurwitzlab") for a in node.names)
    extra = {mod: names - ALLOWED.get(mod, set())
             for mod, names in imported.items()}
    assert not any(extra.values()), extra
