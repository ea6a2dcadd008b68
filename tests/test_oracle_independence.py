"""`homology_oracle` cross-checks h2 and the reduced multiplier, so it may
share with the main path only what its docstring names: the Z-exact
`intmat.kernel_basis` and, above its direct cap, `homology.sylow_subgroup`
and the generator-parametrized cocycle space.  No mod-m elimination."""
import ast
from pathlib import Path

import hurwitzlab

ALLOWED = {
    "intmat": {"kernel_basis"},
    "homology": {"sylow_subgroup", "_CocycleSpace"},
}


def test_oracle_imports_only_allowed_names():
    path = Path(hurwitzlab.__file__).parent / "homology_oracle.py"
    imported = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in ALLOWED:
            imported.setdefault(node.module, set()).update(
                a.name for a in node.names)
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hurwitzlab") for a in node.names)
    extra = {mod: names - ALLOWED[mod] for mod, names in imported.items()}
    assert not any(extra.values()), extra
