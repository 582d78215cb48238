"""The names the benchmark under perfbench/ reads from revivalsim must exist.

The benchmark imports the package from this checkout, so a name it reads
that the package drops fails only when the benchmark runs.  This test finds
those names from the benchmark's source, without running it."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _names_read(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each `from revivalsim.X import Y`, and each `X.attr`
    read through `from revivalsim import X`, in the file at path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "revivalsim"):
            for alias in node.names:
                if node.module == "revivalsim":
                    modules[alias.asname or alias.name] = f"revivalsim.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def test_every_name_the_benchmark_reads_resolves():
    names = set().union(*map(_names_read, sorted(PERFBENCH.glob("*.py"))))
    assert len(names) >= 20  # 23 when written: the parse found the imports
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(module), name))
    assert not missing, f"perfbench reads names revivalsim no longer has: {missing}"
