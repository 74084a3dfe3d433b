"""The package's public names resolve, and none of them serves only tests.

A public module-level def or class in src/burstgic must be used by the
package itself, by a demo, by the benchmark or by the README's library
quick start. Listing a name in __all__ or in the package's _SOURCE map
does not use it. Code that only tests call lives in tests/oracles.py or
beside the one test module that uses it.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import burstgic

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "burstgic"
SUBMODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_all_names_resolve():
    missing = [name for name in burstgic.__all__ if not hasattr(burstgic, name)]
    for sub in SUBMODULES:
        mod = importlib.import_module(f"burstgic.{sub}")
        missing += [f"{sub}.{name}" for name in getattr(mod, "__all__", ())
                    if not hasattr(mod, name)]
    assert missing == []


def test_public_names_load_on_first_use():
    # a submodule import binds the submodule on the package; it must not
    # hide the public function of the same name
    code = ("import burstgic.region\n"
            "from burstgic import region\n"
            "import burstgic, inspect\n"
            "assert inspect.isfunction(region), region\n"
            "assert burstgic.region is region\n"
            "assert set(burstgic.__all__) <= set(dir(burstgic))\n"
            "assert all(hasattr(burstgic, name) for name in burstgic.__all__)\n"
            + _quick_start())
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


def _quick_start() -> str:
    """The Python block of the README's library quick start."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _reads(node) -> set:
    """Identifiers node reads: names, attributes, import aliases, and
    string constants that are (dotted) identifiers, so prose such as a
    docstring never counts."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _is_listing(stmt) -> bool:
    """Whether stmt assigns __all__ or the package's _SOURCE map."""
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in ("__all__", "_SOURCE")
        for t in stmt.targets)


def test_every_public_def_is_used_or_exported():
    files = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    defined, used = [], _reads(ast.parse(_quick_start()))
    for path in files:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if _is_listing(stmt):  # listing a name is not using it
                continue
            own = getattr(stmt, "name", None)  # def and class statements
            used |= _reads(stmt) - {own}
            if path.parent == SRC and own and not own.startswith("_"):
                defined.append(f"{path.stem}.{own}")
    unused = [q for q in defined if q.split(".")[1] not in used]
    assert not unused, f"public names nothing outside tests/ uses: {unused}"
