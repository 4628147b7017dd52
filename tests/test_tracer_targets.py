"""Every hook the layer tracer in ``bench/tracer.py`` names still resolves.

The tracer wraps module and class attributes by name and drops a metric whose
target has gone, so a renamed or deleted function silently thins the traced
benchmark report.  This reads the target table from the tracer's source
without importing or installing it.  The same table is the only reason a
module of the package may import a name it does not use.
"""

import ast
import importlib
from pathlib import Path

from modgeod import counting

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "bench" / "tracer.py"

# targets the tracer already reports as absent
_KNOWN_ABSENT = {"modgeod.enumeration:_min_rotation_bits"}


def _tracer_targets() -> list[str]:
    tree = ast.parse(_TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [target for target, _, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TARGETS table")


def _resolves(target: str) -> bool:
    # the lookup Tracer.install makes: a class attribute from the class's own
    # namespace, anything else by getattr
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    try:
        for name in outer:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            owner.__dict__[attr]
        else:
            getattr(owner, attr)
    except (AttributeError, KeyError):
        return False
    return True


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert _KNOWN_ABSENT <= set(targets)
    missing = [t for t in targets if t not in _KNOWN_ABSENT and not _resolves(t)]
    assert missing == []


def _unused_imports(path: Path) -> set[str]:
    # the names the module's imports bind that no name in it reads
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used_or_hooked_by_the_tracer():
    # __init__ imports to re-export; a module may keep an unused name only
    # for the tracer to hook it there
    hooked = {tuple(target.split(":")) for target in _tracer_targets()}
    modules = sorted((_ROOT / "src" / "modgeod").glob("*.py"))
    assert len(modules) > 1
    unused = {
        f"{path.stem}.{name}"
        for path in modules
        if path.name != "__init__.py"
        for name in _unused_imports(path)
        if (f"modgeod.{path.stem}", name) not in hooked
    }
    assert unused == set()


def test_alpha_cache_reports_its_misses():
    # the traced benchmark pass reads counting.alpha.misses from here
    assert callable(counting._alpha_cached.cache_info)
