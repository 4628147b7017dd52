"""The benchmark's layer tracer still reads every metric the benchmark declares.

``bench/tracer.py`` wraps module and class attributes by name, and a metric
whose every target has gone drops out of the traced benchmark report without
an error.  These tests read the tracer's ``TARGETS`` and ``SCAN_TARGETS`` from
its source and the declared ``per_layer`` metrics from ``BENCHMARK.json``,
importing nothing from ``bench/``, and require a target that resolves behind
each declared metric.  A target whose name has gone from the package is
listed in ``_KNOWN_ABSENT``.

One more test holds the package on its own: no module imports a name it does
not use, so none keeps a name alive for the tracer to hook.
"""

import ast
import importlib
import json
from pathlib import Path

from modgeod import counting

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "bench" / "tracer.py"

# targets the tracer already reports as absent; no declared metric rests on
# them alone
_KNOWN_ABSENT = {
    "modgeod.enumeration:_min_rotation_bits",
    "modgeod.enumeration:_max_cyclic_run_bits",
    "modgeod.geometry:rotate",
    "modgeod.counting:primitive_class_count_mobius",
}


def _tracer_table(name: str) -> tuple:
    tree = ast.parse(_TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py defines no {name} table")


def _tracer_targets() -> list[str]:
    return [target for target, _, _ in _tracer_table("TARGETS")]


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


def _declared_metrics() -> list[str]:
    benchmark = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in benchmark["per_layer"]]


def _unhooked(metrics: list[str], targets: tuple, scan_targets: tuple) -> list[str]:
    # the metrics with no resolving target to read them from, by the rules
    # bench/run.py uses to build them
    groups = {group for target, group, _ in targets if _resolves(target)}
    layers = {group.partition(".")[0] for group in groups}

    def hooked(metric: str) -> bool:
        head, _, field = metric.rpartition(".")
        if metric == "cli.stdout_bytes" or head == "trace":
            return True
        if metric == "enumeration.words_scanned":
            return any(map(_resolves, scan_targets))
        if metric == "enumeration.classes_kept":
            return not groups.isdisjoint({"enumeration.classes", "enumeration.reciprocal_classes"})
        if field == "self_s" and "." not in head:
            return head in layers
        return field in ("calls", "self_s", "misses") and head.count(".") == 1 and head in groups

    return [metric for metric in metrics if not hooked(metric)]


def test_every_declared_metric_has_a_resolving_hook():
    metrics = _declared_metrics()
    assert "binwords.mirror.calls" in metrics
    assert _unhooked(metrics, _tracer_table("TARGETS"), _tracer_table("SCAN_TARGETS")) == []


def test_a_declared_metric_without_its_hooks_is_reported():
    targets = tuple(row for row in _tracer_table("TARGETS") if row[1] != "binwords.mirror")
    assert _unhooked(_declared_metrics(), targets, _tracer_table("SCAN_TARGETS")) == [
        "binwords.mirror.calls", "binwords.mirror.self_s"]
    assert _unhooked(["binwords.mirror.depth", "verify.run_suite.self_s.total"],
                     _tracer_table("TARGETS"), ()) == [
        "binwords.mirror.depth", "verify.run_suite.self_s.total"]
    assert _unhooked(["enumeration.words_scanned"], (), ("modgeod.enumeration:_gone",)) == [
        "enumeration.words_scanned"]


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


def test_every_imported_name_is_used():
    # __init__ imports to re-export
    modules = sorted((_ROOT / "src" / "modgeod").glob("*.py"))
    assert len(modules) > 1
    unused = {
        f"{path.stem}.{name}"
        for path in modules
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert unused == set()


def test_alpha_cache_reports_its_misses():
    # the traced benchmark pass reads counting.alpha.misses from here
    assert callable(counting._alpha_cached.cache_info)
