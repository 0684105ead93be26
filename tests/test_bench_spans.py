"""The benchmark's tracer (``bench/spans.py``) wraps geomgate functions by
module attribute and reads their arguments by name. These tests keep that
contract visible to the package's own suite: a rename or deletion in
``src/`` that would break ``bench/run.py --trace 1`` fails here."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    for pairs in spans.SPANS.values():
        for mod_name, attr in pairs:
            yield mod_name, attr, importlib.import_module(f"geomgate.{mod_name}")


def _hook_keys(hook) -> set[str]:
    """Argument names a hook reads: string subscripts of ``bound()``, the
    hook's accessor of the wrapped call's bound arguments, or of a name
    assigned from it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and ast.unparse(node.value) == "bound()"
               for target in node.targets if isinstance(target, ast.Name)}
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and ast.unparse(node.value) in aliases | {"bound()"}}


def test_every_span_target_exists():
    spans = _load_spans()
    missing = [f"{mod_name}.{attr}" for mod_name, attr, module
               in _targets(spans) if not callable(getattr(module, attr, None))]
    assert missing == []


def test_hooks_read_only_parameters_of_the_wrapped_function():
    spans = _load_spans()
    checked = set()
    for mod_name, attr, module in _targets(spans):
        fn = getattr(module, attr)
        hook = getattr(spans.Tracer, "_on_" + fn.__name__, None)
        if hook is None:
            continue
        params = set(inspect.signature(fn).parameters)
        keys = _hook_keys(hook)
        assert keys <= params, f"{mod_name}.{attr}"
        checked |= keys
    # the names the tracer's counts are derived from
    assert checked == {"noise", "segment_duration", "dt", "device",
                       "target_superop", "path"}


def test_tracer_installs_and_restores():
    spans = _load_spans()
    modules = {mod_name: module for mod_name, _, module in _targets(spans)}
    before = {(m, a): getattr(module, a)
              for m, a, module in _targets(spans)}
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        assert all(getattr(modules[m], a) is not fn
                   for (m, a), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())
