"""`src/ranopt` holds only what the system runs.

Each function, class and method defined under `src/ranopt` must be named
somewhere the system can reach it: in another module of the package (its
`__init__` re-exports do not count), or in its own module outside its own
definition.  The few that nothing in the package names are listed in
ALLOWED with the reason each stays.  Test oracles belong in
`tests/naive_oracle.py`, not beside the code they check.

The check matches names only.  A method that shares its name with one that
is called (a second class's `fit`, say) counts as used, and so do the
methods Python calls by protocol (`__init__`, `__post_init__`, ...), which
are skipped.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# `scenario_path`, the README's other public function, is not listed:
# `load_bundled` calls it
ALLOWED = {
    "ranopt.scenarios.load_bundled":
        "public API: the README loads bundled scenarios through it",
    "ranopt.warehouse.store.Warehouse.migrate_tiers":
        "the warehouse's tiering and expiry; only the benchmark's telemetry "
        "day runs it so far, the loop and ingest do not yet",
    "ranopt.acquisition.sources._StreamHandler.handle":
        "socketserver calls it for each connection",
    "ranopt.acquisition.pipeline.AcquisitionPipeline.ingest_stream":
        "the in-memory record source: ingests one RawRecord, as the "
        "stream-vs-batch property and the record-level tests feed it",
    "ranopt.acquisition.pipeline.AcquisitionPipeline.stop":
        "a no-op the benchmark still calls (with `start`, whose name "
        "threads share); it goes with the benchmark's next change",
}


def _modules():
    for path in sorted((SRC / "ranopt").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path.name == "__init__.py", \
            ast.parse(path.read_text(), str(path))


def _definitions(tree):
    """(qualified name, bare name, node) of each top-level function and
    class and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(tree):
    """(name, line) of each name the module reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unused_definitions() -> list[str]:
    modules = list(_modules())
    uses = {name: list(_uses(tree)) for name, _, tree in modules}
    unused = []
    for module, _, tree in modules:
        elsewhere = {n for other, is_init, _ in modules
                     if other != module and not is_init
                     for n, _ in uses[other]}
        for qualname, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in elsewhere:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and line not in own
                       for n, line in uses[module]):
                unused.append(f"{module}.{qualname}")
    return sorted(unused)


def test_every_definition_has_a_caller_or_a_reason():
    assert unused_definitions() == sorted(ALLOWED)
