import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "burauforge"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_modules_import_no_private_names_from_siblings():
    # a module's underscore names (the ball grid and its rounding, say)
    # stay behind its public interface
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("burauforge")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_module_exports_resolve():
    # a deleted function must not leave its name behind in __all__
    missing, exporting = [], 0
    for path in sorted(SRC.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"burauforge{stem}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        exporting += 1
        missing += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert exporting
    assert missing == []


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps package functions by name; a rename
    # would otherwise show up only as an error in a traced benchmark run
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _ in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS:
        importlib.import_module(module)
        try:
            owner, attr = tracer._resolve(module, path)
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{path}")
    assert missing == []
    # the tracer measures the words these return
    from burauforge.artin import B3, artin_action, longitude
    from burauforge.words import parse_word
    braid = parse_word(B3, "g1^2 g2^2 g1^-2 g2^-2")
    assert all(w.length() >= 1 for w in artin_action(braid).images)
    assert longitude(braid, 2).length() == 4
    # the traced run's artin.action span wraps the module global, so
    # `longitude` must reach the action through it
    from burauforge import artin
    calls = []

    def counting(w):
        calls.append(w)
        return artin_action(w)

    monkeypatch.setattr(artin, "artin_action", counting)
    longitude(braid, 1)
    assert calls == [braid]


def test_relation_suites_reach_the_triangle_routines(monkeypatch):
    # the traced run's triangle.claim span wraps the triangle module
    # globals, so every relation suite must evaluate through them, once
    # per order
    from burauforge import cli, triangle
    names = {"even": "verify_even", "odd": "verify_odd",
             "oddlem": "verify_odd_embedding", "kernel": "verify_kernel_words"}
    calls = []
    for suite, name in names.items():
        original = getattr(triangle, name)

        def counting(x, q, suite=suite, original=original):
            calls.append((suite, x))
            return original(x, q)

        monkeypatch.setattr(triangle, name, counting)
    for suite in names:
        cli.SUITES[suite].run(2, 9)
    assert calls == [(suite, x) for suite in names for x in range(2, 10)
                     if (suite, x) != ("kernel", 6)]
