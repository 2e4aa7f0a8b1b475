import ast
import importlib
import importlib.util
import subprocess
import sys
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



def test_one_json_writer():
    # every report and certificate file goes through reports.dumps; a
    # json.dump or json.dumps with an indent would be a second writer
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and any(k.arg == "indent" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_starts_without_heavy_stdlib_modules():
    # every CLI command starts a fresh interpreter; dataclasses pulls in
    # inspect, ast, dis and tokenize, and under -S (no site hook) nothing
    # else loads typing, so none of them is paid for at start-up
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import burauforge.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def _imported_names(tree):
    # (line, bound name) of every import but __future__ features
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, (a.asname or a.name).partition(".")[0])
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def test_modules_use_every_name_they_import():
    # a name left behind when its last use goes; __init__ imports to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                  if name not in used]
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



# caches in src/ with no size bound, each with the reason its key set stays small
UNBOUNDED_CACHES = {
    "balls.pi_bounds": "one entry per working precision",
    "balls._unit_turn": "one entry per arc endpoint and precision that certificate checks use",
    "cyclotomic.euler_phi": "one integer per conductor",
    "cyclotomic.cyclotomic_polynomial": "one polynomial per conductor and divisor",
    "cyclotomic._reduction_rows": "sparse rows, one table per conductor",
    "cli.build_parser": "takes no arguments: the one parser",
}


def _cache_sizes() -> dict[str, int | None]:
    # module.function -> maxsize of its functools cache, None if unbounded;
    # a maxsize may name a module-level constant
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = {t.id: node.value.value for node in tree.body
                     if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                     for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            for deco in getattr(node, "decorator_list", ()):
                call = deco if isinstance(deco, ast.Call) else None
                kind = ast.unparse(call.func if call else deco).rpartition(".")[2]
                if kind == "cache":
                    size = None
                elif kind == "lru_cache":
                    args = [*call.args, *(k.value for k in call.keywords)] if call else []
                    arg = args[0] if args else ast.Constant(128)
                    size = constants[arg.id] if isinstance(arg, ast.Name) else ast.literal_eval(arg)
                else:
                    continue
                sizes[f"{path.stem}.{node.name}"] = size
    return sizes


def test_caches_are_bounded_or_listed():
    # a new cache must bound its size, or give here the reason its keys
    # stay few; the exact-data memos of hyperbolic (the images and the form
    # per q, the word powers per q, word and power) and the Artin memos
    # (the word action per braid, the series fold per braid and degree)
    # are small and bounded
    sizes = _cache_sizes()
    assert {name for name, size in sizes.items() if size is None} == set(UNBOUNDED_CACHES)
    assert sizes["hyperbolic._images_memo"] == sizes["hyperbolic._form_memo"] == 8
    assert sizes["hyperbolic._word_memo"] == 32
    assert sizes["artin._magnus_fold"] == 4
    assert sizes["artin.artin_action"] == 8
    assert all(size > 0 for size in sizes.values() if size is not None)


def _called_names(path, function):
    # names called anywhere in the body of the module-level function
    tree = ast.parse(path.read_text(), str(path))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_one_scalar_search():
    # the relation oracle and the torsion guard run the same search
    assert "first_scalar_word" in _called_names(SRC / "burau.py", "projective_order")
    assert "first_scalar_word" in _called_names(SRC / "hyperbolic.py", "short_relation_oracle")


def test_one_route_to_an_exact_word_power():
    # the search and the verification reach the words and their powers only
    # through the word memo, and hyperbolic raises no matrix by **: the two
    # powers it takes are of the complex multipliers of x and y
    path = SRC / "hyperbolic.py"
    for name in ("ping_pong_certify", "_exact_pair", "short_relation_oracle"):
        called = _called_names(path, name)
        assert "_word_matrix" in called, name
        assert not called & {"pair_word_eval", "evaluate_word", "power", "pow"}, name
    tree = ast.parse(path.read_text())
    assert sorted(ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  ) == ["k_x ** ax", "k_y ** by"]
    assert not any(isinstance(node, ast.Attribute) and node.attr == "__pow__"
                   for node in ast.walk(tree))
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(getattr(call.func, "id", None) == "pair_word_eval"
                    for call in ast.walk(node) if isinstance(call, ast.Call))] == ["_word_memo"]


def test_conjugator_fold_builds_words_by_products_and_powers():
    # one junction operation for words: the fold forms every element,
    # the quotients U_c^-1 U_t included, by * and words.power from the
    # identity and the six letters, so words and Magnus series run it alike
    tree = ast.parse((SRC / "artin.py").read_text())
    fold = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_conjugator_fold")
    assert [arg.arg for arg in fold.args.args] == ["w", "one", "letter"]
    # a method call, such as .inverse(), has no name and fails the check
    called = {getattr(node.func, "id", None) for node in ast.walk(fold)
              if isinstance(node, ast.Call)}
    assert called <= {"power", "divmod", "abs", "ValueError"}


def test_relation_words_power_by_eigenvalues():
    # every power of A, B and AB in the relation families comes from the
    # eigenvalue routine; ** is left only for the squares and cubes of
    # mixed words
    tree = ast.parse((SRC / "triangle.py").read_text())
    for name in ("_even_words", "_odd_words", "verify_odd_embedding"):
        assert "root_eigen_powers" in _called_names(SRC / "triangle.py", name), name
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        for node in ast.walk(body):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                assert ast.unparse(node.left) not in ("a", "b", "a * b"), name
                assert isinstance(node.right, ast.Constant) and node.right.value in (2, 3), name
