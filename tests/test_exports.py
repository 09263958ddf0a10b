"""Every name the package advertises resolves."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import eulermagic
from eulermagic.poly import MultiPoly


def test_advertised_names_resolve():
    # each module's __all__
    for info in pkgutil.iter_modules(eulermagic.__path__):
        module = importlib.import_module(f"eulermagic.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    # each name eulermagic/__init__.py imports
    tree = ast.parse(Path(eulermagic.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 50
    assert [name for name in names if not hasattr(eulermagic, name)] == []


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps these by name in traced benchmark runs;
    # loading it is enough, install() would patch the modules
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for _, module, attr, _ in tracer.LAYERS] + [
        ("eulermagic.family8", "w1_coefficient_checker"),
        ("eulermagic.poly", "MultiPoly.substitute"),
        ("eulermagic.poly", "MultiPoly.__post_init__"),
    ]
    assert len(names) > 10
    missing = []
    for module, attr in names:
        value = importlib.import_module(module)
        for part in attr.split("."):
            value = getattr(value, part, None)
        if not callable(value):
            missing.append((module, attr))
    assert missing == []

    # poly.new.count: install() wraps MultiPoly.__post_init__ on the class,
    # which every MultiPoly construction must call
    counts = tracer.Tracer()
    monkeypatch.setattr(MultiPoly, "__post_init__",
                        counts.counted("poly.new", MultiPoly.__post_init__))
    x, y = MultiPoly.variables_of(("x", "y"))
    x * y
    assert counts.summary()["counts"]["poly.new"] == 3


def test_only_cli_main_reports_bad_input():
    # cli.main alone turns a ValueError into "error: ..." on stderr and exit 2
    tree = ast.parse((Path(eulermagic.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "main":
            continue
        for node in ast.walk(func):
            writes_stderr = isinstance(node, ast.Attribute) and node.attr == "stderr"
            returns_two = isinstance(node, ast.Return) and node.value is not None and any(
                isinstance(n, ast.Constant) and n.value == 2 for n in ast.walk(node.value))
            if writes_stderr or returns_two:
                offenders.append((func.name, node.lineno))
    assert offenders == []


def test_package_runs_no_generated_code():
    # no builtin exec, eval or compile call anywhere in the package
    calls = []
    for path in sorted(Path(eulermagic.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                calls.append((path.name, node.lineno, node.func.id))
    assert calls == []


def test_generator_step_is_written_once():
    # the xorshift64* shift triple appears once in the package, in
    # search.py, so no fast path forks the generator
    shifts = []
    for path in sorted(Path(eulermagic.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.RShift, ast.LShift))
                    and isinstance(node.right, ast.Constant)
                    and (type(node.op), node.right.value) in (
                        (ast.RShift, 12), (ast.LShift, 25), (ast.RShift, 27))):
                shifts.append((path.name, type(node.op).__name__, node.right.value))
    assert sorted(shifts) == [("search.py", "LShift", 25), ("search.py", "RShift", 12),
                              ("search.py", "RShift", 27)]


def test_package_import_loads_no_dataclasses():
    # records are NamedTuples or plain classes, so no code is generated at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, eulermagic.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
