"""Every name the package advertises resolves."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import eulermagic
from eulermagic.poly import MultiPoly


def test_advertised_names_resolve():
    # every library module's __all__ resolves there and, republished, on the
    # package itself; cli is the command, not library API
    for info in pkgutil.iter_modules(eulermagic.__path__):
        module = importlib.import_module(f"eulermagic.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        if info.name != "cli":
            unpublished = [name for name in module.__all__
                           if getattr(eulermagic, name, None) is not getattr(module, name)]
            assert not unpublished, (info.name, unpublished)


def test_package_republishes_each_module_all():
    # __init__.py lists no public name itself: each is declared once, in its
    # module's __all__, and no two modules declare the same name
    tree = ast.parse(Path(eulermagic.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [alias.name for node in imports for alias in node.names] == ["*"] * len(imports)
    library = sorted(info.name for info in pkgutil.iter_modules(eulermagic.__path__)
                     if info.name != "cli")
    assert sorted(node.module for node in imports) == library
    declared = Counter(name for module in library
                       for name in importlib.import_module(f"eulermagic.{module}").__all__)
    assert [name for name, count in declared.items() if count > 1] == []


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


# Public functions and methods that no code in src/ refers to, each with the
# reason it stays.  The ROADMAP numbers are its open items.
UNREFERENCED_PUBLIC_API = {
    "cayley.cayley": "basic API; tracer-pinned until ROADMAP 1",
    "cayley.skew_from_upper": "basic API; perfbench/child.py builds search5 samples with it",
    "cayley.inverse_cayley": "role in ROADMAP 2",
    "cayley.sign_diagonal": "role in ROADMAP 2",
    "cayley.ortho_reduce": "role in ROADMAP 2",
    "family8.enumerate_w1": "the certify benchmark calls it; role in ROADMAP 3",
    "family8.w1_coefficient_checker": "the certify benchmark calls it; role in ROADMAP 3",
    "family8.solve_chain": "role in ROADMAP 7",
    "matrices.identity": "basic API",
    "matrices.mat_add": "basic API; the sign_diagonal tests check with it",
    "matrices.transpose": "basic API",
    "matrices.mat_inverse": "tracer-pinned until ROADMAP 1",
    "permutations.two_by_two_family": "acceptance criterion 10",
    "poly.MultiPoly.substitute": "tracer-pinned until ROADMAP 1",
    "poly.MultiPoly.eval": "basic API of the symbolic layer",
    "poly.parse_poly": "role in ROADMAP 4",
    "search.Xorshift64Star.rational": "basic API; perfbench/child.py draws with it",
    "search.Xorshift64Star.uniform_int": "basic API: one draw; the tests draw with it",
    "verify.magic_square_of_squares": "basic API",
    "verify.MagicSquareReport.all_sums_equal_gamma": "basic API: the magic square's check",
}


def _references(tree):
    """(names, attributes): how often each name is read as a variable and as
    an attribute in tree; import statements and the strings of __all__ are
    neither."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def test_every_unreferenced_public_function_has_a_reason():
    defined, names, attributes = {}, Counter(), Counter()
    for path in sorted(Path(eulermagic.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree_names, tree_attributes = _references(tree)
        names += tree_names
        attributes += tree_attributes
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            prefix = f"{path.stem}.{node.name}." if is_class else f"{path.stem}."
            for func in node.body if is_class else [node]:
                if isinstance(func, ast.FunctionDef) and not func.name.startswith("_"):
                    defined[prefix + func.name] = (func, is_class)
    unreferenced = set()
    for qualified, (func, is_method) in defined.items():
        # a method is reached only as an attribute, so a local variable of
        # the same name does not hide it; a function's references to itself,
        # as in recursion, do not count
        own_names, own_attributes = _references(func)
        uses = attributes[func.name] - own_attributes[func.name]
        if not is_method:
            uses += names[func.name] - own_names[func.name]
        if not uses:
            unreferenced.add(qualified)
    assert unreferenced == set(UNREFERENCED_PUBLIC_API)


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


def test_cli_parses_and_the_library_validates():
    # argparse.ArgumentTypeError is raised only by _fraction, which turns
    # parse_rational's refusal into argparse's; every range rule is the library's
    tree = ast.parse((Path(eulermagic.__file__).parent / "cli.py").read_text(encoding="utf-8"))

    def raises(root):
        return {node for node in ast.walk(root) if isinstance(node, ast.Raise)
                and node.exc is not None and "ArgumentTypeError" in ast.unparse(node.exc)}

    fraction = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_fraction")
    assert raises(fraction) and raises(tree) == raises(fraction)


def test_only_cli_renders():
    # the library returns records; every text and JSON form is cli's
    offenders = []
    for path in sorted(Path(eulermagic.__file__).parent.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                offenders += [(path.name, alias.name) for alias in node.names
                              if alias.name.split(".")[0] == "json"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                offenders.append((path.name, node.module))
        offenders += [(path.name, node.name) for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and (node.name == "canonical_json"
                           or node.name.endswith(("_to_json", "_to_json_dict", "_to_text")))]
    assert offenders == []


def _imported_modules(tree):
    """The last dotted part of every module tree imports from, or imports."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules |= ({node.module.split(".")[-1]} if node.module
                        else {alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[-1] for alias in node.names}
    return modules


def test_proofs_have_one_home():
    # certificates.py alone builds the symbolic forms and proves identities
    # about them, and it imports none of the modules that call it; among the
    # library modules only it imports poly (the numeric layers run on
    # integers), while cli imports it to render and __init__ to republish it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(eulermagic.__file__).parent.glob("*.py"))}
    assert {stem for stem, tree in trees.items() if "poly" in _imported_modules(tree)} <= {
        "__init__", "certificates", "cli"}
    defined = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(stem, name) for name in names
                        if name in ("CertificateLine", "_identity_line", "BOTH_VARS")]
    assert sorted(defined) == [("certificates", "BOTH_VARS"), ("certificates", "CertificateLine"),
                               ("certificates", "_identity_line")]
    assert _imported_modules(trees["certificates"]) & {"family8", "cayley", "search", "cli"} == set()


# Names a module of src/eulermagic imports and never reads, each with the
# reason it stays.
UNREAD_IMPORTS = {
    "cayley.nonexistence_certificate":
        "perfbench/child.py and perfbench/tracer.py read eulermagic.cayley.nonexistence_certificate",
}


def test_every_imported_name_is_read():
    unread = set()
    for path in sorted(Path(eulermagic.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread |= {f"{path.stem}.{bound}" for bound in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if bound not in read}
    assert unread == set(UNREAD_IMPORTS)


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


def test_only_merge_parts_counts_search_hits():
    # chunks return their candidates, and _merge_parts derives the hit count
    # from them, so no other function in search.py binds the name hits
    tree = ast.parse((Path(eulermagic.__file__).parent / "search.py").read_text(encoding="utf-8"))
    binders = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and node.id == "hits" and isinstance(
                        node.ctx, ast.Store):
                    binders.add(func.name)
    assert binders == {"_merge_parts"}


def test_package_import_loads_no_dataclasses():
    # records are NamedTuples or plain classes, so no code is generated at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, eulermagic.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
