import ast
import glob
import os
import re
from collections import Counter

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kurihara")


def test_no_bare_asserts():
    # `python -O` strips assert statements, so every check in the package is
    # a typed error instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_group_ring_layout_private():
    # group-ring coefficients and homomorphism index arrays are stored in
    # exactmath's element order; every other module reads them through
    # items(), coefficient(g) or hom(g)
    tests = os.path.dirname(__file__)
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(tests, "*.py")))
    found = []
    for path in paths:
        if os.path.basename(path) == "exactmath.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "image")
        ]
    assert found == []


def test_quotient_layout_private():
    # the quotient coordinates, boundary rows and Hecke matrices are integers
    # on the proj_den scale of modsym; no other module of the package reads
    # them, nor the generator numerators and the P^1 inverse table that the
    # integer walk reads (EigenSymbol.plus_numerators hands out its scale)
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "modsym.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in (
                "proj_nums", "proj_den", "boundary", "hecke_full", "_inv", "generator_values",
            )
        ]
    assert found == []


def test_dlog_list_read_in_kolyvagin_only():
    # the per-prime discrete-log list is laid out by residue inside
    # kolyvagin; every other module asks KolyvaginPrime.dlog
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "kolyvagin.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_table", "_logs")
        ]
    assert found == []


def _decomposition_loops(tree, where):
    """`module:Class.method` of each while loop that takes remainders (`%` or
    divmod) and looks up P^1 classes (a call of `index`): a decomposition
    of a/d into unimodular pieces.  Nested functions report their method."""
    found = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, names + [child.name] if len(names) < 2 else names)
                continue
            if isinstance(child, ast.While):
                inner = list(ast.walk(child))
                remainder = any(
                    isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                    or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "divmod"
                    for n in inner
                )
                lookup = any(
                    isinstance(n, ast.Call)
                    and "index" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
                    for n in inner
                )
                if remainder and lookup:
                    found.append(f"{where}:{'.'.join(names)}")
            visit(child, names)

    visit(tree, [])
    return found


def test_two_decompositions_of_a_over_d():
    # ManinSpace.path_symbols (the convergent loop, the exact reference that
    # eval_plus reads) and EigenSymbol.plus_numerators (the walk, Euclid on
    # (d, a^-1)) are the only loops that cut {oo -> a/d} into pieces
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            found += _decomposition_loops(ast.parse(fh.read(), path), os.path.basename(path))
    assert sorted(found) == [
        "modsym.py:EigenSymbol.plus_numerators", "modsym.py:ManinSpace.path_symbols",
    ]


def test_one_window_search_and_count_threshold():
    # the baby-step/giant-step window search and the square-table threshold
    # live in curve: the other modules ask count_points or count_divisible
    names = {"_window_multiples", "NAIVE_COUNT_LIMIT"}
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "curve.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.alias) and node.name in names
        ]
    assert found == []


# the point arithmetic over F_l: the short model and the invariants c4, c6
# it reads, its operations and the searches that step through points
POINT_ARITHMETIC = {
    "short_model", "c4", "c6", "ec_neg", "ec_add", "ec_mul", "draw_point",
    "_window_multiples", "DRAW_START",
}


def test_one_point_arithmetic():
    # points over F_l are added in curve alone, on the short model: no other
    # module defines, calls or imports an operation on points or reads the
    # short-model constants, and inside curve the functions that step
    # through points read no Weierstrass coefficient (each asks short_model)
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "curve.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in POINT_ARITHMETIC
            or isinstance(node, ast.Name) and node.id in POINT_ARITHMETIC
            or isinstance(node, ast.Attribute) and node.attr in POINT_ARITHMETIC
            or isinstance(node, ast.alias) and node.name in POINT_ARITHMETIC
        ]
    assert found == []
    with open(os.path.join(SRC, "curve.py")) as fh:
        tree = ast.parse(fh.read())
    coefficients = {"a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "c4", "c6", "ainvs"}
    stepping = {
        node.name: {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name != "short_model"
        and any(
            isinstance(n, ast.Name) and n.id in POINT_ARITHMETIC
            or isinstance(n, ast.FunctionDef) and n.name in POINT_ARITHMETIC
            for n in ast.walk(node)
        )
    }
    assert {"ec_add", "_window_multiples", "_count_bsgs", "count_divisible",
            "p_torsion_structure"} <= set(stepping)
    assert {name: attrs & coefficients for name, attrs in stepping.items()
            if attrs & coefficients} == {}


def test_grammar_of_python_3_10():
    # the package supports Python 3.10 (pyproject requires-python); parsing
    # with feature_version=(3, 10) refuses newer syntax such as `except*`.
    # It checks the grammar only, not the library calls.
    tests = os.path.dirname(__file__)
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(tests, "*.py")))
    for path in paths:
        with open(path) as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))
    assert len(paths) > 20


# the modules a run of the package imports; `cli` adds argparse and json only
PACKAGE_MODULES = (
    "curve", "exactmath", "kolyvagin", "lseries", "mazurtate", "modsym", "search", "verifiers",
)


def test_import_path_without_dataclasses(run_python):
    # records.py stands in for dataclasses, whose import loads inspect, ast,
    # dis, tokenize and copy, and whose classes exec generated source; random
    # is imported only inside the identity suite, its one user
    script = (
        "import sys\n"
        + "".join(f"import kurihara.{name}\n" for name in PACKAGE_MODULES)
        + "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'random')"
        " if m in sys.modules))\n"
    )
    proc = run_python(script, "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_exec_eval_or_dataclasses():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        where = os.path.basename(path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval")):
                found.append(f"{where}:{node.lineno} {node.func.id}")
            elif isinstance(node, ast.Import):
                found += [f"{where}:{node.lineno} import" for a in node.names
                          if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{where}:{node.lineno} import")
    assert found == []


def test_every_definition_used_in_the_package():
    # a function or class that only the tests call belongs in the tests: each
    # name defined in the package must also appear in it somewhere besides
    # its definitions (a call, a reference, an export, or a docstring).  A
    # module-level UPPER_CASE constant must be read by code, as a name or an
    # attribute: a docstring or a comment that names it is not a use
    texts = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            texts.append((os.path.basename(path), fh.read()))
    package = "\n".join(text for _, text in texts)
    trees = [(where, ast.parse(text, where)) for where, text in texts]
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    constants = 0
    for where, tree in trees:
        for node in tree.body:
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    constants += 1
                    if target.id not in read:
                        unused.append(f"{where}:{node.lineno} {target.id}")
    assert constants > 15
    # one count of identifier tokens, and of the names after def and class,
    # gives each name's number of `\bname\b` matches in one pass
    mentions = Counter(re.findall(r"\w+", package))
    definitions = Counter(re.findall(r"\b(?:def|class)\s+(\w+)", package))
    for where, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if mentions[name] <= definitions[name]:
                unused.append(f"{where}:{node.lineno} {name}")
    assert unused == []


def test_no_unused_imports():
    # every name a module imports is read in it; the package's __init__.py
    # imports to re-export, so it is the one exception
    tests = os.path.dirname(__file__)
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")) + glob.glob(os.path.join(tests, "*.py")))
    unused = []
    for path in paths:
        if os.path.normpath(path) == os.path.normpath(os.path.join(SRC, "__init__.py")):
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{os.path.basename(path)}:{line} {name}"
            for name, line in imported.items() if name not in read
        ]
    assert unused == []


def test_tracer_targets_exist_with_their_signatures():
    # perfbench/tracer.py wraps package functions and methods by name, and
    # keys some of them by a lambda over the wrapped call's arguments.  A
    # renamed function, or a parameter added to a keyed one, breaks every
    # traced run, which an untraced benchmark run cannot show.  The tracer
    # file is loaded, never edited.
    import importlib
    import importlib.util
    import inspect

    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def parameters(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    missing, mismatched = [], []
    for modname, attr, _, _, key in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(f"kurihara.{modname}"), attr, None)
        if not callable(fn):
            missing.append(f"{modname}.{attr}")
        elif key is not None and parameters(key) != parameters(fn):
            mismatched.append(f"{modname}.{attr}")
    for modname, clsname, attr, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"kurihara.{modname}"), clsname, None)
        if not callable(getattr(cls, attr, None)):
            missing.append(f"{modname}.{clsname}.{attr}")
    assert len(tracer.FUNCTIONS) > 20 and len(tracer.METHODS) == 2
    assert (missing, mismatched) == ([], [])
