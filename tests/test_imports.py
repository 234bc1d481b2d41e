"""Every name a module of the package imports is used there or exported,
every module-level private name it defines is referenced in the package,
every defaulted parameter or dataclass field it defines is passed by some
call in the repository, files are opened for writing at known sites only,
no module but the CLI prints, one helper checks every choice, one accept
rule refreshes the global best, one bound repair clamps, and every
attribute the benchmark's span recorder wraps exists."""

import ast
import importlib.util
from pathlib import Path

import pytest

import fdopt

MODULES = sorted(Path(fdopt.__file__).parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nprint(path)\n"
    assert _unused_imports(source) == [(1, "np")]


def _orphans(sources):
    """(module, line, name) of every module-level ``_name`` that no module references.

    ``sources`` maps module names to source text.  A reference is a loaded
    name, an attribute or a ``from``-import anywhere in the package.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, n) for n in names if n.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in referenced and not d[2].startswith("__"))


def test_no_orphaned_private_names():
    assert _orphans({path.name: path.read_text() for path in MODULES}) == []


def test_detects_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 1\n_ghost = 2\ndef _helper():\n    return _LIMIT\nclass _Gone: ...\n",
        "b.py": "import a\nfrom a import _helper\n__all__ = []\nprint(_helper(), a._shared)\n",
        "c.py": "_shared: int = 3\n_unread: int = 4\n",
    }
    expected = [("a.py", 2, "_ghost"), ("a.py", 5, "_Gone"), ("c.py", 2, "_unread")]
    assert _orphans(sources) == expected


CALLERS = [
    path
    for folder in ("src", "tests", "demos", "bench")
    for path in sorted((Path(__file__).resolve().parents[1] / folder).rglob("*.py"))
]


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _init_false(value):
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and getattr(kw.value, "value", True) is False for kw in value.keywords
    )


def _settings(tree):
    """(line, callable, parameter, position) of every defaulted function parameter
    and every defaulted ``__init__`` field of a dataclass in ``tree``.

    ``position`` is the index of a positional argument that fills the
    parameter, not counting ``self`` or ``cls``, and None for a keyword-only one.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            fields = [
                s for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                and not _init_false(s.value)
            ]
            found += [
                (s.lineno, node.name, s.target.id, i)
                for i, s in enumerate(fields)
                if s.value is not None
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional = node.args.posonlyargs + node.args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(node.args.defaults)
            found += [(a.lineno, node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
            found += [
                (a.lineno, node.name, a.arg, None)
                for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None
            ]
    return found


def _passed(trees):
    """What the calls in ``trees`` pass, by called name: argument positions,
    keyword names, ``"*"`` for a ``*`` splat and ``"**"`` for a ``**`` splat."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = passed.setdefault(name, set())
            args.update("*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
            args.update(kw.arg or "**" for kw in node.keywords)
    return passed


def _unset_settings(package, callers):
    """(module, line, "callable.parameter") of every defaulted parameter or
    dataclass field defined in ``package`` that no call in ``callers`` passes.

    Both map file names to source text.  Calls are matched to a callable by
    name; a call passes a parameter by position, by keyword or through a
    ``*`` or ``**`` splat.
    """
    passed = _passed(ast.parse(source) for source in callers.values())
    unset = []
    for module, source in package.items():
        for line, name, param, position in _settings(ast.parse(source)):
            args = passed.get(name, set())
            by_position = position is not None and (position in args or "*" in args)
            if not (by_position or param in args or "**" in args):
                unset.append((module, line, f"{name}.{param}"))
    return sorted(unset)


def test_every_setting_is_passed_somewhere():
    package = {path.name: path.read_text() for path in MODULES}
    callers = {str(path): path.read_text() for path in CALLERS}
    assert _unset_settings(package, callers) == []


def test_detects_an_unset_setting():
    package = {
        "a.py": (
            "from dataclasses import dataclass, field\n"
            "def f(x, by_position=1, by_keyword=2, *, unset=3):\n"
            "    return x\n"
            "def g(x, splat=1):\n"
            "    return x\n"
            "def h(x, star=1):\n"
            "    return x\n"
            "@dataclass\n"
            "class C:\n"
            "    x: int\n"
            "    derived: int = field(init=False)\n"
            "    first: int = 0\n"
            "    second: int = 0\n"
            "class Plain:\n"
            "    def m(self, kept=1, dropped=2):\n"
            "        return kept\n"
        ),
    }
    callers = {
        "b.py": (
            "f(0, 1, by_keyword=2)\n"
            "g(0, **options)\n"
            "h(*values)\n"
            "C(0, 1)\n"
            "Plain().m(5)\n"
        ),
    }
    expected = [("a.py", 2, "f.unset"), ("a.py", 13, "C.second"), ("a.py", 15, "m.dropped")]
    assert _unset_settings(package, callers) == expected


def _nodes(node, function="<module>"):
    """(innermost enclosing function name, node) of every node under ``node``
    that is not itself a function definition."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _nodes(child, child.name)
            continue
        yield function, child
        yield from _nodes(child, function)


def _calls(node):
    """(innermost enclosing function name, call) of every call under ``node``."""
    return ((function, n) for function, n in _nodes(node) if isinstance(n, ast.Call))


def _may_write(call):
    """Whether the mode of an ``open`` call, positional or ``mode=``, can write."""
    mode = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not mode:
        return False
    value = getattr(mode[0], "value", None)
    return not isinstance(value, str) or bool(set(value) & set("wax+"))


def _write_sites(sources):
    """(module, function) of every builtin ``open`` call that can write, one per call.

    ``sources`` maps module names to source text.  A mode that is not a
    string literal counts as a write.
    """
    return sorted(
        (module, function)
        for module, source in sources.items()
        for function, call in _calls(ast.parse(source))
        if getattr(call.func, "id", None) == "open" and _may_write(call)
    )


def test_files_are_written_at_the_known_sites_only():
    """Every experiment file goes through harness._write_csv or the one JSON site of
    harness.export_results; the streamed bench table and scenario files are the others."""
    expected = [
        ("applications.py", "save_scenario"),
        ("cli.py", "cmd_bench"),
        ("harness.py", "_write_csv"),
        ("harness.py", "export_results"),
    ]
    assert _write_sites({path.name: path.read_text() for path in MODULES}) == expected


def test_detects_a_write_site():
    sources = {
        "a.py": (
            "def read(p):\n"
            "    return open(p).read() + open(p, 'rb').read() + open(p, mode='r').read()\n"
            "def write(p, m):\n"
            "    open(p, 'w'), open(p, mode='a'), open(p, 'r+'), open(p, m)\n"
            "def outer(p):\n"
            "    def inner():\n"
            "        return open(p, 'xb')\n"
            "    return inner\n"
            "open('log', 'w')\n"
        ),
        "b.py": "with open(path, 'w', newline='') as fh:\n    fh.write('x')\n",
    }
    expected = [("a.py", "<module>"), ("a.py", "inner"), *[("a.py", "write")] * 4,
                ("b.py", "<module>")]
    assert _write_sites(sources) == expected


def _prints(sources):
    """(module, line) of every call to the builtin ``print`` in ``sources``,
    which maps module names to source text."""
    return sorted(
        (module, call.lineno)
        for module, source in sources.items()
        for _, call in _calls(ast.parse(source))
        if getattr(call.func, "id", None) == "print"
    )


def test_only_the_cli_prints():
    """Library modules report through return values, exceptions and ``logging``."""
    sources = {path.name: path.read_text() for path in MODULES if path.name != "cli.py"}
    assert _prints(sources) == []


def test_detects_a_print():
    sources = {
        "a.py": (
            "import logging\n"
            "def f(x):\n"
            "    logging.info(x)\n"
            "    print(x, file=None)\n"
            "    return [print(y) for y in x]\n"
            "log.print(1)\n"
        ),
        "b.py": "print('done')\n",
    }
    assert _prints(sources) == [("a.py", 4), ("a.py", 5), ("b.py", 1)]


def _raises_value_error(statements):
    return any(
        isinstance(n, ast.Raise) and "ValueError" in (
            getattr(n.exc, "id", None), getattr(getattr(n.exc, "func", None), "id", None)
        )
        for statement in statements
        for n in ast.walk(statement)
    )


def _choice_checks(sources):
    """(module, function, line) of every ``if ... not in ...:`` whose body raises
    ValueError, outside ``core._require_choice``.

    ``sources`` maps module names to source text.
    """
    return sorted(
        (module, function, node.lineno)
        for module, source in sources.items()
        for function, node in _nodes(ast.parse(source))
        if isinstance(node, ast.If)
        and any(
            isinstance(op, ast.NotIn)
            for n in ast.walk(node.test) if isinstance(n, ast.Compare)
            for op in n.ops
        )
        and _raises_value_error(node.body)
        and (module, function) != ("core.py", "_require_choice")
    )


def test_one_choice_check():
    """A value outside a fixed set of choices is rejected by core._require_choice only,
    so every such error has one form."""
    assert _choice_checks({path.name: path.read_text() for path in MODULES}) == []


def test_detects_a_choice_check():
    sources = {
        "core.py": (
            "def _require_choice(name, value, choices):\n"
            "    if value not in choices:\n"
            "        raise ValueError(name)\n"
            "def check(mode):\n"
            "    if mode not in MODES:\n"
            "        raise ValueError\n"
        ),
        "a.py": (
            "def _require_choice(value):\n"
            "    if value not in CHOICES:\n"
            "        raise ValueError(value)\n"
            "def lookup(key):\n"
            "    if key not in TABLE:\n"
            "        raise KeyError(key)\n"
            "    if key in TABLE:\n"
            "        raise ValueError(key)\n"
            "    if key not in TABLE:\n"
            "        pass\n"
            "    else:\n"
            "        raise ValueError(key)\n"
            "    return key not in TABLE\n"
            "class C:\n"
            "    def __post_init__(self):\n"
            "        if self.x > 0 and self.kind not in KINDS:\n"
            "            if self.strict:\n"
            "                raise ValueError('kind')\n"
        ),
        "b.py": "if FORMAT not in ('csv', 'json'):\n    raise ValueError(FORMAT)\n",
    }
    expected = [("a.py", "__post_init__", 16), ("a.py", "_require_choice", 2),
                ("b.py", "<module>", 1), ("core.py", "check", 5)]
    assert _choice_checks(sources) == expected


def _best_assignments(sources):
    """(module, function, line) of every assignment to an attribute named
    ``global_best_fitness`` outside ``core._accept``.

    ``sources`` maps module names to source text.
    """
    return sorted(
        (module, function, node.lineno)
        for module, source in sources.items()
        for function, node in _nodes(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr == "global_best_fitness"
        and (module, function) != ("core.py", "_accept")
    )


def test_one_accept_rule():
    """core._accept, the accept rule of core.step and of the lockstep engine,
    is the one site that refreshes a run's global best."""
    assert _best_assignments({path.name: path.read_text() for path in MODULES}) == []


def test_detects_a_best_assignment():
    sources = {
        "core.py": (
            "def _accept(swarm, value):\n"
            "    swarm.global_best_fitness = value\n"
            "def step(swarm, value):\n"
            "    if value < swarm.global_best_fitness:\n"
            "        swarm.global_best_fitness = value\n"
        ),
        "a.py": (
            "def _accept(s, v):\n"
            "    s.global_best_fitness, s.global_best_position = v\n"
            "class Batch:\n"
            "    def _try(self, k, v):\n"
            "        self.swarms[k].global_best_fitness += v\n"
            "        best = self.global_best_fitness\n"
            "        self.global_best_fitness: float = best\n"
            "        return SwarmState(global_best_fitness=v)\n"
        ),
        "b.py": "state.global_best_fitness = 0.0\n",
    }
    expected = [("a.py", "_accept", 2), ("a.py", "_try", 5), ("a.py", "_try", 7),
                ("b.py", "<module>", 1), ("core.py", "step", 5)]
    assert _best_assignments(sources) == expected


def _clip_calls(sources):
    """(module, function, line) of every call of a ``clip`` method or function,
    ``np.clip`` included, outside ``core._repair`` and ``core.levy_random``.

    ``sources`` maps module names to source text.
    """
    allowed = {("core.py", "_repair"), ("core.py", "levy_random")}
    return sorted(
        (module, function, call.lineno)
        for module, source in sources.items()
        for function, call in _calls(ast.parse(source))
        if getattr(call.func, "attr", getattr(call.func, "id", None)) == "clip"
        and (module, function) not in allowed
    )


def test_one_repair_rule():
    """core._repair, the bound repair of core.enforce_bounds and of the lockstep
    engine, is the one site that clamps a candidate into its box, so whether
    the clamp runs is decided in one place; core.levy_random clamps its draws."""
    assert _clip_calls({path.name: path.read_text() for path in MODULES}) == []


def test_detects_a_clip_call():
    sources = {
        "core.py": (
            "def _repair(out, lb, ub):\n"
            "    out.clip(lb, ub, out=out)\n"
            "def levy_random(rng, size):\n"
            "    return (0.01 * rng.standard_normal(size)).clip(-1.0, 1.0)\n"
            "def enforce_bounds(x, lb, ub):\n"
            "    return np.clip(x, lb, ub)\n"
        ),
        "a.py": (
            "import numpy\n"
            "from numpy import clip\n"
            "def _repair(x, b):\n"
            "    return numpy.clip(x, b.lower, b.upper)\n"
            "class Batch:\n"
            "    def _try(self, rows):\n"
            "        rows.clip(self.lower, self.upper, out=rows)\n"
            "        return [clip(r, 0.0, 1.0) for r in rows]\n"
            "def levy_random(x):\n"
            "    return x.clip(-1.0, 1.0)\n"
            "y = np.asarray(x).clip(0.0, 1.0)\n"
            "bound_method = x.clip\n"
        ),
    }
    expected = [("a.py", "<module>", 11), ("a.py", "_repair", 4), ("a.py", "_try", 7),
                ("a.py", "_try", 8), ("a.py", "levy_random", 10), ("core.py", "enforce_bounds", 6)]
    assert _clip_calls(sources) == expected


def test_every_name_the_benchmark_wraps_exists():
    """bench/spans.py swaps these attributes in and out; removing one breaks
    only the benchmark's recorder, which no other test of this suite runs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans.layer_table()
    assert table and [(o.__name__, a) for o, a, *_ in table if a not in vars(o)] == []
