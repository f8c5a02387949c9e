"""Stdlib lint: every name a module imports is used in that module, no
module imports inside a function, no function writes module-level state,
every private function and class is named outside its own definition,
every public name has a docstring, only errors.py raises a budget error,
every budget message is pinned by an overrun row, the certificate
replay imports nothing of the search engine, and no string holds regex
syntax newer than the oldest Python the package declares (3.10).

The project depends on no linter, so this walks the syntax trees itself.
The package __init__ is exempt from the unused-import check: its imports
are the public re-exports.
"""

import ast
import pathlib
import re
from collections import Counter

import scx

from test_cli import API_OVERRUN_CONTRACT

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scx"


def unused_imports(source):
    """Names bound by import statements anywhere in source, never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_checker_sees_unused_and_used_imports():
    source = ("import os\nimport os.path as osp\nfrom math import pi, tau\n"
              "def f():\n    from json import dumps\n    return tau\n")
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "pi"),
                                      (5, "dumps")]
    assert unused_imports("import os\nos.getcwd()\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 11
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def imports_in_functions(source):
    """Lines of the import statements inside function bodies of source."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_the_checker_sees_imports_in_functions():
    source = ("import os\ndef f():\n    from json import dumps\n"
              "    def g():\n        import re\n    return os\n"
              "class C:\n    def m(self):\n        import math\n")
    assert imports_in_functions(source) == [3, 5, 9]
    assert imports_in_functions("import os\ndef f():\n    return os\n") == []


def test_no_module_imports_inside_a_function():
    found = {p.name: imports_in_functions(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


MUTATORS = {"append", "extend", "update", "setdefault", "pop", "clear", "add",
            "insert", "remove"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(node):
    """The names a statement or function body binds in its own scope:
    stores, deletes and nested definitions, not the names bound inside
    nested functions or classes."""
    found, todo = set(), list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            found.add(n.name)
            todo.extend(n.decorator_list)
            continue
        if isinstance(n, ast.Lambda):
            continue
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            found.update((a.asname or a.name).split(".")[0] for a in n.names)
        todo.extend(ast.iter_child_nodes(n))
    return found


def root_name(node):
    """The name at the root of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(source):
    """Lines where a function of source writes module-level state: a global
    statement, a store or delete through a subscript or attribute of a
    module-level name, or a mutating method call on one.  A name a function
    or an enclosing one binds (a parameter, a local) is not module-level."""
    tree = ast.parse(source)
    lines = set()

    def visit(node, shadowed):
        for n in ast.iter_child_nodes(node):
            if isinstance(n, FUNCTIONS):
                args = n.args
                params = {a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs + [args.vararg, args.kwarg] if a}
                visit(n, (shadowed or set()) | params | bound_names(n))
                continue
            if isinstance(n, ast.ClassDef):
                visit(n, shadowed)  # a class body is no function scope
                continue
            if shadowed is not None:
                if isinstance(n, ast.Global):
                    lines.add(n.lineno)
                elif (isinstance(n, (ast.Subscript, ast.Attribute))
                      and not isinstance(n.ctx, ast.Load)):
                    target = root_name(n)
                elif (isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in MUTATORS):
                    target = root_name(n.func.value)
                else:
                    target = None
                if target in module_names and target not in shadowed:
                    lines.add(n.lineno)
            visit(n, shadowed)

    module_names = bound_names(tree)
    visit(tree, None)  # None: at module level, outside every function
    return sorted(lines)


def test_the_checker_sees_module_state_writes():
    source = ("import sys\nCACHE = {}\nSEEN = []\nclass C:\n    n = 0\n"
              "def f(x):\n    global COUNT\n    CACHE[x] = 1\n"
              "    SEEN.append(x)\n    sys.path.insert(0, x)\n"
              "    C.n = 2\n    del CACHE[x]\n    CACHE[x] += 1\n"
              "    return [SEEN.pop() for _ in x]\n"
              "def g(x):\n    def h():\n        CACHE.update(x)\n"
              "    return h\n"
              "h = lambda x: SEEN.extend(x)\n")
    assert module_state_writes(source) == [7, 8, 9, 10, 11, 12, 13, 14, 17,
                                           19]
    clean = ("CACHE = {}\nSEEN = []\nCACHE[0] = 1\nSEEN.append(0)\n"
             "def f(CACHE, x):\n    CACHE[x] = 1\n    SEEN = []\n"
             "    SEEN.append(x)\n    out = {}\n    out.update(CACHE)\n"
             "    def g():\n        SEEN.append(x)\n        out[x] = 2\n"
             "    return SEEN.index(x), CACHE.get(x), g\n"
             "class C:\n    def m(self, x):\n        self.items.append(x)\n"
             "        self.n = x\n")
    assert module_state_writes(clean) == []


def test_no_function_writes_module_level_state():
    """Nothing in the package hands state from one call to the next."""
    found = {p.name: module_state_writes(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert len(found) >= 12
    assert {name: lines for name, lines in found.items() if lines} == {}


def mentions(node):
    """How often the tree under node names each name, read as a variable
    or looked up as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_private_helpers(sources):
    """The private functions and classes, methods included, that the
    sources define but name nowhere outside the definition itself."""
    trees = [ast.parse(source) for source in sources]
    named = sum(map(mentions, trees), Counter())
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")
                  and named[node.name] == mentions(node)[node.name])


def test_the_checker_sees_dead_private_helpers():
    defining = ("def _used():\n    return 1\n"
                "def _dead():\n    return _used()\n"
                "def _selfish(n):\n    return _selfish(n - 1) if n else 0\n"
                "class _Lone:\n    def __init__(self):\n        self._x = 0\n"
                "    def _step(self):\n        return self._step\n"
                "def _shared():\n    return 2\n")
    using = "from a import _shared\ndef f():\n    return _shared()\n"
    assert dead_private_helpers([defining, using]) == [
        "_Lone", "_dead", "_selfish", "_step"]
    assert dead_private_helpers([defining]) == [
        "_Lone", "_dead", "_selfish", "_shared", "_step"]


def test_every_private_helper_is_named_outside_its_own_def():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert len(sources) >= 12
    assert dead_private_helpers(sources) == []

def test_every_public_function_and_class_has_a_docstring():
    """Read from the source: a dataclass's generated __doc__ only repeats
    its signature."""
    docs = {}
    for p in SRC.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                docs[node.name] = ast.get_docstring(node)
    assert set(scx.__all__) <= set(docs)
    assert [name for name in scx.__all__ if not docs[name]] == []


def budget_error_calls(source):
    """Lines of source that call BudgetExceededError directly."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and ast.unparse(
                      node.func).split(".")[-1] == "BudgetExceededError")


def test_the_checker_sees_budget_error_calls():
    source = ("from . import errors\nfrom .errors import BudgetExceededError\n"
              "def f(n):\n    if n:\n        raise BudgetExceededError('x')\n"
              "    raise errors.BudgetExceededError('y', budget=n)\n"
              "def g(e):\n    return isinstance(e, BudgetExceededError)\n")
    assert budget_error_calls(source) == [5, 6]


def test_only_errors_py_raises_a_budget_error():
    """Every refusal past a budget goes through errors.spend."""
    found = {p.name: budget_error_calls(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"errors.py"}


def budget_messages(source):
    """The string constants of source that name a budget, "%(budget)d"."""
    return sorted(node.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and "%(budget)d" in node.value)


def message_pattern(message):
    """A regular expression for message once formatted: each %(name)d
    field reads as a run of digits, the rest as itself."""
    return re.compile(r"\d+".join(map(re.escape,
                                      re.split(r"%\(\w+\)d", message))))


def test_the_checker_sees_budget_messages():
    source = ('def f(n):\n    spend(n, 3, "too many (%(requested)d of "\n'
              '          "%(budget)d) ones")\n    return "%(budget)s"\n')
    assert budget_messages(source) == ["too many (%(requested)d of "
                                       "%(budget)d) ones"]
    pattern = message_pattern(budget_messages(source)[0])
    assert pattern.fullmatch("too many (4 of 3) ones")
    assert not pattern.fullmatch("too many (4 of 3)) ones")
    assert not pattern.fullmatch("too many 4 of 3 ones")


def test_every_budget_message_has_an_overrun_row():
    """A refusal past a budget ships only with a row of
    API_OVERRUN_CONTRACT (tests/test_cli.py) that raises it."""
    rows = [row[2] for row in API_OVERRUN_CONTRACT]
    found = {message for p in sorted(SRC.glob("*.py"))
             for message in budget_messages(p.read_text())}
    assert len(found) >= 8
    assert sorted(m for m in found if not any(
        message_pattern(m).fullmatch(row) for row in rows)) == []


def package_imports(source):
    """(module, name) for each name source takes from a module of the
    package, by a relative import or through "scx"; name is None when the
    module itself is imported."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "scx":
                    continue
                module = module[len("scx."):] if "." in module else ""
            for alias in node.names:
                if module:
                    found.add((module, alias.name))
                else:  # from . import collapse
                    found.add((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:  # "scx" alone gives module ""
                if alias.name.split(".")[0] == "scx":
                    found.add((alias.name[len("scx."):], None))
    return found


REPLAY_MAY_IMPORT = {("complexes", "_vkey"), ("complexes", "face_tuple"),
                     ("errors", None)}  # None: any name of the module


def foreign_imports(source):
    """The package imports of source that a replay may not make."""
    return sorted((module, name or "") for module, name in
                  package_imports(source)
                  if (module, name) not in REPLAY_MAY_IMPORT
                  and (module, None) not in REPLAY_MAY_IMPORT)


def test_the_checker_sees_imports_a_replay_may_not_make():
    clean = ("from itertools import chain\n"
             "from .complexes import _vkey, face_tuple\n"
             "from .errors import InvalidComplexError, ScxFormatError\n")
    assert foreign_imports(clean) == []
    assert foreign_imports(clean + "from .collapse import CollapsePair\n"
                           "from .complexes import _ridge_map\n"
                           "from . import scxio\nimport scx.subdivision\n"
                           "import scx\ndef f():\n"
                           "    from scx.census import iso\n") == [
        ("", ""), ("census", "iso"), ("collapse", "CollapsePair"),
        ("complexes", "_ridge_map"), ("scxio", ""), ("subdivision", "")]


def test_verify_py_shares_nothing_with_the_engine():
    """The replay takes only the label order from complexes and the error
    types: nothing from the search, the reader, sd or the census."""
    source = (SRC / "verify.py").read_text()
    assert ("complexes", "face_tuple") in package_imports(source)
    assert foreign_imports(source) == []


# possessive repeats and atomic groups: re.compile refuses both before 3.11
NEWER_REGEX = re.compile(r"[*+?}]\+|\(\?>")


def newer_regex_strings(source):
    """Lines of the string constants in source holding NEWER_REGEX."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and NEWER_REGEX.search(node.value))


def test_the_checker_sees_regex_syntax_newer_than_3_10():
    source = ('A = "[0-9]*+"\nB = "(?:,x)++"\nC = "(?>a|b)c"\n'
              'D = "x?+"\nE = "a{2}+"\nF = "(?:0|-?[1-9][0-9]*)+ (?:x)"\n')
    assert newer_regex_strings(source) == [1, 2, 3, 4, 5]


def test_no_module_uses_regex_syntax_newer_than_3_10():
    assert "requires-python = \">=3.10\"" in (
        SRC.parent.parent / "pyproject.toml").read_text()
    found = {p.name: newer_regex_strings(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
