"""Source hygiene checks over src/qmsep."""

import ast
import collections
import importlib
import pathlib
import re
import sys

from qmsep import cli, harness, money

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qmsep"
PERFBENCH = ROOT / "perfbench"


def _unread_imports(tree: ast.Module) -> list:
    """Names an import statement binds that no expression ever reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unread_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = tau\n")
    assert _unread_imports(tree) == [(1, "os"), (2, "pi")]


def test_no_unread_imports_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {name}" for line, name in _unread_imports(tree)]
    assert not found, "imported but never read: " + ", ".join(found)


def _kron_calls(tree: ast.Module) -> list:
    """Lines that call np.kron or numpy.kron."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "kron" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_scan_flags_np_kron():
    tree = ast.parse("a = np.kron(x, y)\nb = kron(x, y)\nc = numpy.kron(a, b)\n")
    assert _kron_calls(tree) == [1, 3]


def test_no_np_kron_in_src():
    """Kronecker products go through hilbert.kron, byte-equal to np.kron and
    several times faster on the 2x2 factors the attack multiplies."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _kron_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "np.kron called at: " + ", ".join(found)


def _bit_generator_reads(tree: ast.Module) -> list:
    """Lines that read a .bit_generator attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bit_generator"]


def test_scan_flags_a_bit_generator_read():
    tree = ast.parse("a = rng.gen.bit_generator\nb = bit_generator\n"
                     "rng.bit_generator.state = s\n")
    assert _bit_generator_reads(tree) == [1, 3]


def test_only_streams_reads_bit_generator():
    """A stream's generator state is streams' own: no other module saves,
    rewinds or jumps it."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "streams.py"
             for line in _bit_generator_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, ".bit_generator read at: " + ", ".join(found)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree: ast.AST) -> collections.Counter:
    """How often tree reads each identifier: as a name, an attribute, an
    imported name, or a word of a string that is not a docstring."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFS)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _unread_definitions(trees: dict, modules: list) -> list:
    """The module-level functions and classes of modules that nothing in
    trees (module name -> parsed source) reads outside their own body."""
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return sorted(f"{mod}.{node.name}" for mod in modules for node in trees[mod].body
                  if isinstance(node, _DEFS)
                  and reads[node.name] == _reads(node)[node.name])


def test_scan_flags_a_definition_only_its_own_body_reads():
    lib = ast.parse('"""Names documented."""\n'
                    "def by_name(): pass\ndef by_attr(): pass\n"
                    "def by_import(): pass\ndef by_string(): pass\n"
                    "def recursive(n): return recursive(n - 1)\n"
                    "def documented(): pass\nclass Unread: pass\nx = by_name\n")
    user = ast.parse("import lib\nfrom lib import by_import\nlib.by_attr()\n"
                     "span = 'lib.by_string'\n")
    assert _unread_definitions({"lib": lib, "user": user}, ["lib"]) == [
        "lib.Unread", "lib.documented", "lib.recursive"]


def _unread_constants(trees: dict, modules: list) -> list:
    """The names that module-level assignments in modules bind and nothing
    in trees reads outside their own assignment."""
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return sorted(f"{mod}.{node.id}" for mod in modules for stmt in trees[mod].body
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for target in (stmt.targets if isinstance(stmt, ast.Assign)
                                 else [stmt.target])
                  for node in ast.walk(target)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and reads[node.id] == _reads(stmt)[node.id])


def test_scan_flags_a_constant_only_its_own_assignment_reads():
    lib = ast.parse('"""UNREAD and PAIR are documented."""\n'
                    "BY_NAME = 1\nBY_ATTR = 2\nBY_IMPORT = 3\nBY_STRING = 4\n"
                    "RECURSIVE = lambda n: RECURSIVE(n - 1)\nUNREAD = 5\n"
                    "PAIR, READ_PART = 6, 7\nANNOTATED: int = 8\n"
                    "TABLE = {}\nTABLE[READ_PART] = BY_NAME\n")
    user = ast.parse("import lib\nfrom lib import BY_IMPORT\nlib.BY_ATTR\n"
                     "span = 'lib.BY_STRING'\n")
    assert _unread_constants({"lib": lib, "user": user}, ["lib"]) == [
        "lib.ANNOTATED", "lib.PAIR", "lib.RECURSIVE", "lib.UNREAD"]


def _unread_methods(trees: dict, modules: list) -> list:
    """The methods, but dunders, of the module-level classes of modules that
    nothing in trees reads outside their own body."""
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return sorted(f"{mod}.{cls.name}.{fn.name}" for mod in modules
                  for cls in trees[mod].body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and reads[fn.name] == _reads(fn)[fn.name])


def test_scan_flags_a_method_only_its_own_body_reads():
    lib = ast.parse('"""A documented method."""\n'
                    "class C:\n"
                    "    def __init__(self): self.by_self()\n"
                    "    def by_self(self): pass\n"
                    "    def by_attr(self): pass\n"
                    "    def by_string(self): pass\n"
                    "    @property\n"
                    "    def by_property(self): pass\n"
                    "    def recursive(self): return self.recursive()\n"
                    "    def documented(self): pass\n"
                    "    def __unread__(self): pass\n"
                    "    def nested(self):\n"
                    "        def inner(): pass\n"
                    "        return inner\n"
                    "def outer():\n"
                    "    class Local:\n"
                    "        def local(self): pass\n"
                    "    return Local\n")
    user = ast.parse("import lib\nlib.C().by_attr()\nlib.C().by_property\n"
                     "span = 'C.by_string'\nlib.C().nested()\nlib.outer()\n")
    assert _unread_methods({"lib": lib, "user": user}, ["lib"]) == [
        "lib.C.documented", "lib.C.recursive"]


# library code that only tests read, kept because it is the reference
# implementation of a paper claim that an acceptance criterion checks
ONLY_TESTS_READ = {
    "attack.bad_query_probe": "criterion 8: the test phase leaves few bad "
                              "queries, measured one verification at a time",
    "attack.simulation_gap_probe": "criterion 9: the simulated verifier's "
                                   "acceptance gap decays with t_max",
    "jordan.JordanDecomposition.kernel_dim": "criterion 1: the Jordan blocks "
                                             "and the joint kernel span the space",
}


def test_src_holds_no_code_only_tests_read():
    """Every module-level function, class and assigned name in src/qmsep,
    and every method but a dunder of its module-level classes, is read
    somewhere in src/qmsep or perfbench/ besides its own definition or
    assignment, but for the paper-claim references in ONLY_TESTS_READ."""
    paths = {p.stem: p for p in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(p.read_text(encoding="utf-8")) for name, p in paths.items()}
    trees.update({f"perfbench/{p.stem}": ast.parse(p.read_text(encoding="utf-8"))
                  for p in sorted(PERFBENCH.glob("*.py"))})
    found = sorted(_unread_definitions(trees, list(paths))
                   + _unread_constants(trees, list(paths))
                   + _unread_methods(trees, list(paths)))
    assert found == sorted(ONLY_TESTS_READ), (
        "read only by its own definition or by tests: "
        + ", ".join(sorted(set(found) - set(ONLY_TESTS_READ)))
        + "; allowed but now read: "
        + ", ".join(sorted(set(ONLY_TESTS_READ) - set(found))))


def test_benchmark_spans_resolve_and_restore():
    """Every name perfbench/tracer.py spans exists, and uninstall puts back
    every module attribute and class method that install replaced."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    mods = {m: importlib.import_module(f"qmsep.{m}") for m in tracer.MODULES}
    spaces = [mods[layer] if owner is None else getattr(mods[layer], owner, object)
              for layer, owner, *_ in tracer._OWNER_SPANS]
    missing = [span for ns, (*_, attr, span) in zip(spaces, tracer._OWNER_SPANS)
               if attr not in vars(ns)]
    assert not missing, "spanned names not found: " + ", ".join(missing)
    before = [(ns, dict(vars(ns))) for ns in {*mods.values(), *spaces}]
    t = tracer.Tracer()
    try:
        t.install()
        assert any(vars(ns)[k] is not v for ns, snap in before for k, v in snap.items())
    finally:
        t.uninstall()
    changed = [f"{getattr(ns, '__name__', ns)}.{k}" for ns, snap in before
               for k, v in snap.items() if vars(ns).get(k) is not v]
    assert not changed, "not restored: " + ", ".join(changed)


def test_every_cli_flag_is_a_config_key():
    """Each subcommand's flags, but --config and --out, are exactly the keys
    of the option table its command reads, so every flag has an effect."""
    tables = {"synth": harness.SYNTH_OPTIONS, "attack": harness.ATTACK_OPTIONS,
              "oracle-check": harness.ORACLE_OPTIONS}
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert set(sub.choices) == set(tables)
    for command, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help", "config", "out"}
        assert dests == set(tables[command]), command


def test_scheme_classes_are_tag_templates():
    """A scheme class holds its tag template and no layout of its own:
    MoneyScheme derives widths, checks and positions from tags(m).  mint,
    verify and sim_verifier are bound in each class body only because
    perfbench/tracer.py spans a scheme class's own methods."""
    allowed = {"tags", "quantum_mint", "mint", "verify", "sim_verifier"}
    for name, cls in money.SCHEMES.items():
        own = {k for k in vars(cls) if not (k.startswith("__") and k.endswith("__"))}
        assert own <= allowed, f"{name} defines {sorted(own - allowed)}"
