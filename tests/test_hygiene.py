"""Source hygiene checks over src/qmsep."""

import ast
import importlib
import pathlib
import sys

from qmsep import cli, harness, money

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qmsep"


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
