"""The package's export list names real objects, each once, and each module
imports a name from the module that defines it."""

import ast
import collections
import dataclasses
from pathlib import Path

import pbrlab

PACKAGE_DIR = Path(pbrlab.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in pbrlab.__all__ if not hasattr(pbrlab, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    repeated = [name for name, n in collections.Counter(pbrlab.__all__).items() if n > 1]
    assert repeated == []


def test_star_import_succeeds():
    namespace = {}
    exec("from pbrlab import *", namespace)
    assert set(pbrlab.__all__) <= namespace.keys()


def test_dir_lists_every_exported_name():
    assert set(pbrlab.__all__) <= set(dir(pbrlab))


def test_results_hold_only_what_they_computed():
    # The caller's inputs (seed, noise, policy; theta, solver) are the caller's to echo.
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(pbrlab.TallyTable) == ("instance", "counts")
    assert names(pbrlab.SolverResult) == ("couplings", "alpha", "residual")


#: Relatively imported names that their module binds but never reads.
UNREAD_IMPORTS = {("protocol", "run_uniforms")}  # perfbench's tracer test reads this binding


def _package_sources() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE_DIR.glob("*.py")}


def _defined(tree: ast.Module) -> set[str]:
    """Names a module defines at its top level: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _relative_imports(tree: ast.Module):
    """(module, name) of each ``from .module import name`` anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_each_relative_import_names_its_home_module():
    sources = _package_sources()
    defined = {module: _defined(tree) for module, tree in sources.items()}
    strays = [
        f"{importer}: from .{module} import {name}"
        for importer, tree in sources.items()
        for module, name in _relative_imports(tree)
        if name not in defined[module]
    ]
    assert strays == []


def test_each_relative_import_is_read():
    unread = set()
    for importer, tree in _package_sources().items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread |= {(importer, name) for _, name in _relative_imports(tree) if name not in read}
    assert unread == UNREAD_IMPORTS


def _imports(node: ast.AST, package: str) -> bool:
    """Whether ``node`` is an absolute import of ``package`` or of one of its submodules."""
    return (
        isinstance(node, ast.Import) and any(alias.name.split(".")[0] == package for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == package
    )


def _imports_json(tree: ast.Module) -> bool:
    return any(_imports(node, "json") for node in ast.walk(tree))


def test_cli_is_the_one_json_renderer():
    """Only cli.py shapes JSON documents and CSV tables: no other module defines
    ``to_json`` or ``to_csv_rows``, or imports json."""
    sources = _package_sources()
    renderers = sorted(
        f"{module}.py:{node.lineno}"
        for module, tree in sources.items()
        if module != "cli"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("to_json", "to_csv_rows")
    )
    assert renderers == []
    assert sorted(module for module, tree in sources.items() if _imports_json(tree)) == ["cli"]


#: Where the package imports numpy: each function by its dotted name, and the
#: ``TYPE_CHECKING`` blocks that name ``np.ndarray`` in annotations.
NUMPY_IMPORTS = [
    "hamiltonian TYPE_CHECKING",
    "hamiltonian.numeric_spectrum",
    "hamiltonian.pair_spectra",
    "protocol TYPE_CHECKING",
    "protocol.ProtocolInstance.born_matrix",
    "protocol._tally_chunk",
    "protocol.hamiltonian_stack",
    "protocol.numeric_pairing",
    "rng TYPE_CHECKING",
    "rng.mix_head",
    "rng.mix_tail",
    "rng.run_uniforms",
    "rng.state_steps",
]


def _numpy_imports(scope: str, node: ast.AST):
    """The scope of each numpy import under ``node``: a dotted function name, a module, or a TYPE_CHECKING block."""
    for child in ast.iter_child_nodes(node):
        if _imports(child, "numpy"):
            yield scope
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _numpy_imports(f"{scope}.{child.name}", child)
        elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
            yield from _numpy_imports(f"{scope} TYPE_CHECKING", child)
        else:
            yield from _numpy_imports(scope, child)


def test_numpy_is_imported_only_where_arrays_are_built_or_taken():
    """The list shrinks as plain Python takes over the work outside the simulator (ROADMAP item 12)."""
    found = sorted(scope for module, tree in _package_sources().items() for scope in _numpy_imports(module, tree))
    assert found == NUMPY_IMPORTS


def test_no_module_calls_run_uniforms():
    """The package reads single draws through the scalar ``rng.uniform``; ``run_uniforms``
    stays only for the benchmark, until its rewrite (ROADMAP items 4 and 12)."""
    calls = sorted(
        f"{module}.py:{node.lineno}"
        for module, tree in _package_sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "run_uniforms" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert calls == []


def test_params_is_the_one_writer_of_the_degeneracy_message():
    """Only params.py holds the text ``degenerate spectrum``, in a string or an f-string part."""
    writers = sorted(
        f"{module}.py:{node.lineno}"
        for module, tree in _package_sources().items()
        if module != "params"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "degenerate spectrum" in node.value
    )
    assert writers == []


def test_cli_raises_validation_errors_only_for_its_own_shapes():
    """cli.py parses, calls and renders; the library checks the values it is given.

    Three functions own a CLI shape and raise ``ValidationError`` for it:
    ``_config_flags`` the config file, ``_couplings`` all-or-none couplings,
    ``main`` the ``--config`` spelling.  A tolerance or a sweep size is the
    library's to check."""
    raisers = sorted(
        node.name
        for node in _package_sources()["cli"].body
        if isinstance(node, ast.FunctionDef)
        for raised in ast.walk(node)
        if isinstance(raised, ast.Raise)
        and any(isinstance(n, ast.Name) and n.id == "ValidationError" for n in ast.walk(raised))
    )
    assert sorted(set(raisers)) == ["_config_flags", "_couplings", "main"]


def _numbers(tree: ast.Module):
    """(line, value) of each number that literals and operators alone make, such as 1 << 53."""

    def literal(node):
        return all(
            isinstance(n, (ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
            or isinstance(n, ast.Constant) and type(n.value) in (int, float)
            for n in ast.walk(node)
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.Constant, ast.BinOp, ast.UnaryOp)) and literal(node):
            yield node.lineno, eval(compile(ast.Expression(node), "<literal>", "eval"))


def _assert_rng_alone_holds(values: set) -> None:
    """No package module but rng.py holds any of ``values``, and rng.py holds them all."""
    sources = _package_sources()
    copies = sorted(
        f"{module}.py:{line}"
        for module, tree in sources.items()
        if module != "rng"
        for line, value in _numbers(tree)
        if value in values
    )
    assert copies == []
    assert {value for _, value in _numbers(sources["rng"])} >= values


#: splitmix64's Weyl increment γ and the two multipliers of its mix.
SPLITMIX64_CONSTANTS = {0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB}

#: The uniform's 53-bit scale: u = (z >> 11)·2^-53.
UNIFORM_SCALES = {2**53, 2.0**-53}


def test_rng_is_the_one_owner_of_the_splitmix64_constants():
    """Only rng.py holds γ or either mix multiplier as a literal; other modules use its pieces."""
    _assert_rng_alone_holds(SPLITMIX64_CONSTANTS)


def test_rng_is_the_one_owner_of_the_uniform_scale():
    """Only rng.py holds 2^53 or 2^-53, as 1 << 53, 2**53, 2.0**-53 or a plain literal;
    other modules turn a uniform into a word threshold with ``rng.least_word``."""
    _assert_rng_alone_holds(UNIFORM_SCALES)


def test_rng_is_the_one_owner_of_the_uniform_shift():
    """Only rng.py holds 11, the low bits a word's uniform drops, which make each
    ``rng.least_word`` a multiple of 2^11; the tally kernel keys words and
    thresholds with ``rng.UNIFORM_SHIFT``."""
    from pbrlab import rng

    assert rng.UNIFORM_SHIFT == 11
    _assert_rng_alone_holds({rng.UNIFORM_SHIFT})
