"""Reach gate: every def in src/fdrelay runs under some CLI command, or is on
ALLOWLIST with the reason it stays.

COMMANDS is a fixed list of `fdrelay` argument lists. A fresh interpreter
imports fdrelay and runs each of them in process through `fdrelay.cli.main`,
under sys.settrace and threading.settrace, and reports the code objects it
entered. A fresh interpreter, because the suite has long since imported
fdrelay and filled its caches, so that the defs run at import or on a
table's first use would not run again here. The gate fails when

- a def is neither reached nor allowlisted,
- an allowlisted def is reached (its entry is stale), or
- an allowlisted def no longer exists, or
- an allowlist reason cites "acceptance criterion NN" and test_criterion_NN_*
  does not name the def.

A def that no command needs should go. To keep code that only a test, the
benchmark or an outside caller runs, add its `module:qualname` to ALLOWLIST
with a one-line reason; to show that a command runs it, add the command to
COMMANDS.

Run as a script for the report: the unreached defs, the allowlist with its
reasons, each module's public names (its __all__) with their count, and the
lines of each module of src/fdrelay. It exits 1 when the gate fails, as
tests/golden.py does:

    python tests/test_reach.py

With --statements it runs the tier-1 suite in process under a line tracer
(sys.settrace and threading.settrace; about two minutes) and prints each statement
of src/fdrelay that no test executes, for want of a coverage package.
Statements that run only in a test's subprocess count as not executed:

    python tests/test_reach.py --statements
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import types
import typing
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "fdrelay"
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")

# inputs past the float range that end in one error line; test_cli's
# test_out_of_float_range_is_one_error_line runs each
FLOAT_RANGE_ARGVS = [
    ["ser", "--sum-distance", "1e-300"],
    ["outage", "--sum-distance", "1e300"],
    ["optimize-power", "--pathloss-exp", "1e300"],
    ["ser", "--p-db=-100", "--pathloss-exp", "300", "--sum-distance", "10",
     "--rho-d", "0.01", "--rsi-level", "0"],
    ["optimize-power", "--pathloss-exp=327.79", "--sum-distance=9.603",
     "--rsi-level=236.8", "--p-db=-73.03", "--rho-d=0.0595", "--rho-lambda=0.581"],
    ["ser", "--p-db", "0", "--pathloss-exp", "238.1", "--rsi-level", "1e185",
     "--rho-d", "0.9375"],
    # D^v overflows in the optimizers' residual (f_gradient) and in the
    # power-optimized SER of figure 7
    ["optimize-power", "--pathloss-exp", "1000", "--sum-distance", "2.0465", "--p-db", "0"],
    ["optimize-location", "--pathloss-exp", "1000", "--sum-distance", "2.0465", "--p-db", "0"],
    ["optimize-joint", "--pathloss-exp", "1000", "--sum-distance", "2.0465", "--p-db", "0"],
    ["figure", "7", "--pathloss-exp", "1000", "--sum-distance", "2.0465"],
]

# inputs past the float range where the outage is a value, with the exact
# CDF's 40-digit kernel integral: test_cli's
# test_out_of_float_range_outage_is_a_value runs each
FLOAT_RANGE_OUTAGE_ARGVS = [
    (["outage", "--threshold", "1e-180", "--rsi-level", "1e175"], 1.3093939677673356382e-6),
    (["outage", "--threshold", "1e-201", "--p-db=-2990"], 1.0),
]


def traceback_argv(command, p_db, log_d, log_v, eps, rho_lambda, rho_d):
    """The argv of test_cli's test_accepted_inputs_exit_without_a_traceback
    for one drawn input."""
    return [*command.split(), f"--p-db={p_db!r}", "--sum-distance", repr(10.0 ** log_d),
            "--pathloss-exp", repr(1.0 + 10.0 ** log_v), "--rsi-level", repr(eps),
            "--rho-lambda", repr(rho_lambda), "--rho-d", repr(rho_d)]


# the explicit examples of that test, and of the ser_series and minimize_1d
# properties on the same domain, inputs that its drawn examples do not reach:
# the series' (1/sqrt(l_sr) + 1/sqrt(l_rd))^2 overflows at a subnormal l_rd
# (the first two), and D^v overflows at D = 2.0465, v = 1000 in f_gradient
# and in ser_power_optimized (the last two)
TRACEBACK_EXAMPLES = [
    ("ser", -100.0, 1.0, 2.4756711883244296, 0.0, 0.5, 0.01),
    ("optimize-power", -73.03, 0.9824069288637948, 2.5142687583522174, 236.8, 0.581, 0.0595),
    ("optimize-power", 0.0, 0.31101174898128836, 2.9995654882259823, 0.1, 0.5, 0.5),
    ("figure 7", 0.0, 0.31101174898128836, 2.9995654882259823, 0.1, 0.5, 0.5),
]

_MC = ["--mode", "both", "--mc-samples", "20000"]
_SWEEP = ["--p-db", "0:40:10"]

# {config} and {bad_config} stand for a valid and an invalid config file
COMMANDS = [
    *(["figure", str(n)] for n in range(2, 10)),
    *(["figure", str(n), *_MC, "--workers", "2"] for n in (2, 3)),
    *([command, *_SWEEP, *mc] for command in ("ser", "outage") for mc in ([], _MC)),
    ["ser", *_SWEEP, "--modulation", "qpsk", *_MC],
    *([command, *eps] for command in ("optimize-location", "optimize-power", "optimize-joint")
      for eps in ([], ["--rsi-level", "0"])),
    ["validate", "--mc-samples", "20000"],
    ["ser", "--config", "{config}"],
    ["ser", "--config", "{bad_config}"],
    ["frobnicate"],
    ["ser", "--p-db", "nonsense"],
    *FLOAT_RANGE_ARGVS,
    *(argv for argv, _ in FLOAT_RANGE_OUTAGE_ARGVS),
    *(traceback_argv(*example) for example in TRACEBACK_EXAMPLES),
]

# module:qualname -> why the def stays although no command reaches it
ALLOWLIST = {
    "model:SystemConfig.bpsk": "acceptance criterion 08 builds its scenarios with it",
    "model:SystemConfig.is_bpsk": "the symbol-level estimator's BPSK check",
    "mc:draw_gammas": "the symbol-level estimator draws its fades with it",
    "mc:estimate_ser_symbol_level": "perfbench runs it and requires "
                                    "mc.draw_gammas.samples_per_s (ROADMAP item 6)",
    "mc:estimate_ser_symbol_level.<locals>.task": "the symbol-level estimator's share",
    "model:_restore": "pickle and copy of the value types (tests/test_value_types.py)",
    "model:_Record.__eq__": "value-type equality (tests/test_value_types.py)",
    "model:_Record.__hash__": "value-type hashing (tests/test_value_types.py)",
    "model:_Record.__repr__": "value-type repr (tests/test_value_types.py)",
    "model:_Record.__setattr__": "value types reject assignment (tests/test_value_types.py)",
    "model:_Record.__delattr__": "value types reject deletion (tests/test_value_types.py)",
    "model:_Record.__reduce__": "pickle and copy of the value types "
                                "(tests/test_value_types.py)",
    "model:_Record._key": "value-type equality and hashing (tests/test_value_types.py)",
    "errors:QuadratureError.__init__": "runs only when an integral misses its tolerance",
    "cli:entrypoint": "the console_scripts hook in pyproject.toml",
}


def defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> 'module:qualname' of every def in src/fdrelay;
    the first line is the first decorator's, as a code object counts it."""
    out = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(path, line)] = f"{module}:{qualname}"
                visit(child, module, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "", str(path))
    return out


def trace_commands() -> set[tuple[str, int]]:
    """Import fdrelay.cli and run every command through cli.main in this
    process, under a tracer on this and every new thread; returns the (file,
    first line) of each code object entered under src/fdrelay. Any tracer
    already set is put back."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, text in (("config", "total_power_db = 10\nrsi_level = 0.05\n"),
                           ("bad_config", "nope = 1\n")):
            files[name] = os.path.join(tmp, name + ".cfg")
            Path(files[name]).write_text(text)
        old, old_threading = sys.gettrace(), threading.gettrace()
        sys.settrace(tracer)
        threading.settrace(tracer)
        try:
            from fdrelay.cli import main

            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                for argv in COMMANDS:
                    main([arg.format(**files) for arg in argv])
        finally:
            sys.settrace(old)
            threading.settrace(old_threading)
    root = str(PACKAGE)
    return {(code.co_filename, code.co_firstlineno) for code in entered
            if code.co_filename.startswith(root)}


def reached() -> set[tuple[str, int]]:
    """trace_commands() run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, "--trace"], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"tracing the commands failed:\n{proc.stderr}")
    return {tuple(site) for site in json.loads(proc.stdout)}


def gate(all_defs: dict, entered: set, allowlist) -> dict[str, list[str]]:
    """What fails the gate, by kind: defs neither reached nor allowlisted
    ('unreached', with their line), allowlisted defs that a command reaches
    ('reached') and allowlist entries that name no def ('missing')."""
    reached_keys = {all_defs[site] for site in entered if site in all_defs}
    return {
        "unreached": [f"{key} (line {site[1]})" for site, key in sorted(all_defs.items())
                      if site not in entered and key not in allowlist],
        "reached": sorted(key for key in allowlist if key in reached_keys),
        "missing": sorted(key for key in allowlist if key not in all_defs.values()),
    }


def criterion_names(path: Path = ACCEPTANCE) -> dict[str, set[str]]:
    """Criterion number ('08') -> the names and attributes that its
    test_criterion_NN_* uses, read with ast from the source of `path`."""
    out = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        match = re.fullmatch(r"test_criterion_(\d+)_\w*", getattr(node, "name", ""))
        if match:
            out[match[1]] = {n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
    return out


def miscited(allowlist, criteria: dict[str, set[str]]) -> list[str]:
    """Allowlist entries whose reason cites "acceptance criterion NN" while
    test_criterion_NN_* does not name the def (the last part of its qualname)."""
    return sorted(key for key, reason in allowlist.items()
                  for nn in re.findall(r"acceptance criterion (\d+)", reason)
                  if key.split(":")[1].rsplit(".", 1)[-1] not in criteria.get(nn, ()))


def public_names() -> dict[str, list[str]]:
    """Module -> its __all__, for each module of src/fdrelay that lists it
    name by name (the package's __all__ joins theirs), read with ast."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                    and all(isinstance(e, ast.Constant) for e in node.value.elts)):
                out[path.stem] = [e.value for e in node.value.elts]
    return out


def statement_lines() -> dict[tuple[str, int], set[int]]:
    """(file, first line) of each statement in src/fdrelay that runs code ->
    its own lines: its decorators and its span less those of the statements
    nested in it. A constant expression (a docstring), global and nonlocal
    compile to nothing and are left out."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                    or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            own = set(range(first, node.end_lineno + 1))
            for child in ast.walk(node):
                if child is not node and isinstance(child, ast.stmt):
                    own -= set(range(child.lineno, child.end_lineno + 1))
            out[(str(path), first)] = own
    return out


def trace_tests() -> tuple[int, set[tuple[str, int]]]:
    """Run the tier-1 suite in this process under a line tracer on this and
    every new thread; returns pytest's exit status and the (file, line) of
    each line executed under src/fdrelay."""
    root = str(PACKAGE)
    executed = set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def tracer(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def unexecuted_statements() -> int:
    """Print each statement of src/fdrelay that no tier-1 test executes;
    exits 1 when the suite fails, since its list would then be incomplete."""
    status, executed = trace_tests()
    missed = [(path, first) for (path, first), own in sorted(statement_lines().items())
              if not any((path, line) in executed for line in own)]
    print(f"statements no test executes: {len(missed)}")
    for path, first in missed:
        text = Path(path).read_text().splitlines()[first - 1].strip()
        print(f"  {Path(path).name}:{first}: {text}")
    return 1 if status else 0


@pytest.fixture(scope="module")
def failures() -> dict[str, list[str]]:
    return gate(defs(), reached(), ALLOWLIST)


def test_every_def_is_reached_or_allowlisted(failures):
    assert failures["unreached"] == []


def test_no_allowlisted_def_is_reached(failures):
    assert failures["reached"] == []


def test_every_allowlisted_def_exists(failures):
    assert failures["missing"] == []


def test_gate_reports_each_kind():
    # "a:f" reached, "a:g" planted and unreached, "a:h" allowlisted and
    # unreached, and "a:gone" allowlisted but no def
    all_defs = {("a.py", 1): "a:f", ("a.py", 5): "a:g", ("a.py", 9): "a:h"}
    entered = {("a.py", 1), ("b.py", 3)}
    assert gate(all_defs, entered, {"a:h": "", "a:g": ""}) == {
        "unreached": [], "reached": [], "missing": []}
    assert gate(all_defs, entered, {"a:h": "", "a:f": "", "a:gone": ""}) == {
        "unreached": ["a:g (line 5)"], "reached": ["a:f"], "missing": ["a:gone"]}


def test_allowlist_citations_name_the_def():
    assert miscited(ALLOWLIST, criterion_names()) == []


def test_miscited_reports_a_false_citation():
    # criterion 04 uses f and b.g; "a:h" is not named there, and "a:k" cites
    # a criterion that has no test
    criteria = {"04": {"f", "b", "g"}}
    assert miscited({"a:f": "acceptance criterion 04 checks it",
                     "a:C.g": "acceptance criterion 04(a)",
                     "a:h": "criterion 04 names no def here"}, criteria) == []
    assert miscited({"a:h": "acceptance criterion 04 checks it",
                     "a:k": "acceptance criterion 12"}, criteria) == ["a:h", "a:k"]


def unresolved_annotations() -> list[str]:
    """'module:def, line N (error)' for each def in src/fdrelay whose annotations
    typing.get_type_hints cannot resolve in its module's namespace, as it
    would resolve the def's own __annotations__. Read with ast, so that
    nested defs count too."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        namespace = vars(importlib.import_module(f"fdrelay.{path.stem}".removesuffix(".__init__")))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                hints = {arg.arg: ast.unparse(arg.annotation)
                         for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                         if arg and arg.annotation}
                if node.returns:
                    hints["return"] = ast.unparse(node.returns)
                try:
                    typing.get_type_hints(types.SimpleNamespace(__annotations__=hints),
                                          namespace)
                except Exception as exc:
                    out.append(f"{path.stem}:{node.name}, line {node.lineno} ({exc!r})")
    return out


def test_every_annotation_resolves():
    assert unresolved_annotations() == []


def test_package_lists_each_module_list_once():
    # the package's __all__ is the error names, then each module's __all__
    # in import order, then __version__; each name resolves on the package
    import fdrelay
    from fdrelay import analytic, mc, model, opt

    want = ["DomainError", "NonConvergenceError", "QuadratureError",
            "UnsupportedModulationError", *model.__all__, *analytic.__all__, *mc.__all__,
            *opt.__all__, "__version__"]
    assert fdrelay.__all__ == want
    assert len(want) == len(set(want)) == 40
    assert all(hasattr(fdrelay, name) for name in want)


def main() -> int:
    all_defs = defs()
    entered = reached()
    print("unreached defs:")
    for site, key in sorted(all_defs.items(), key=lambda item: item[1]):
        if site not in entered:
            print(f"  {key}")
    print("allowlist:")
    for key, reason in sorted(ALLOWLIST.items()):
        print(f"  {key}: {reason}")
    print("public names:")
    for module, names in public_names().items():
        print(f"  {module} ({len(names)}): {', '.join(names)}")
    print("src lines:")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        print(f"  {lines:5d} {path.name}")
    print(f"  {total:5d} total")
    failed = False
    kinds = dict(gate(all_defs, entered, ALLOWLIST),
                 miscited=miscited(ALLOWLIST, criterion_names()))
    for kind, keys in kinds.items():
        for key in keys:
            print(f"FAIL {kind}: {key}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--trace"]:
        print(json.dumps(sorted(trace_commands())))
    elif sys.argv[1:] == ["--statements"]:
        sys.exit(unexecuted_statements())
    else:
        sys.exit(main())
