"""Import hygiene: every module uses each name it imports, every private
module-level name has a use, `import dynid` loads no submodule, the
runtime is numpy alone, and commands that need no random draw load no
numpy.random.

The load checks run in a fresh interpreter, since this test process has
long since imported numpy.random through other tests.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import dynid
from dynid.dataio import ur10_default_model, write_robot_model, write_samples
from dynid.solver import save_identified_model

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dynid.__file__)))


def _run(code: str, cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) and never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_src_modules_use_every_import():
    unused = {path.name: found
              for path in sorted(pathlib.Path(dynid.__file__).parent
                                 .glob("*.py"))
              if (found := _unused_imports(path.read_text()))}
    assert unused == {}


def _defined_private(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions, classes and constants of a module."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node]
        elif isinstance(node, ast.Assign):
            targets = [t for tgt in node.targets for t in ast.walk(tgt)
                       if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            name = getattr(t, "name", None) or t.id
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def test_src_private_names_have_a_use():
    # a private helper left behind by deleted code is dead code; a use is
    # a read of the name, an attribute of that name, or an import of it
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(dynid.__file__).parent
                                .glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    orphans = [f"{module} line {line}: {name}"
               for module, tree in trees.items()
               for name, line in _defined_private(tree).items()
               if name not in used]
    assert orphans == []


def test_runtime_is_numpy_only():
    # no package module imports scipy, and numpy is the one runtime
    # dependency the project declares
    package = pathlib.Path(dynid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name} line {node.lineno}: {name}"
                      for name in names if name.split(".")[0] == "scipy"]
    assert found == []
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]


def test_import_dynid_loads_no_submodule(tmp_path):
    # names are imported from their modules; the package re-exports none,
    # so importing it pulls in neither the CLI nor the file readers
    code = """
import sys, json, dynid
print(json.dumps(sorted(m for m in sys.modules if m.startswith("dynid.")
                        or m in ("argparse", "configparser"))))
"""
    assert _run(code, tmp_path) == []


def test_import_builds_no_chain_constants(tmp_path):
    # the per-chain DH constants are built on a chain's first pass, never
    # while the package's modules load
    code = """
import json, pkgutil, sys
import dynid
built = []
sys.setprofile(lambda frame, event, arg: built.append(1) if event == "call"
               and frame.f_code.co_name == "_dh_constants" else None)
for mod in pkgutil.iter_modules(dynid.__path__):
    if mod.name != "__main__":
        __import__("dynid." + mod.name)
sys.setprofile(None)
print(json.dumps(len(built)))
"""
    assert _run(code, tmp_path) == 0


def test_import_starts_no_thread(tmp_path):
    # the pass's helper threads are started by a call and joined before it
    # returns; loading the package's modules starts none
    code = """
import json, pkgutil, threading
import dynid
for mod in pkgutil.iter_modules(dynid.__path__):
    if mod.name != "__main__":
        __import__("dynid." + mod.name)
print(json.dumps([t.name for t in threading.enumerate()]))
"""
    assert _run(code, tmp_path) == ["MainThread"]


def test_noiseless_simulate_loads_no_numpy_random(data_a, tmp_path):
    # the noise generator is made only for a positive noise std, so a
    # noiseless run does not import numpy.random
    write_robot_model(ur10_default_model(), tmp_path / "robot.ini")
    write_samples(data_a, tmp_path / "traj.csv")
    code = """
import sys, json
import dynid.cli
rc = dynid.cli.main(["simulate", "--robot", "robot.ini", "--traj",
                     "traj.csv", "--seed", "3", "--out", "run.csv"])
assert rc == 0, rc
print(json.dumps("numpy.random" in sys.modules))
"""
    assert _run(code, tmp_path) is False
    assert (tmp_path / "run.csv").exists()


def test_model_load_and_validate_load_no_numpy_random(ident_true, data_a,
                                                     tmp_path):
    # the base map that loading rebuilds probes a low-discrepancy
    # sequence, so neither the load nor validate imports numpy.random
    save_identified_model(ident_true, tmp_path / "model.ini")
    write_samples(data_a, tmp_path / "run.csv")
    code = """
import sys, json
import dynid.cli
from dynid.solver import load_identified_model
load_identified_model("model.ini")
loaded = "numpy.random" in sys.modules
rc = dynid.cli.main(["validate", "--model", "model.ini", "--samples",
                     "run.csv", "--report", "report.csv"])
assert rc == 0, rc
print(json.dumps([loaded, "numpy.random" in sys.modules]))
"""
    assert _run(code, tmp_path) == [False, False]
    assert (tmp_path / "report.csv").exists()
