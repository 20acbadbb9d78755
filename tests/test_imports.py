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

import numpy as np

import dynid
from dynid.dataio import (ur10_default_model, write_payload,
                          write_robot_model, write_samples)
from dynid.payload import PayloadSpec
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


_SCIPY_LOADED = ("json.dumps(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")


def test_import_dynid_loads_no_scipy(tmp_path):
    loaded = _run(f"import sys, json, dynid; print({_SCIPY_LOADED})",
                  tmp_path)
    assert loaded == []


def test_import_dynid_loads_no_submodule(tmp_path):
    # names are imported from their modules; the package re-exports none,
    # so importing it pulls in neither the CLI nor the file readers
    code = """
import sys, json, dynid
print(json.dumps(sorted(m for m in sys.modules if m.startswith("dynid.")
                        or m in ("argparse", "configparser"))))
"""
    assert _run(code, tmp_path) == []


def test_traj_gen_loads_no_scipy(tmp_path):
    code = f"""
import sys, json
from dynid.dataio import ur10_default_model, write_robot_model
import dynid.cli
write_robot_model(ur10_default_model(), "robot.ini")
rc = dynid.cli.main(["traj", "gen", "--robot", "robot.ini", "--seed", "3",
                     "--duration", "2", "--out", "traj.csv"])
assert rc == 0, rc
print({_SCIPY_LOADED})
"""
    assert _run(code, tmp_path) == []
    assert (tmp_path / "traj.csv").exists()


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


def test_solve_and_validate_load_no_scipy(ident_true, data_a, tmp_path):
    # loading rebuilds the base map from the chain with numpy alone, so
    # solve and validate stay free of scipy
    save_identified_model(ident_true, tmp_path / "model.ini")
    write_samples(data_a, tmp_path / "run.csv")
    code = f"""
import sys, json
import dynid.cli
for argv in (["solve", "--model", "model.ini", "--traj", "run.csv",
              "--out", "tau.csv"],
             ["validate", "--model", "model.ini", "--samples", "run.csv",
              "--report", "report.csv"]):
    rc = dynid.cli.main(argv)
    assert rc == 0, (argv, rc)
print({_SCIPY_LOADED})
"""
    assert _run(code, tmp_path) == []
    assert (tmp_path / "tau.csv").exists()
    assert (tmp_path / "report.csv").exists()


def test_identify_friction_loads_no_scipy(ident_true, data_a, tmp_path):
    # stage 2 fits a sigmoid by its own Levenberg-Marquardt loop and the
    # model load rebuilds the base map with numpy; neither needs scipy
    save_identified_model(ident_true, tmp_path / "model.ini")
    write_samples(data_a, tmp_path / "run.csv")
    code = f"""
import sys, json
import dynid.cli
rc = dynid.cli.main(["identify", "friction", "--model", "model.ini",
                     "--samples", "run.csv", "--out", "fitted.ini"])
assert rc == 0, rc
print({_SCIPY_LOADED})
"""
    assert _run(code, tmp_path) == []
    assert (tmp_path / "fitted.ini").exists()


def test_identify_linear_loads_no_scipy(data_a, tmp_path):
    # the base map is one numpy QR per matrix
    write_robot_model(ur10_default_model(), tmp_path / "robot.ini")
    write_samples(data_a, tmp_path / "run.csv")
    code = f"""
import sys, json
import dynid.cli
rc = dynid.cli.main(["identify", "linear", "--robot", "robot.ini",
                     "--samples", "run.csv", "--out", "model.ini"])
assert rc == 0, rc
print({_SCIPY_LOADED})
"""
    assert _run(code, tmp_path) == []
    assert (tmp_path / "model.ini").exists()


def test_identify_gains_loads_no_scipy(ident_true, data_a, data_b_pay,
                                       tmp_path):
    # each joint's gain system is split by the same numpy QR
    save_identified_model(ident_true, tmp_path / "model.ini")
    write_samples(data_a, tmp_path / "run_a.csv")
    write_samples(data_b_pay, tmp_path / "run_b.csv")
    write_payload(PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                              inertia_com=np.diag((0.030, 0.035, 0.030))),
                  tmp_path / "payload.ini")
    code = f"""
import sys, json
import dynid.cli
rc = dynid.cli.main(["identify", "gains", "--model", "model.ini",
                     "--samples-a", "run_a.csv", "--samples-b", "run_b.csv",
                     "--payload", "payload.ini", "--known", "mass,com",
                     "--out", "gains.ini"])
assert rc == 0, rc
print({_SCIPY_LOADED})
"""
    assert _run(code, tmp_path) == []
    assert (tmp_path / "gains.ini").exists()
