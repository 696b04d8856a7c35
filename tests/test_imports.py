"""The import budget: ``import stagekit`` loads submodules and numpy only when a name needs them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import stagekit

SRC = Path(stagekit.__file__).resolve().parents[1]
RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def setup_code() -> str:
    """``SETUP_CODE`` from bench/run.py, the code whose fresh-interpreter time is ``setup_s``."""
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no SETUP_CODE")


def loaded_after(code: str) -> list[str]:
    """The stagekit and numpy modules a fresh interpreter holds after running ``code``."""
    report = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
              "if m.partition('.')[0] in ('stagekit', 'numpy'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_setup_code_loads_only_the_instrument_path():
    assert loaded_after(setup_code()) == ["stagekit", "stagekit.errors", "stagekit.instrument",
                                          "stagekit.model"]


def test_bare_import_loads_only_the_package():
    assert loaded_after("import stagekit") == ["stagekit"]


def test_array_backed_name_imports_numpy():
    assert "numpy" in loaded_after("import stagekit; stagekit.kendalls_w")


def test_every_export_resolves_to_its_module_attribute():
    for module, names in stagekit._EXPORTS.items():
        owner = getattr(stagekit, module)
        assert owner.__name__ == f"stagekit.{module}"
        for name in names:
            assert getattr(stagekit, name) is getattr(owner, name), name


def test_all_is_every_export_once():
    assert len(stagekit.__all__) == len(set(stagekit.__all__)) == len(stagekit._OWNER)


def test_dir_lists_every_export_submodule_and_the_version():
    assert {*stagekit.__all__, *stagekit._EXPORTS, "__version__"} <= set(dir(stagekit))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stagekit import *", namespace)
    assert [name for name in stagekit.__all__ if name not in namespace] == []


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(stagekit, "no_such_name")
    assert "no_such_name" not in vars(stagekit)


def test_submodule_is_an_attribute_after_a_bare_import():
    code = "import stagekit; assert stagekit.io.__name__ == 'stagekit.io'"
    assert "stagekit.io" in loaded_after(code)


def test_from_import_of_a_submodule():
    from stagekit import io as sio

    assert sio is stagekit.io


def test_no_module_imports_a_private_name_of_another():
    """An underscore name stays inside its module: no ``from .other import _name`` in the package."""
    imported = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted((SRC / "stagekit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("stagekit"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert imported == []


def test_scoring_takes_weights_without_the_ahp_module():
    assert "stagekit.ahp" not in loaded_after("import stagekit.scoring")


def test_report_module_imports_no_numpy():
    """``report.py`` writes and reads bundles without numpy: no ``import numpy`` or ``from numpy`` in it."""
    tree = ast.parse((SRC / "stagekit" / "report.py").read_text(encoding="utf-8"))
    imported = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").partition(".")[0] == "numpy"
    ]
    assert imported == []
