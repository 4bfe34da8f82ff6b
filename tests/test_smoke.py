"""Fresh-interpreter checks: the CLI entry point, the import surface, the demos."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_module_runs_without_warnings():
    proc = _python("-W", "error", "-m", "entdistill.cli", "povm-purify", "--p", "0.1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("quantity,p,epsilon,n,r0,r1,value,p_succ\n")


def test_verify_full_runs_without_warnings():
    proc = _python("-W", "error", "-m", "entdistill.cli", "verify", "--full", "--draws", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "verification passed" in proc.stdout


def test_importing_the_package_leaves_the_cli_unloaded():
    proc = _python("-c", "import sys, entdistill; print('entdistill.cli' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_library_modules_use_every_name_they_import():
    # noise and oracle keep embed_op bound, unused: bench/test_bench.py pins it there
    pinned = {("noise", "embed_op"), ("oracle", "embed_op")}
    unused = set()
    for path in sorted((ROOT / "src" / "entdistill").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add((path.stem, name))
    assert unused == pinned


def test_five_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
