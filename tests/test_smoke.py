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


def test_only_main_turns_cli_errors_into_exit_codes():
    """Commands raise; main alone calls parser.error and catches what they raise.

    A ValueError may also be caught in _het_records, which re-raises the first
    failing row's, and in the argparse type functions, which re-raise it as
    ArgumentTypeError.
    """
    tree = ast.parse((ROOT / "src" / "entdistill" / "cli.py").read_text())
    arg_types = {kw.value.id for node in ast.walk(tree) if isinstance(node, ast.Call)
                 for kw in node.keywords if kw.arg == "type" and isinstance(kw.value, ast.Name)}
    error_calls, value_error_catches, commands = set(), set(), {}
    for top in tree.body:
        owner = getattr(top, "name", None)
        if owner and owner.startswith("cmd_"):
            commands[owner] = [a.arg for a in top.args.args]
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "error":
                error_calls.add(owner)
            if isinstance(node, ast.ExceptHandler) and (node.type is None or {
                    n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} & {
                    "ValueError", "Exception", "BaseException"}):
                value_error_catches.add(owner)
    assert error_calls == {"main"}
    assert value_error_catches - arg_types == {"main", "_het_records"}
    assert commands and all(params == ["args"] for params in commands.values()), commands


def test_five_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
