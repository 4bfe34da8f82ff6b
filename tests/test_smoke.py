"""Whole-program checks: the CLI entry point, the import surface, the demos, the README.

Each check but the README's runs in a fresh interpreter.
"""

import ast
import os
import shlex
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

    A ValueError may also be caught in _grid, the one evaluation path of
    every sweep, which re-raises the first failing row's, in cmd_verify,
    where a broken invariant during the checks fails the verification, and
    in the argparse type functions, which re-raise it as ArgumentTypeError.
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
    assert value_error_catches - arg_types == {"main", "_grid", "cmd_verify"}
    assert commands and all(params == ["args"] for params in commands.values()), commands


def test_five_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _readme_block(heading: str, lang: str) -> str:
    """The first fenced ``lang`` block after the README heading ``## heading``."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(f"```{lang}\n")
    return section[start:section.index("```", start)]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """Each command of the "Command line" block exits 0 in-process; the library tour runs."""
    from entdistill import cli

    monkeypatch.chdir(tmp_path)
    lines = _readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    assert argvs and all(argv[0] == "entdistill" for argv in argvs)
    for argv in argvs:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
    exec(_readme_block("Library tour", "python"), {})
