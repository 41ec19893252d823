"""README's quick start runs as written, so a removed option, method or
export cannot leave it stale: the Python block as a script, the CLI block
one command at a time through ``cli.main`` in a scratch directory."""
import pathlib
import re
import shlex

from lightspanner.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(?:python)?\n(.*?)```", section, re.S)


def test_readme_quick_start_runs(capsys):
    python, _ = _quick_start_blocks()
    exec(compile(python, str(README), "exec"), {})
    size_and_weight, stretch_and_slack = capsys.readouterr().out.splitlines()
    assert len(size_and_weight.split()) == len(stretch_and_slack.split()) == 2


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch):
    _, commands = _quick_start_blocks()
    monkeypatch.chdir(tmp_path)
    for line in commands.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line)
        assert program == "lightspanner"
        assert main(argv) == 0, line
    assert {"graph.edge_list", "spanner.json", "stretch_report.json", "sweep.csv"} <= {
        p.name for p in (tmp_path / "demo").iterdir()
    }
