"""The README's examples run as written: its Python session, and every
command line of its CLI block through cli.main."""

import re
import shlex
from pathlib import Path

from qweinstein.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_python_session_runs(tmp_path, monkeypatch):
    (session,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(session, "README.md", "exec"), {})


def test_readme_cli_block_exits_0(tmp_path, monkeypatch):
    (block,) = [b for b in _blocks("sh") if b.startswith("qweinstein ")]
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    argvs = [argv for argv in argvs if argv]
    assert argvs and all(argv[0] == "qweinstein" for argv in argvs)
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
