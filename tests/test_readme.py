"""Every `ektau ...` command of the README's CLI block runs and exits 0."""

import pathlib
import re
import shlex

import pytest

from ektau.cli import EXIT_OK, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("ektau ")]


def test_the_cli_block_has_commands():
    assert len(readme_commands()) >= 4


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_exits_0(argv, tmp_path, capsys):
    argv = argv[1:]
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.stat().st_size > 0
