"""The README's command examples print what their `# ` comment says.

Each `euclid ...` line of a `sh` block that is followed by a `# output`
line runs through `cli.main` from the repository root; its first line
of output must equal the comment.  A `--svg` path is redirected into a
temporary directory.
"""

import re
import shlex
from pathlib import Path

import pytest

from euclid.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("euclid ") and comment.startswith("# "):
                out.append((shlex.split(command)[1:], comment[2:]))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    argv = list(argv)
    if "--svg" in argv:
        i = argv.index("--svg") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    main(argv)
    assert capsys.readouterr().out.splitlines()[0] == expected
