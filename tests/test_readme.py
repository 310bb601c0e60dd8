"""README's command examples are the user contract: every `qndsim ...` line of
its sh blocks runs through cli.main in a temporary directory and exits with
the code its trailing `# ... exits N` comment states, and every file under
src/ that a line names exists.  Its library layout has one single-line bullet
per module of src/qndsim."""

import re
import shlex
from pathlib import Path

import pytest

from qndsim.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[tuple[str, int]]:
    """Each `qndsim` command of README's sh blocks, continuation lines joined,
    with the exit code its comment states."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.strip().startswith("qndsim "):
                stated = re.search(r"\bexits (\d)\b", comment)
                assert stated, f"README states no exit code for: {line.strip()}"
                commands.append((" ".join(command.split()), int(stated[1])))
    return commands


COMMANDS = readme_commands()


def test_readme_has_an_example_of_each_command_and_exit_code():
    assert {shlex.split(c)[1] for c, _ in COMMANDS} == {"check", "evolve", "measure", "sweep"}
    assert {code for _, code in COMMANDS} == {0, 1, 2}


@pytest.mark.parametrize("command, code", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_exits_as_stated(command, code, tmp_path, monkeypatch, capsys):
    argv = shlex.split(command)[1:]
    for k, arg in enumerate(argv):
        if arg.startswith("src/"):
            assert (ROOT / arg).is_file(), arg
            argv[k] = str(ROOT / arg)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:  # an input error is one error line; a negative result need not be
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif code == 0:
        assert err == ""


def library_layout() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]


def test_library_layout_has_one_bullet_per_module():
    bullets = re.findall(r"^- `qndsim\.(\w+)`", library_layout(), flags=re.M)
    modules = [p.stem for p in (ROOT / "src" / "qndsim").glob("*.py") if p.stem != "__init__"]
    assert sorted(bullets) == sorted(modules)


def test_library_layout_bullets_are_one_line():
    """A module's facts live in its docstrings; README names each in one line."""
    lines = library_layout().splitlines()
    continued = [line for line, after in zip(lines, lines[1:] + [""])
                 if line.startswith("- `qndsim.") and after[:1].isspace()]
    assert continued == []
