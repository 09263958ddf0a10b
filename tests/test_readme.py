"""The command-line examples of README.md run as shown."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import eulermagic
from eulermagic import cli

ROOT = Path(__file__).resolve().parents[1]


def _examples():
    """(command line, output shown under it or None) for every `$ eulermagic`
    line of the README's sh blocks; a trailing backslash continues a command,
    and comment lines are neither command nor output."""
    examples, current, in_sh = [], None, False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif not in_sh:
            continue
        elif current is not None and current[0].endswith("\\"):
            current[0] = current[0][:-1] + line
        elif line.startswith("$ eulermagic"):
            current = [line[2:], []]
            examples.append(current)
        elif current is not None and line.strip() and not line.lstrip().startswith("#"):
            current[1].append(line)
    return [(command.split("#")[0].strip(), "\n".join(shown) + "\n" if shown else None)
            for command, shown in examples]


EXAMPLES = _examples()


def test_readme_shows_every_subcommand():
    assert len(EXAMPLES) == 9
    assert {shlex.split(command)[1] for command, _ in EXAMPLES} == set(cli._HANDLERS)


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_runs_as_shown(command, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out
    if shown is not None:
        assert out == shown


def test_readme_names_resolve():
    # every `module.name` the README points to, such as the functions of its
    # "How it computes" index, exists under that name
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"`(?:eulermagic\.)?(\w+)\.(\w+(?:\.\w+)*)`", text)
    modules = {info.name for info in pkgutil.iter_modules(eulermagic.__path__)}
    named = [(module, attr) for module, attr in named if module in modules]
    assert len(named) > 30
    missing = []
    for module, attr in named:
        value = importlib.import_module(f"eulermagic.{module}")
        for part in attr.split("."):
            value = getattr(value, part, None)
        if value is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
