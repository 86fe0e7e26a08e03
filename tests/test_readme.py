"""Every ``posroot ...`` command in README.md parses with the CLI's own parser,
so the docs cannot name a verb or a flag that the command line does not take."""

import re
import shlex
from pathlib import Path

import pytest

from posroot.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The commands of the fenced blocks (backslash continuations joined) and of
    the inline code spans, which may wrap across lines."""
    text = README.read_text(encoding="utf-8")
    fenced = re.findall(r"^posroot (?:.*\\\n)*.*$", text, flags=re.M)
    inline = re.findall(r"`posroot ([^`]+)`", text)
    return ([" ".join(c.replace("\\\n", " ").split()[1:]) for c in fenced]
            + [" ".join(c.split()) for c in inline])


def test_readme_names_every_verb():
    verbs = {c.split()[0] for c in readme_commands()}
    assert verbs == {"certify", "moments", "powersums", "scan-phi", "zeros", "adversarial"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    build_parser().parse_args(shlex.split(command))
