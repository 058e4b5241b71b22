"""Every command of the fixed CLI grid prints the bytes recorded in data/cli_corpus.json.

The corpus pins bytes; it does not replace the independent-route checks.  See
``make_cli_corpus.py`` for the grid and for how the file is rewritten.
"""

import json
import shlex

import pytest

from make_cli_corpus import CORPUS, build_parser, commands, record, run, show_hint


@pytest.fixture(scope="module")
def recorded():
    return json.loads(CORPUS.read_text())["commands"]


def test_grid_is_the_recorded_one(recorded):
    assert list(recorded) == [shlex.join(cmd) for cmd in commands()]


def test_every_command_prints_its_recorded_bytes(recorded):
    for cmd in commands():
        line = shlex.join(cmd)
        code, out, err = run(cmd)
        got = record(code, out, err)
        if got != recorded[line]:
            pytest.fail(
                f"first command whose output changed: {line}\n"
                f"recorded: {recorded[line]}\n"
                f"now:      {got}\n"
                f"recorded output: `{show_hint(line)}` at the "
                f"commit that last wrote {CORPUS.name}\n"
                f"now, exit {code}\n--- stdout\n{out}--- stderr\n{err}",
                pytrace=False,
            )


def test_every_show_hint_parses_back_to_its_command():
    """The hint printed for a changed command shows that command, also for
    ``-h``, ``--help``, the empty argv and words with whitespace inside."""
    parser = build_parser()
    for cmd in commands():
        words = shlex.split(show_hint(shlex.join(cmd)))
        assert words[:2] == ["python3", "tests/make_cli_corpus.py"]
        assert shlex.split(parser.parse_args(words[2:]).show) == cmd
