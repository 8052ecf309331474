"""The CLI against its goldens (see :mod:`tests.cli_golden`).

A verb's stdout, stderr and exit code, and its options, must match what
the code before a CLI change produced, byte for byte.
"""

import json

import pytest

from .cli_golden import CASES, PARSER, TRANSCRIPTS, parser_options, transcripts


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(TRANSCRIPTS.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    return transcripts()


def test_golden_covers_every_case(recorded):
    assert sorted(recorded) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_transcript_matches(name, recorded, replayed):
    assert replayed[name] == recorded[name]


def test_parser_options_match():
    assert parser_options() == json.loads(PARSER.read_text())
