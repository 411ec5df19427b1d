"""The golden corpus: CLI output bytes and batch lines pinned across commits.

Every other test compares runs of one tree with each other; these compare
with the digests in ``tests/golden.json``, so an arithmetic or wire change
that hits every mode alike fails here. ``python tests/golden.py``
regenerates the file after a change that means to move a value.
"""

import json

import pytest

import golden

_WANT = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("name, args", golden.COMMANDS, ids=[n for n, _ in golden.COMMANDS])
def test_cli_output_bytes_match_the_golden_corpus(name, args):
    assert golden.command_digest(args) == _WANT["commands"][name]


@pytest.mark.parametrize("name", list(golden.PIPELINES))
@pytest.mark.parametrize("n_nodes", golden.NODE_COUNTS)
def test_batch_lines_match_the_golden_corpus(name, n_nodes):
    got = golden.batch_digest(golden.PIPELINES[name], n_nodes)
    assert got == _WANT["batch_lines"][f"{name}@{n_nodes}"]


def test_the_corpus_covers_exactly_the_pinned_commands_and_pipelines():
    assert set(_WANT["commands"]) == {name for name, _ in golden.COMMANDS}
    assert set(_WANT["batch_lines"]) == {f"{name}@{n}" for name in golden.PIPELINES
                                         for n in golden.NODE_COUNTS}
