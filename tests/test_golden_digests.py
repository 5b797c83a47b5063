"""Every file of a fixed grid of CLI runs against its committed sha256.

tests/make_golden_digests.py defines the grid and writes the digests;
see its docstring for what is pinned and what is left out.
"""

import json

import pytest

from make_golden_digests import PATH, digests, grid

ENTRIES = json.loads(PATH.read_text())


def test_grid_is_the_committed_one():
    assert [entry["argv"] for entry in ENTRIES] == grid()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: " ".join(entry["argv"]))
def test_output_digests(entry):
    assert digests(entry["argv"]) == entry["files"]
