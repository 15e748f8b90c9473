"""Exact pins for the experiment rows that export no file.

The paper rows are pinned by their exported files
(``test_export.py``) and the reachability rows by
``test_reach_pins.py``.  The rest are pinned here: each ``stdout:<verb>``
key of ``paper_pins.json`` is blake2b-8 of ``python -m repro <verb>``'s
seed-0 default stdout.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

from .test_reach_pins import ARTIFACTS as REACH_PINS

PINS = json.loads((Path(__file__).parent / "paper_pins.json").read_text())
STDOUT = "stdout:"
STDOUT_PINNED = sorted(k[len(STDOUT):] for k in PINS if k.startswith(STDOUT))

#: Rows whose default output a ``test_reach_pins.py`` pin covers.
REACH_PINNED = {
    "security": "compromise",
    "baselines": "baselines",
    "bridging": "bridging",
    "replicate": "replication",
    "fig5": "fig5",
}


@pytest.mark.parametrize("verb", STDOUT_PINNED)
def test_row_stdout_pinned(verb, capsys):
    assert main([verb]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.blake2b(out, digest_size=8).hexdigest() == PINS[STDOUT + verb]


def test_every_artifact_row_is_pinned():
    from repro.experiments import ARTIFACTS

    assert set(REACH_PINNED.values()) <= set(REACH_PINS)
    unpinned = [
        row.name
        for row in ARTIFACTS
        if row.files is None
        and row.name not in STDOUT_PINNED
        and row.name not in REACH_PINNED
    ]
    assert unpinned == []
