"""Every output that ``bench/expected.json`` pins by sha256: each ``cli``
command, run in this process through ``fano4.cli.main``, and each export.

The benchmark hashes a command's merged stdout and stderr; here stderr must
be empty, so the stdout hash is that same hash.  The file is only read.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import fano4.cli as cli
from fano4.report import build_all_records, export

EXPECTED = json.loads((Path(__file__).resolve().parent.parent / "bench"
                       / "expected.json").read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def records():
    return build_all_records()


@pytest.mark.parametrize("command", sorted(EXPECTED["cli"]))
def test_cli_output_matches_its_pin(command, monkeypatch):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", err)
    status = cli.main(command.split())
    data = out.getvalue()
    stdout.close()
    assert (status, err.getvalue()) == (0, "")
    assert sha256(data) == EXPECTED["cli"][command]


@pytest.mark.parametrize("fmt", sorted(EXPECTED["export"]))
def test_export_matches_its_pin(fmt, records):
    assert sha256(export(records, fmt)) == EXPECTED["export"][fmt]


def test_every_pin_is_checked():
    assert (len(EXPECTED["cli"]), len(EXPECTED["export"])) == (61, 3)
