"""Every reproducible CLI output, byte for byte, against ``cli_digests.json``.

The runs and what they leave out are in ``record_cli_digests.py``, which also
rewrites the file.  They run in one child process under the benchmark's numeric
pins, whose bits hold only on the numpy version the file records.
"""
import json

import numpy as np
import pytest

import record_cli_digests as rec


def test_every_cli_output_matches_its_recorded_digest():
    want = json.loads(rec.DIGESTS_PATH.read_text(encoding="utf-8"))
    if np.__version__ != want["numpy"]:
        pytest.skip(f"CLI digests were recorded on numpy {want['numpy']}, "
                    f"this is numpy {np.__version__}")
    got = rec.digests()
    assert got["numpy"] == want["numpy"]
    differ = sorted(name for name in want["runs"].keys() | got["runs"].keys()
                    if want["runs"].get(name) != got["runs"].get(name))
    assert differ == [], {name: got["runs"].get(name) for name in differ}
