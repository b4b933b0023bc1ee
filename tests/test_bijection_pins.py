"""`bijection --json --trace` stdout, pinned byte for byte.

Each digest is the SHA-256 of the output for one input, so the per-colour
split, the tableau walks (shapes and fillings), the image and both
statistics cannot move unnoticed.
"""
import hashlib

import pytest

from crossnest import cli

DIGESTS = {
    "4 5 3 6 2 1 / 1 2 1 2 2 2": "8acc650832a12796e1c36bb6d69aef869b6dbd09cddc0884a83f1ba42a3e1d67",
    "{1,3,6},{2,5},{4} / 1 2 2": "368d2d21a67e8f8fe48d637c483b0811eba0cc1902d7ab70e3cbd8e3da6c08a6",
}


@pytest.mark.parametrize("text", sorted(DIGESTS))
def test_bijection_trace_is_pinned(capsys, text):
    assert cli.main(["bijection", "--input", text, "--json", "--trace"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[text]
