"""`count --histogram --json` stdout, pinned byte for byte.

Each digest is the SHA-256 of the output for one spec, recorded when the
histogram still scored every coloured object one at a time, so the
class-split walk must give the same pairs, counts, symmetry flag and
layout.
"""
import hashlib

import pytest

from crossnest import cli

DIGESTS = {
    "--family permutation --n 6 --colours 2": "d28a1388a173fa08ead8c094bcaa99d4d2b2502a23b046a1730e0407ee1fc053",
    "--family permutation --n 5 --colours 3 --j 3 --k 2": "a3a4794a64c14b968730d4d334d809fbb1e818ba76e7cde974d094f1d37d000b",
    "--family setpartition --n 7 --colours 3": "39013269c36e91b392709c08ee0c350248c465f3b9c374034b64ea0306d2a9d5",
    "--family permutation --n 6 --colours 2 --openers 1,2 --closers 5,6": "13ef7eea7b6aa220c438a2b9a54c8656cdd2042d30d280b3734ef406654f819d",
}


@pytest.mark.parametrize("args", sorted(DIGESTS))
def test_histogram_json_is_pinned(capsys, args):
    assert cli.main(["count", *args.split(), "--histogram", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[args]
