"""Pinned artifact digests: traces and run reports stay byte-identical.

Each sha256 was recorded before the change that last touched the code
paths these artifacts cover.  None of them hashes output pixels, so
numpy numerics cannot move them; only a change in virtual time, span
structure or report content can.  A change that moves one updates its
pin and says why.
"""

import hashlib

import pytest

from repro.cli import main

PINNED = {
    ("trace", "drone"):
        "f3129c797279f8b2f6512b271fa09a59fbae0e5034502a412f3cdae0820771c3",
    ("trace", "CVE-2017-12597"):
        "0d3d71d824b07733ccd87678cc71b9013ed75689713e12bc886204157e995d1c",
    ("report", "serve-bench"):
        "c658f387fe0baf3c226ab5b446d73a7136c038498031b8e530166e49a55f4b27",
    ("report", "cluster-bench"):
        "c92d416ebe0ef6c227e7890247c1a4757a5412e7a8fb19c54d969a82987386b3",
}


@pytest.mark.parametrize("command", PINNED, ids="-".join)
def test_artifact_matches_its_pinned_digest(command, tmp_path, capsys):
    out = tmp_path / "artifact.json"
    assert main([*command, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[command]


#: ``repro loadgen`` prints its JSON to stdout; these pin that text.
PINNED_STDOUT = {
    ("loadgen", "--profile", "burst", "--fault-rate", "0.01", "--json"):
        "51a90396f3134e3bffbd1ceab6ecfba6efaec6862a6dfef5f50f80791c0814c5",
    ("loadgen", "--profile", "burst", "--cluster", "--nodes", "3",
     "--json"):
        "8e603df49a6ff1583358354550350a7b325721b6f0dcd5c2146532d95715f9ab",
}


@pytest.mark.parametrize("command", PINNED_STDOUT, ids="-".join)
def test_printed_artifact_matches_its_pinned_digest(command, capsys):
    assert main(list(command)) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == \
        PINNED_STDOUT[command]
