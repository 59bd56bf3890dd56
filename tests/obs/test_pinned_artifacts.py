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


#: ``repro loadgen``, ``categorize`` and ``syscalls`` print to stdout;
#: these pin that text.
PINNED_STDOUT = {
    ("loadgen", "--profile", "burst", "--fault-rate", "0.01", "--json"):
        "51a90396f3134e3bffbd1ceab6ecfba6efaec6862a6dfef5f50f80791c0814c5",
    ("loadgen", "--profile", "burst", "--cluster", "--nodes", "3",
     "--json"):
        "8e603df49a6ff1583358354550350a7b325721b6f0dcd5c2146532d95715f9ab",
    # Every API's hybrid verdict and method, and the allowlist report:
    # the static walk of API implementations must reproduce them.
    ("categorize", "opencv", "-v"):
        "a4b71f753227352e11f010587bf1ee407bba60c24443fc36c35d11212da5053d",
    ("categorize", "pytorch", "-v"):
        "bef52b93a36688836b2833a015a835fe373107e329f175d4066e8f070441bb71",
    ("categorize", "tensorflow", "-v"):
        "e7bf34b4ec791c9e810e2f0a77a106d731e3135719151717ee074ffef5d3a35b",
    ("categorize", "caffe", "-v"):
        "71f6b07305b69724b4dc8517d1787842a7025b632e7abf817c313981e5db55c4",
    ("categorize", "sklearn", "-v"):
        "5c6cd4cc72c3b34d4c842de6b7782f493506a5355e6ad3412cd9e385a9dc6b12",
    ("categorize", "pandas", "-v"):
        "707096fbb09e3102c02182cf0e11d3813ae00f9eb1f8d9b208a03acae5f06be4",
    ("categorize", "json", "-v"):
        "70b6c906a78434b0b4e5f2d237d38df85bafa861224fe6b03f45964359443185",
    ("categorize", "matplotlib", "-v"):
        "1d7c9e0c9472fa1eda8ed1b98a98d5691bd22cb9bebe5cc7302831ce1950a4e1",
    ("categorize", "numpy", "-v"):
        "716628d1e69e0adc26f1c91c5b927fd5cdca6fc55dc1e03d57bfdcebb9b0f037",
    ("categorize", "pillow", "-v"):
        "04d465813e421d49ae2d65f5a3e3e0e1d9b54f11b610893a234a76fdd7a4d929",
    ("categorize", "gtk", "-v"):
        "3cdacd580e5df38d94c7de7045f5b22355def72b2adac6eabbff6813f0e19cf6",
    ("syscalls",):
        "df9070ce1386653004e4acd22e81121f90c33d40e69215320ad6f06e5a25f281",
}


@pytest.mark.parametrize("command", PINNED_STDOUT, ids="-".join)
def test_printed_artifact_matches_its_pinned_digest(command, capsys):
    assert main(list(command)) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == \
        PINNED_STDOUT[command]
