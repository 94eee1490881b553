"""Byte-level goldens for the CLI's --json output.

Each case pins the exit status and the sha256 of stdout of one command, as
recorded from a known-good build.  A mismatch means the command's output
changed: distances, coset representatives, member order, walk paths or the
equivalence witness.  Such a change must be deliberate; print the current
digests with `PYTHONPATH=src python tests/test_goldens.py`.
"""

import hashlib
import io
import sys

import pytest

from sdcodes import cli
from sdcodes.fixtures_io import serialize_matrix
from sdcodes.neighborhood import random_self_dual

# (argv, stdin producer or None, exit status, sha256 of stdout)
GOLDENS = [
    (["info", "--fixture", "G1"], None, 0,
     "48ef025311914d7a70ecc7e5ff2aeb980d8a3ca50e4f5508d67c06f1bce73c51"),
    (["info", "--fixture", "G2"], None, 0,
     "cbe09ccbe6a07cb78c8bd10233c5965ec9c019c41c8bce9db08a57e6b7d929a7"),
    (["info", "--fixture", "G3"], None, 0,
     "78d60776e3037ac0e43023fc945fcdf473cc42136a1ba4143661512b458b080a"),
    (["info", "--fixture", "G4"], None, 0,
     "42152fd0a91b878c8d20f731c8061c2a6d2918bcf2cdb8bb58e66007219e1fb7"),
    (["info", "--fixture", "G5"], None, 0,
     "c2cd96269dbeff2624e8f20c3a1480e361c9bc68ecb44108f85cef36b1f7f0a1"),
    (["info", "--fixture", "G6"], None, 0,
     "5c5c16200523cee92538dd621f46b4f475ac0693c261606e23a251f924521804"),
    (["dual", "--fixture", "G3"], None, 0,
     "4e313c1fa88b0164b1b5321ed35fb0e8b42370ec9923d7ffcdb1ba8763630516"),
    (["neighborhood", "--fixture", "G3"], None, 0,
     "ae649519118dbe83fd90b00293b95e28c5d341dfb1cec3e40cc88fbd86f142fb"),
    (["neighborhood", "--fixture", "G4"], None, 0,
     "78463e7dda18938d7437ebae3a69e62ae71de9d644b854016cdc1c9d8a64ae70"),
    (["neighbors", "fixture:G1", "fixture:G2"], None, 0,
     "1a5a4cb7afca86961ddbfd620e4244fff2ca6c5eaf463a2a92360139e4956a93"),
    (["equivalent", "fixture:G1", "fixture:G2"], None, 0,
     "57c43b6436d450f297bdc72d98a7d01dd4d93d9b5f35bada252f640638d63ecc"),
    (["equivalent", "fixture:G1", "fixture:G3"], None, 1,
     "d1315949388298b8b40a72433a5e31e78df950934c7107804d5b0775d3a1eadf"),
    (["search", "--n", "16", "--steps", "200", "--seed", "7"], None, 0,
     "480f849e9d78cf0dffc35629d95f233531656bab6ed853249e11619c94dadb31"),
    (["search", "--n", "32", "--steps", "12", "--seed", "19", "--report-best"], None, 0,
     "2ceb225754ea9621e9f2e470abf973f00361b77ba8752f26453feb7cca8ce48a"),
    (["search", "--n", "512", "--steps", "30", "--no-distance", "--report-best"], None, 0,
     "1733f103780907ffe01dbc51400b5b9599028281ffbf4fa8db046972c2486c16"),
    (["verify-paper"], None, 0,
     "108243de4356c7b84ab23e320e3848e9e2777e4893c24887a996f9cda6950633"),
    # a valid Type I input whose no_better_type1 verdict fails (d=6 vs 4, 4)
    (["neighborhood", "-"], "walk32", 1,
     "2f15833d9d68798c848e2912bb8426ec4ceb1f35c99ece44870591c9f666f58f"),
]

STDIN = {
    "walk32": lambda: serialize_matrix(random_self_dual(32, 12, 19).generator),
}


def run(argv, stdin_key):
    argv = argv + ["--json"]
    text = STDIN[stdin_key]() if stdin_key else ""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), out
    try:
        status = cli.main(argv)
    finally:
        sys.stdin, sys.stdout = saved
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "argv,stdin_key,status,digest",
    GOLDENS,
    ids=[" ".join(g[0]) for g in GOLDENS],
)
def test_golden(argv, stdin_key, status, digest):
    assert run(argv, stdin_key) == (status, digest)


if __name__ == "__main__":
    for argv, stdin_key, _, _ in GOLDENS:
        print(*run(argv, stdin_key), " ".join(argv))
