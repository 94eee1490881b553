"""Byte-level goldens for the CLI's --json and human output.

Each case pins the exit status and the sha256 of stdout of one command, as
recorded from a known-good build.  A mismatch means the command's output
changed: distances, coset representatives, member order, walk paths or the
equivalence witness.  Such a change must be deliberate; print the current
digests with `PYTHONPATH=src python tests/test_goldens.py`.  GOLDENS run
with --json; HUMAN_GOLDENS run without it and pin the text renderings of
matrices, members and search results.  WITNESSES pins, as images, the
witness that each golden pair of equivalent codes prints, and checks it
with the oracles alone.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from sdcodes import cli
from sdcodes.code import from_generator
from sdcodes.equivalence import CoordinatePermutation, apply_permutation
from sdcodes.fixtures_io import fixture, serialize_matrix
from sdcodes.neighborhood import random_self_dual

from oracles import o_moved, o_parse_matrix, o_rref

# (argv, stdin producer or None, exit status, sha256 of stdout); an argv
# token that names a FILES entry is read from a file written for the run
GOLDENS = [
    (["info", "fixture:G1"], None, 0,
     "48ef025311914d7a70ecc7e5ff2aeb980d8a3ca50e4f5508d67c06f1bce73c51"),
    (["info", "fixture:G2"], None, 0,
     "cbe09ccbe6a07cb78c8bd10233c5965ec9c019c41c8bce9db08a57e6b7d929a7"),
    (["info", "fixture:G3"], None, 0,
     "78d60776e3037ac0e43023fc945fcdf473cc42136a1ba4143661512b458b080a"),
    (["info", "fixture:G4"], None, 0,
     "42152fd0a91b878c8d20f731c8061c2a6d2918bcf2cdb8bb58e66007219e1fb7"),
    (["info", "fixture:G5"], None, 0,
     "c2cd96269dbeff2624e8f20c3a1480e361c9bc68ecb44108f85cef36b1f7f0a1"),
    (["info", "fixture:G6"], None, 0,
     "5c5c16200523cee92538dd621f46b4f475ac0693c261606e23a251f924521804"),
    (["dual", "fixture:G3"], None, 0,
     "4e313c1fa88b0164b1b5321ed35fb0e8b42370ec9923d7ffcdb1ba8763630516"),
    (["neighborhood", "fixture:G3"], None, 0,
     "45120f4db71f49ded5981433cc4723e1db4df114d472b5ad082aee5b20c709a2"),
    (["neighborhood", "fixture:G4"], None, 0,
     "1ab97970067dba5222a87e5a71f6f59bface7eb3f1c0b26aa5d019e18848a84e"),
    (["neighbors", "fixture:G1", "fixture:G2"], None, 0,
     "1a5a4cb7afca86961ddbfd620e4244fff2ca6c5eaf463a2a92360139e4956a93"),
    (["equivalent", "fixture:G1", "fixture:G2"], None, 0,
     "ed46befe01c2721534bb7de9bde206992df59b9fcd9c176a97432b3136269433"),
    (["equivalent", "fixture:G1", "fixture:G3"], None, 1,
     "d1315949388298b8b40a72433a5e31e78df950934c7107804d5b0775d3a1eadf"),
    (["search", "--n", "16", "--steps", "200", "--seed", "7"], None, 0,
     "480f849e9d78cf0dffc35629d95f233531656bab6ed853249e11619c94dadb31"),
    (["search", "--n", "32", "--steps", "12", "--seed", "19", "--report-best"], None, 0,
     "2ceb225754ea9621e9f2e470abf973f00361b77ba8752f26453feb7cca8ce48a"),
    (["search", "--n", "512", "--steps", "30", "--no-distance", "--report-best"], None, 0,
     "1733f103780907ffe01dbc51400b5b9599028281ffbf4fa8db046972c2486c16"),
    (["verify-paper"], None, 0,
     "597991c5604d128daab8bf480f3e5bf60e75125a475beb1c89a6716f2548f383"),
    # a valid Type I input whose no_better_type1 verdict fails (d=6 vs 4, 4)
    (["neighborhood", "-"], "walk32", 1,
     "0ece5574e52790b0b8e38bf23f293a9a880743b0dc1a9a447d4af1c00a244784"),
    # seeded coordinate permutations of a fixture: pins the DFS witness
    (["equivalent", "fixture:G1", "-"], "G1perm", 0,
     "5a9c809061727eded09227b236a92e6b0c4f519cce05e6d9b11f0e6027180758"),
    (["equivalent", "fixture:G4", "-"], "G4perm", 0,
     "b99051297b2066d77645935d36fe17754cf6ee8028b5693b49719fb0e1b73be0"),
    # walk distances at n=40 and n=48 (k=20, k=24), and info at k=20
    (["search", "--n", "40", "--steps", "8", "--seed", "1"], None, 0,
     "55a705d9bd4fc12f17802a019d484fe7026426488d576040b4a90bed0de1a5c0"),
    (["search", "--n", "48", "--steps", "20", "--seed", "0"], None, 0,
     "4a65787fc20fd58933f33b250946161b37a2635cde7bf7323d9a22b8d994a56e"),
    (["info", "-"], "walk40", 0,
     "8f3de16bafe5861f30a1fbf3a25a85288a2fb0f9dae88fca6e976a8adf1dfd14"),
    # a Type I neighborhood at n=40: c_max has k=19, and each member's
    # representative and distance come from one Brouwer-Zimmermann search
    (["neighborhood", "-"], "walk40", 0,
     "8b7d08b5fe949be6ba3ae68ddd9774806c785293dcbacf74a99c5fbbf9b8f2bb"),
    # n=32 walk codes: a seeded permutation of one (pins the witness), and
    # an inequivalent pair with equal weight enumerators
    (["equivalent", "walk32.txt", "-"], "walk32perm", 0,
     "8236203176297190aad155c5c322e6f6947dfe55afbc0ad12424aaeee60487dc"),
    (["equivalent", "walk2001-8.txt", "-"], "walk2001-12perm", 1,
     "cd4b8171c3036f3b520143cdd4d51e4341a834c61bf2f94f425dcf9bb3067a63"),
    # n=64, past the sweep's cap of k=30: walk distances, and a Type I
    # neighborhood whose c_max has dimension 31
    (["search", "--n", "64", "--steps", "200", "--seed", "0"], None, 0,
     "05424db25f54508d8ccbd217618b130f9f352b78e52e2f1ea98f69e0119dbcb5"),
    (["neighborhood", "-"], "walk64", 0,
     "1b13c458690a87f98d040bbce8c2a786690ce1a5d1cfd677282eaefab9951a40"),
]

# the same shape as GOLDENS, run without --json
HUMAN_GOLDENS = [
    (["info", "fixture:G3"], None, 0,
     "0aeaee4cb3b270183507251f53c1b978b1e418c3674e8d02d8db989f56354ae1"),
    (["dual", "fixture:G3"], None, 0,
     "73734023824f22986d0087f4b95063fe9bf1d6badfb67b2985f0a089b9dbd50e"),
    (["neighborhood", "fixture:G3"], None, 0,
     "fa0ba53d8d7e2a7fdd7983829a9379afa6a884fa646d8a93842f222745bfd881"),
    (["neighborhood", "fixture:G4"], None, 0,
     "2e032ba2ade132aa6ab3ced91978c915c1bf6e324e8328e2edfbf98680491913"),
    (["search", "--n", "32", "--steps", "12", "--seed", "19", "--report-best"], None, 0,
     "27f415c29c4f086e006c0563b69bcb66d8f8a1227fd56a83af299b0b55a60f3b"),
    (["search", "--n", "64", "--steps", "30", "--no-distance", "--report-best"], None, 0,
     "74cbe4bb4374e7c96aebd9e9c8c8e31b29a4a8379f4e44f79d94beffbd79f7d8"),
    (["search", "--n", "64", "--steps", "0", "--no-distance"], None, 0,
     "c187c61acc16f9ea1f35fe637182971f3b3a144f668ecdc7eec9cbd66b2a60bb"),
    # --min-d 6 is met at step 12 of 40, so the walk stops early
    (["search", "--n", "32", "--steps", "40", "--seed", "3", "--min-d", "6", "--report-best"],
     None, 0,
     "5311f0dc41bf7bcd2554cdc7b26911b6ce8bdc1d076309cc5d02bb22ec61dc9c"),
]


def permuted(code, seed):
    images = list(range(code.n))
    random.Random(seed).shuffle(images)
    moved = apply_permutation(code, CoordinatePermutation(tuple(images)))
    return serialize_matrix(moved.generator)


STDIN = {
    "walk32": lambda: serialize_matrix(random_self_dual(32, 12, 19).generator),
    "walk40": lambda: serialize_matrix(random_self_dual(40, 8, 1).generator),
    "walk64": lambda: serialize_matrix(random_self_dual(64, 21, 0).generator),
    "G1perm": lambda: permuted(from_generator(fixture("G1")), 1),
    "G4perm": lambda: permuted(from_generator(fixture("G4")), 4),
    "walk32perm": lambda: permuted(random_self_dual(32, 12, 19), 32),
    "walk2001-12perm": lambda: permuted(random_self_dual(32, 12, 2001), 1),
}

FILES = {
    "walk32.txt": lambda: serialize_matrix(random_self_dual(32, 12, 19).generator),
    "walk2001-8.txt": lambda: serialize_matrix(random_self_dual(32, 8, 2001).generator),
}


def output(argv, stdin_key, human=False):
    """The exit status and stdout of one command."""
    if not human:
        argv = argv + ["--json"]
    text = STDIN[stdin_key]() if stdin_key else ""
    out = io.StringIO()
    saved, cwd = (sys.stdin, sys.stdout), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in FILES.keys() & set(argv):
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(FILES[name]())
        # the output names each input, so a file is read by its bare name
        os.chdir(tmp)
        sys.stdin, sys.stdout = io.StringIO(text), out
        try:
            status = cli.main(argv)
        finally:
            sys.stdin, sys.stdout = saved
            os.chdir(cwd)
    return status, out.getvalue()


def run(argv, stdin_key, human=False):
    status, text = output(argv, stdin_key, human)
    return status, hashlib.sha256(text.encode()).hexdigest()


def golden_ids(cases=GOLDENS):
    """The argv of each case; a repeated argv is told apart by its stdin key."""
    ids = []
    for argv, stdin_key, _, _ in cases:
        name = " ".join(argv)
        ids.append(f"{name} {stdin_key}" if name in ids else name)
    return ids


@pytest.mark.parametrize("argv,stdin_key,status,digest", GOLDENS, ids=golden_ids())
def test_golden(argv, stdin_key, status, digest):
    assert run(argv, stdin_key) == (status, digest)


@pytest.mark.parametrize(
    "argv,stdin_key,status,digest", HUMAN_GOLDENS, ids=golden_ids(HUMAN_GOLDENS)
)
def test_human_golden(argv, stdin_key, status, digest):
    assert run(argv, stdin_key, human=True) == (status, digest)


# the witness that each golden pair of equivalent codes prints, as the
# images of coordinates 0..n-1; verify-paper prints G1's onto G2 in check 12
WITNESSES = [
    (["equivalent", "fixture:G1", "fixture:G2"], None,
     "0 4 10 6 8 7 9 1 5 2 3 12 13 15 18 20 16 11 19 17 23 21 22 14"),
    (["equivalent", "fixture:G1", "-"], "G1perm",
     "1 10 12 4 9 3 7 5 0 6 2 8 13 14 11 17 15 22 21 23 20 16 19 18"),
    (["equivalent", "fixture:G4", "-"], "G4perm",
     "4 2 1 9 8 10 15 12 11 17 6 3 0 14 7 13 23 20 18 21 5 22 16 19"),
    (["equivalent", "walk32.txt", "-"], "walk32perm",
     "6 13 12 30 18 31 14 23 21 0 15 22 25 4 10 3 9 16 29 26 5 24 1 11 2 7 8 19 17 28 20 27"),
]


def source_text(token, stdin_key):
    """The matrix text that an input token of a golden command reads."""
    if token == "-":
        return STDIN[stdin_key]()
    if token in FILES:
        return FILES[token]()
    return serialize_matrix(fixture(token.removeprefix("fixture:")))


@pytest.mark.parametrize("argv,stdin_key,images", WITNESSES, ids=[" ".join(w[0]) for w in WITNESSES])
def test_golden_witness(argv, stdin_key, images):
    # the pinned witness is the one printed, and it maps A onto B by the
    # oracles alone: A's rows moved coordinate by coordinate span B's rows
    images = list(map(int, images.split()))
    status, text = output(argv, stdin_key)
    assert status == 0 and json.loads(text)["witness"] == images
    (_, rows_a), (_, rows_b) = (o_parse_matrix(source_text(t, stdin_key)) for t in argv[1:])
    assert o_rref(o_moved(rows_a, images)) == o_rref(rows_b)


def test_verify_paper_witness():
    status, text = output(["verify-paper"], None)
    (check,) = (r for r in map(json.loads, text.splitlines()) if r.get("criterion") == 12)
    assert status == 0 and check["details"]["witness"] == list(map(int, WITNESSES[0][2].split()))


if __name__ == "__main__":
    for argv, stdin_key, _, _ in GOLDENS:
        print(*run(argv, stdin_key), " ".join(argv))
    for argv, stdin_key, _, _ in HUMAN_GOLDENS:
        print(*run(argv, stdin_key, human=True), " ".join(argv), "(human)")
