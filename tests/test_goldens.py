"""Byte-level goldens for the CLI's --json and human output.

Each case pins the exit status and the sha256 of stdout of one command, as
recorded from a known-good build.  A mismatch means the command's output
changed: distances, coset representatives, member order, walk paths or the
equivalence witness.  Such a change must be deliberate; print the current
digests with `PYTHONPATH=src python tests/test_goldens.py`.  GOLDENS run
with --json, and main must return the exit_status of their last record;
HUMAN_GOLDENS run without it and pin the text that each command renders from
its records.  WITNESSES pins, as images, the witness that each golden pair
of equivalent codes prints, and checks it with the oracles alone.
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
     "aedb6429b19001ee27f5992156bc854cee4511635f5f69c32924bce4d46a9497"),
    (["info", "fixture:G2"], None, 0,
     "33540f939f3fef6fd14ff27d11561d5a87d1113936b1632d41c0ff0a383e355c"),
    (["info", "fixture:G3"], None, 0,
     "3833d145c74d04e1c4087ed34c6ec95942facf3307d7a0394e71cbc1f9352eaa"),
    (["info", "fixture:G4"], None, 0,
     "4a3cba31cf5b850a92bdbfd55f6116a59e8b579655c371b83a7e053e879fe162"),
    (["info", "fixture:G5"], None, 0,
     "f5868cf1aa900a5eb17338efd455b8477ee77011fe54e12688467066d3199b16"),
    (["info", "fixture:G6"], None, 0,
     "909b64469e19c37bf1519b479823eec574e8b1d8770e2d867463a2a816b2e13f"),
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
     "b1481677932f59d727d0dd21c50c65d82537c3b676125e562956609b72a59540"),
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
    (["neighbors", "fixture:G1", "fixture:G2"], None, 0,
     "3f96f4cccc6d5cf2f9b96b1d8855378ca71e1b70bab9a3b38d5b73d61471585d"),
    (["neighbors", "fixture:G1", "fixture:G4"], None, 1,
     "c0c264072d66690ba01ca64b7b01b5b08d2310b00db89748a051873abd11e017"),
    (["equivalent", "fixture:G1", "fixture:G2"], None, 0,
     "e5fc2e1158338185060a2bcef5ca6ff7db0f1bd150cbd5a3d951423d058f6c74"),
    (["equivalent", "fixture:G1", "fixture:G3"], None, 1,
     "60bb5db79dec499979188c735e8b1b232a3dacc6d0d3c959538869db207f4e4f"),
    (["verify-paper"], None, 0,
     "819dd8e2d2d5c7b2d4762b83d16f484118a920c121551eb47fcdfe0687093ec0"),
    # the header-only code "8 0": k=0 and no nonzero word, so d prints as "-"
    (["info", "-"], "empty8", 0,
     "d96e0a718944916f412aba533e754cd121d0802217dc5651f1fb905fa0464dc0"),
    # the failed no_better_type1 verdict of walk32 as text
    (["neighborhood", "-"], "walk32", 1,
     "13dd168f09532aa9e754e576b1a40c9656f841e3236ecfb690bc65efc3ad617a"),
]


def permuted(code, seed):
    images = list(range(code.n))
    random.Random(seed).shuffle(images)
    moved = apply_permutation(code, CoordinatePermutation(tuple(images)))
    return serialize_matrix(moved.generator)


STDIN = {
    "empty8": lambda: "8 0\n",
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
    returned, text = output(argv, stdin_key)
    records = [json.loads(line) for line in text.splitlines()]
    # the last record carries the exit status that main returns, and no
    # per-check record of verify-paper carries one
    assert records[-1]["exit_status"] == returned
    assert not any("exit_status" in r for r in records if "criterion" in r)
    assert (returned, hashlib.sha256(text.encode()).hexdigest()) == (status, digest)


@pytest.mark.parametrize(
    "argv,stdin_key,status,digest", HUMAN_GOLDENS, ids=golden_ids(HUMAN_GOLDENS)
)
def test_human_golden(argv, stdin_key, status, digest):
    assert run(argv, stdin_key, human=True) == (status, digest)


def test_json_builds_no_text(monkeypatch):
    # --json prints the records alone: no command builds the spaced rows of a
    # matrix or the dual's text matrix for it, while text output builds both
    def refuse(*args, **kwargs):
        raise AssertionError("built text")

    monkeypatch.setattr(cli, "_spaced", refuse)
    monkeypatch.setattr(cli, "serialize_matrix", refuse)
    for argv, stdin_key, status, _ in GOLDENS:
        assert output(argv, stdin_key)[0] == status, argv
    # GOLDENS holds --report-best searches with distances at n=32 and without
    # at n=512; this one is the text golden's walk without distances
    walk = ["search", "--n", "64", "--steps", "30", "--no-distance", "--report-best"]
    assert output(walk, None)[0] == 0
    for argv in (["dual", "fixture:G3"], ["neighborhood", "fixture:G4"], walk):
        with pytest.raises(AssertionError, match="built text"):
            output(argv, None, human=True)


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
