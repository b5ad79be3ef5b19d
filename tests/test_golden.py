"""Golden reports: byte-identical stdout for fixed webs, flags and seeds.

Each case runs `cli.main` in this process on a benchmark web file, or on
`tests/webs/nodes.json`, whose functions use every kind of expression node
(constants, negation, the four operations, integral, negative and
non-integral constant powers, a variable exponent, every series function
and division by a non-constant), and compares the sha256 of its stdout
with a recorded hash.  The hashes hold the reports' bytes fixed across
refactors of the pipeline: a change that moves a single digit of any row
fails here.  Re-record a hash only for a change that is meant to move
report bytes, and say which rows moved.
"""

import hashlib
import os

import pytest

from geoweb import cli

HERE = os.path.dirname(__file__)
WEBS = os.path.join(HERE, os.pardir, "perfbench", "webs")
NODES = os.path.join(HERE, "webs", "nodes.json")
SAMPLE = ("--random", "20", "--seed", "1")
GEODESIC = {"xy4": ("--from", "0.1,0.05", "--leaf", "4", "--dir", "1,0",
                    "--T", "0.02", "--h", "0.002"),
            "mixed3": ("--from", "0.05,0.05,0.05", "--leaf", "5",
                       "--T", "0.01", "--h", "0.001"),
            "web4": ("--from", "0.05,0.05,0.05,0.05", "--leaf", "6",
                     "--T", "0.01", "--h", "0.001")}
AT = {"xy4": "0.1,-0.2", "mixed3": "0.1,-0.05,0.2"}


def _bench(web):
    return os.path.join(WEBS, web + ".json")


# case -> (command, web file, further arguments, exit code)
CASES = {}
for _web in ("xy4", "curved4", "lin5", "mixed3", "web4"):
    CASES["linearize-" + _web] = ("linearize", _bench(_web), SAMPLE,
                                  0 if _web in ("xy4", "lin5") else 2)
for _web in ("sin6", "cubic6"):
    CASES["check-" + _web] = ("check", _bench(_web), SAMPLE, 2)
    CASES["invariants-" + _web] = ("invariants", _bench(_web), SAMPLE, 0)
for _web in ("xy4", "mixed3"):
    for _gauge in ("zero", "pointed"):
        CASES["connection-%s-%s" % (_web, _gauge)] = (
            "connection", _bench(_web), ("--at", AT[_web], "--gauge", _gauge),
            0)
for _web, _args in GEODESIC.items():
    CASES["geodesic-" + _web] = ("geodesic", _bench(_web), _args, 0)
CASES["linearize-mixed3-json"] = (
    "linearize", _bench("mixed3"), ("--random", "5", "--seed", "2",
                                    "--format", "json"), 2)
CASES["linearize-nodes"] = ("linearize", NODES, SAMPLE, 2)
CASES["geodesic-nodes"] = ("geodesic", NODES, (
    "--from", "0.05,0.05", "--leaf", "5", "--T", "0.02", "--h", "0.002"), 0)

# sha256 of each case's stdout, recorded before the tensor-shaped jets;
# `geodesic-nodes` before the compiled expression programs, and
# `linearize-nodes` when the jet route's Christoffels came to be evaluated
# by the closed form instead of the frame bracket.  The benchmark webs have
# f_a = x_a for a <= n, so A = I and lambda is constant there, and their
# reports kept every digit; the nodes web has A != I and moved in the last
# digits.  The `connection-mixed3-*` cases moved with it in three
# `frame_gamma` rows, structurally zero entries that printed -0 and print 0
DIGESTS = {
    "check-cubic6":
        "54229bcf9e9ba7f764fabe8890c1859019afd4052a49f9ee356b99237977f25a",
    "check-sin6":
        "4a920ecdcaba6a8044ca39b00e9d88963844881485c1282ea6df469499efbfc0",
    "connection-mixed3-pointed":
        "bfa672c06c90bab96927a3189eca54f6de38a500df0622bed8d92c235539bd64",
    "connection-mixed3-zero":
        "3c94f204dda461821fdb67dce16b759e66ae421c9bd126603b04949138dbda0c",
    "connection-xy4-pointed":
        "91d0eb95d7b48e8ce9c3677971ce9dae97133a4d54b76e0ceea8cf7bfdc67100",
    "connection-xy4-zero":
        "67c2b59f843fdb8b3c9f256f552204201fd7b8317ba96abcfbe4339882963f89",
    "geodesic-nodes":
        "782ef86c483b5ec35c7e15f19c78bd87a6a1ecc391afa86007fd1e2d4e9b0bdb",
    "geodesic-mixed3":
        "799b5d581adb50772074fd11f5fecb16c015431ee75ed3c87e898a5840063b00",
    "geodesic-web4":
        "9823f8a212758658256f476a6aeb3d3c4340f979fe89f7cb6cdd4a07284a218e",
    "geodesic-xy4":
        "afc41ff519a78e7ae5d1a8c75b4eb1189eca298f7197c37e9f41807845fe5877",
    "invariants-cubic6":
        "b0a2474f1c02fc7f01546e7079e42784b6111fd5fe607512fa236285236009f0",
    "invariants-sin6":
        "c91ab90bc72dfa2d8f0bfa3e3a9a53a693007dfbdbe4e689b4d3b24f573c8ecd",
    "linearize-curved4":
        "951b413cf74151d39c4fc54554f7d2622343dfa3ff06da5d918e41b93ce2d5e4",
    "linearize-lin5":
        "de3ff81e8fa65e3d721df7e1b7865bebae13b20929cc3538ca5d296eb308bbf5",
    "linearize-mixed3":
        "49a567b9bf755e164892888d2f3d640e630e242cd34a3325d2e7fa6d1d5f0dfe",
    "linearize-mixed3-json":
        "8fade6065fd55eb5dd082f938a637ecdf48eb73bf50f3ecb5bdd3d22c234c289",
    "linearize-nodes":
        "60c87fe29ed18d7a9b5eb8d7470655cd9f753dc8bc9f5d054c7fc15beececead",
    "linearize-web4":
        "2ca3ccdbc57f8195f29f1641a9e4806533c06cd46f89aae7d4cefbaa507dd973",
    "linearize-xy4":
        "17d08b18062696c69efb02ed0045dbdc747d714dd8fc190896d42d2d46e07dc4",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, capsys):
    command, path, args, code = CASES[case]
    argv = [command, path, *args]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[case]
