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
GRID = ("--grid", "4")
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
# the same commands on a lattice: no random number reaches these reports
for _cmd, _webs in (("linearize", ("xy4", "curved4", "lin5", "mixed3",
                                   "web4")),
                    ("check", ("lin5", "sin6", "cubic6")),
                    ("invariants", ("sin6", "cubic6"))):
    for _web in _webs:
        _code = 0 if _cmd == "invariants" or _web in ("xy4", "lin5") else 2
        CASES["%s-%s-grid4" % (_cmd, _web)] = (_cmd, _bench(_web), GRID, _code)
CASES["geodesic-nodes"] = ("geodesic", NODES, (
    "--from", "0.05,0.05", "--leaf", "5", "--T", "0.02", "--h", "0.002"), 0)

# sha256 of each case's stdout, recorded before the tensor-shaped jets;
# `geodesic-nodes` before the compiled expression programs, and
# `linearize-nodes` when the jet route's Christoffels came to be evaluated
# by the closed form instead of the frame bracket.  The benchmark webs have
# f_a = x_a for a <= n, so A = I and lambda is constant there, and their
# reports kept every digit; the nodes web has A != I and moved in the last
# digits.  The `connection-mixed3-*` cases moved with it in three
# `frame_gamma` rows, structurally zero entries that printed -0 and print 0.
# The eleven `--random` cases (`linearize-` xy4, curved4, lin5, mixed3,
# web4, nodes and mixed3-json, `check-` and `invariants-` sin6 and cubic6)
# were recorded again when the sampler came to draw its points with
# `random.Random` instead of numpy.random: every row's point moved, and
# with it every value.  The `-grid4` cases draw no random number; they
# were recorded before that change and held through it
DIGESTS = {
    "check-cubic6":
        "7ac7799d86b48ff1091bcc21487d4c9387c7bd7b488748cfad11a29db57e03a4",
    "check-cubic6-grid4":
        "aabc2c7095fe23715749b63ec986ff41d83f753d2d8ee5b1e7538c9f1f962d84",
    "check-lin5-grid4":
        "95b1e7b33be4ea498296c40f6cd2179294652f2b1ab3016ffa1b99db21e02e96",
    "check-sin6":
        "e97091d1d6a0ca9afd94307f1f2bc1943380180012461c0f229fae50ace00500",
    "check-sin6-grid4":
        "01a85bee2985b93197e83c29c37529a6fe8025776a56e69137a231257edb7e49",
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
        "2fd27ec27d4615607509a93cb5bb4ea1e985461bfcd06b293afee74fb6561b88",
    "invariants-cubic6-grid4":
        "264370bf38b5fc02ab1b8bfea31cec3ba35fb1a7f7d1352b6b96642de15ef10e",
    "invariants-sin6":
        "d6405dff9e91e23ce131dfa08ce1a0236fc8ecee45783772c450923c0278e837",
    "invariants-sin6-grid4":
        "11f7bd05db310e1960109fe22ed9765070385e5e4bc113ecf6b9fa790773a1d8",
    "linearize-curved4":
        "f0f40d3031313fb694b77ced604732a6ad4acc8617f24ed62e36baa2700c3df5",
    "linearize-curved4-grid4":
        "96b803f3a536527c755f73311a392c989bd8c668458c5463ab6769cc8663962a",
    "linearize-lin5":
        "1d551ba5bbe94be814943dcde4a66639d11b4d9c332392bbf921343cd4176483",
    "linearize-lin5-grid4":
        "c02d649ad9a21627fe0fce4329173e68f0bca29274505cd88faa9989630d8ac7",
    "linearize-mixed3":
        "31760af9a623b0b7ab76c8a78ee163fc99988b3186420eb14ee3828289c737d2",
    "linearize-mixed3-grid4":
        "e20c0220798a83f52dcb39d4ad24d25f12a1fcca3e4a07cbe06e8998cc9f8c9f",
    "linearize-mixed3-json":
        "ae79c96c2c5afe6d7ae724c488a583f354b0e110e820afc0ae36ca8c0a9a9631",
    "linearize-nodes":
        "a31de5c0e64c892c6b85117f563d2ff910d0b480ae48bcd7e363d764a2621280",
    "linearize-web4":
        "0e4e67907afe941ce43812715ee4c4e3865622f9f36e3b0e2fcd09e3c095b1ce",
    "linearize-web4-grid4":
        "54a21238dcfee8c2235e87b83b8074f70b2c3bcc3da0666ffe0b4cfea022289f",
    "linearize-xy4":
        "e81b999258c5289b140b4c6eaaa35fc06f8cf5781913fe30a750309b5967c095",
    "linearize-xy4-grid4":
        "afc4f2a5169a6a8e80d70c2c15cb9d83d772de12381681a4ee03512f11170735",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, capsys):
    command, path, args, code = CASES[case]
    argv = [command, path, *args]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[case]
