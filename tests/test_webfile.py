"""Web description files: schema validation, error reporting, digests."""

import hashlib
import json

import pytest

from geoweb.errors import WebFileError
from geoweb.webfile import load_webfile, parse_webfile


GOOD = {
    "dimension": 2,
    "functions": ["x1", "x2", "-(x1+x2)", "x1+2*x2+x1*x2"],
    "domain": {"center": [0.0, 0.0], "radius": 0.5},
}


def write(tmp_path, payload, name="web.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_valid_file_loads(tmp_path):
    web = load_webfile(write(tmp_path, GOOD))
    assert web.dim == 2
    assert web.d == 4
    assert web.radius == 0.5
    assert list(web.center) == [0.0, 0.0]


def test_pointed_and_labels_accepted(tmp_path):
    payload = dict(GOOD)
    payload["pointed"] = 4
    payload["labels"] = ["u", "v", "w", "z"]
    web = load_webfile(write(tmp_path, payload))
    assert web.pointed == 4
    assert web.labels[3] == "z"


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda p: p.update(dimension=1), "dimension"),
        (lambda p: p.update(dimension=2.5), "dimension"),
        (lambda p: p.update(functions=["x1", "x2", "x1+x2"]), "functions"),
        (lambda p: p.update(functions="x1"), "functions"),
        (lambda p: p.update(pointed=0), "pointed"),
        (lambda p: p.update(pointed=9), "pointed"),
        (lambda p: p.update(domain={"center": [0.0], "radius": 0.5}), "domain.center"),
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": 0.0}), "domain.radius"),
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": -1}), "domain.radius"),
        (lambda p: p.update(domain={"center": [0.0, "a"], "radius": 0.5}), "domain.center"),
        # NaN, Infinity and integers past the float range pass json.loads
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": float("inf")}), "domain.radius"),
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": float("nan")}), "domain.radius"),
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": 1e308}), "domain.radius"),
        (lambda p: p.update(domain={"center": [0.0, 0.0], "radius": 10 ** 400}), "domain.radius"),
        (lambda p: p.update(domain={"center": [float("nan"), 0.0], "radius": 0.5}), "domain.center"),
        (lambda p: p.update(domain={"center": [0.0, float("-inf")], "radius": 0.5}), "domain.center"),
        (lambda p: p.update(domain={"center": [1.5e308, 0.0], "radius": 5e307}), "domain.center"),
        (lambda p: p.update(domain={"center": [10 ** 400, 0.0], "radius": 0.5}), "domain.center"),
        (lambda p: p.update(labels=["a", "b"]), "labels"),
        (lambda p: p.update(extra=1), "extra"),
        (lambda p: p.pop("functions"), "functions"),
        (lambda p: p.pop("dimension"), "dimension"),
    ],
)
def test_schema_violations_name_the_field(tmp_path, mutate, field):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(WebFileError) as err:
        load_webfile(write(tmp_path, payload))
    assert err.value.field == field


def test_domain_at_the_float_range_loads(tmp_path):
    # |center| + radius and 2 * radius are finite, if barely
    payload = dict(GOOD, domain={"center": [1e308, -1e308],
                                 "radius": 7e307})
    web = load_webfile(write(tmp_path, payload))
    assert web.radius == 7e307


def test_bad_expression_reports_slot_and_offset(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["functions"][2] = "x1 + $"
    with pytest.raises(WebFileError) as err:
        load_webfile(write(tmp_path, payload))
    assert err.value.field == "functions[2]"
    assert "offset 5" in str(err.value)
    assert str(err.value).count("offset") == 1


def test_out_of_range_variable_rejected(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["functions"][3] = "x1+x3"
    with pytest.raises(WebFileError) as err:
        load_webfile(write(tmp_path, payload))
    assert err.value.field == "functions[3]"


def test_non_json_payload(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(WebFileError):
        load_webfile(path)


def test_deeply_nested_json_is_invalid(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(WebFileError):
        load_webfile(path)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(WebFileError):
        load_webfile(path)


def test_missing_file(tmp_path):
    with pytest.raises(WebFileError):
        load_webfile(tmp_path / "absent.json")


def test_parse_webfile_accepts_text():
    web = parse_webfile(json.dumps(GOOD), name="inline")
    assert web.d == 4


def test_digest_tracks_bytes(tmp_path):
    a = write(tmp_path, GOOD, "a.json")
    b = write(tmp_path, GOOD, "b.json")
    assert load_webfile(a).digest == load_webfile(b).digest
    payload = dict(GOOD, domain={"center": [0.0, 0.0], "radius": 0.25})
    c = write(tmp_path, payload, "c.json")
    assert load_webfile(a).digest != load_webfile(c).digest
    assert load_webfile(a).digest == hashlib.sha256(a.read_bytes()).hexdigest()
