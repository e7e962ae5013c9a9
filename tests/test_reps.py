import json

import pytest

from fixture_builders import (
    BUILTIN_FIXTURES,
    genus2_fuchsian,
    genus2_solved,
    save_rep,
    scalar_multiple_of_identity,
    write_fixtures,
)
from tautclass.exactmath import Matrix
from tautclass.flatbundles import relator_product
from tautclass.reps import RepFormatError, load_rep, rep_from_dict


def test_all_fixture_files_load(fixtures_dir):
    for name in BUILTIN_FIXTURES:
        rep = load_rep(str(fixtures_dir / name))
        assert len(rep.matrices) == 2 * rep.genus
        assert scalar_multiple_of_identity(relator_product(rep.matrices)) == 1


def test_builders_rebuild_every_committed_fixture_byte_for_byte(fixtures_dir, tmp_path):
    written = write_fixtures(str(tmp_path))
    assert sorted(p.name for p in fixtures_dir.glob("*.json")) == sorted(BUILTIN_FIXTURES)
    assert len(written) == len(BUILTIN_FIXTURES) == 15
    for name in BUILTIN_FIXTURES:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


def test_rep_roundtrip(tmp_path):
    rep = genus2_fuchsian()
    path = tmp_path / "rep.json"
    save_rep(rep, str(path))
    back = load_rep(str(path))
    assert back.matrices == rep.matrices
    assert back.tag == rep.tag and back.field == rep.field


def test_fuchsian_construction_properties():
    rep = genus2_fuchsian()
    a, b, a2, b2 = rep.matrices
    for m in rep.matrices:
        assert m.det() == 1
    c = a @ b @ a.inverse() @ b.inverse()
    tr = c.rows[0][0] + c.rows[1][1]
    assert tr < -2  # hyperbolic one-holed-torus region
    c2 = a2 @ b2 @ a2.inverse() @ b2.inverse()
    assert c @ c2 == Matrix.identity(2)


def test_solved_family_structure():
    rep = genus2_solved(3)
    a1, b1, a2, b2 = rep.matrices
    c = (a1 @ b1 @ a1.inverse() @ b1.inverse()).inverse()
    assert a2 @ b2 @ a2.inverse() @ b2.inverse() == c
    assert b2.det() > 0


def test_decimal_entries_are_a_format_error():
    data = {
        "field": "Q",
        "genus": 1,
        "tag": "SL",
        "matrices": [
            [["2.0", "0"], ["0", "0.5"]],
            [["3", "0"], ["0", "1/3"]],
        ],
    }
    with pytest.raises(RepFormatError, match=r"key 'matrices': cannot parse entry '2\.0'"):
        rep_from_dict(data)


def test_fixture_env_resolution(monkeypatch, fixtures_dir, tmp_path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_rep("g1_diag.json")
    monkeypatch.setenv("TAUTCLASS_FIXTURES", str(fixtures_dir))
    assert load_rep("g1_diag.json").genus == 1


def test_rep_format_errors_name_the_key():
    good = {
        "field": "Q",
        "genus": 1,
        "tag": "SL",
        "matrices": [[["2", "0"], ["0", "1/2"]], [["3", "0"], ["0", "1/3"]]],
    }
    assert rep_from_dict(good).genus == 1
    for key, bad_value, text in [
        ("field", "R", "key 'field'"),
        ("field", {"quad": 4}, "key 'field'"),
        ("genus", True, "key 'genus'"),
        ("genus", 0, "key 'genus'"),
        ("tag", 3, "key 'tag'"),
        ("matrices", [["1"]], "key 'matrices'"),
        ("matrices", [[["x"]]], "key 'matrices'"),
    ]:
        with pytest.raises(RepFormatError, match=text):
            rep_from_dict({**good, key: bad_value})
    for key in good:
        data = dict(good)
        del data[key]
        with pytest.raises(RepFormatError, match=f"missing key '{key}'"):
            rep_from_dict(data)


def test_an_unparsable_entry_is_echoed_to_80_characters():
    # as the other format errors echo a value (an entry past the int-string
    # limit is named as such: test_cli's invalid-representation cases)
    matrices = [[["x" * 5000, "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]
    data = {"field": "Q", "genus": 1, "tag": "GL+", "matrices": matrices}
    with pytest.raises(RepFormatError) as info:
        rep_from_dict(data)
    assert str(info.value) == f"key 'matrices': cannot parse entry '{'x' * 79}"
