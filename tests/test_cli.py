import ast
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rep_path
from fixture_builders import (
    genus2_fuchsian_moved,
    handle_moves,
    random_move_word,
    save_rep,
    sqrt2_conjugated,
)
from test_golden_reports import PRODUCTS, REPO, _golden
from tautclass import cli, complexes, configs, flatbundles, witt
from tautclass.cli import main
from tautclass.oracle import OracleError, rotation_euler
from tautclass.reps import SurfaceRep, load_rep


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _count_sampling(monkeypatch) -> list:
    """The calls the CLI makes to ``random_generic_section``, as they happen."""
    calls, sample = [], flatbundles.random_generic_section

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(flatbundles, "random_generic_section", counted)
    return calls


def test_verify_witt_relations(capsys):
    code, out = _run(capsys, "verify", "witt-relations", "--samples", "50", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "witt-relations"
    assert report["failures"] == []


def test_verify_euler_boundary_n4(capsys):
    code, out = _run(
        capsys, "verify", "euler-boundary", "--n", "4", "--samples", "10", "--seed", "1"
    )
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_alternation_quadratic_field(capsys):
    code, out = _run(
        capsys,
        "verify",
        "alternation",
        "--n",
        "2",
        "--samples",
        "20",
        "--field",
        "quad:2",
    )
    assert code == 0
    assert json.loads(out)["field"] == "Q(sqrt(2))"


def test_verify_smillie_reports_factor(capsys):
    code, out = _run(
        capsys, "verify", "smillie", "--rep", rep_path("g2_swap.json"), "--seed", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["factors"]["eu1"] == -3
    assert report["failures"] == []


def test_verify_comparison_with_oracle(capsys):
    code, out = _run(
        capsys,
        "verify",
        "comparison",
        "--rep",
        rep_path("g2_fuchs.json"),
        "--oracle",
    )
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["eu0"] == report["oracle"] == -1
    assert report["witt_signature"] == -4


def test_eval_reports_and_agreement(capsys):
    code, out = _run(
        capsys,
        "eval",
        "--rep",
        rep_path("g1_diag.json"),
        "--selector",
        "eu0",
        "--oracle",
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0 and report["oracle"] == 0 and report["agree"]


def test_oracle_out_of_float_range_is_unavailable_not_an_invalid_rep(capsys, tmp_path):
    # exactly valid (the relator closes), but the float relator residual
    # is far past the oracle's tolerance
    path = str(tmp_path / "fuchs_moved.json")
    save_rep(genus2_fuchsian_moved(), path)
    with pytest.raises(OracleError, match="relator residual"):
        rotation_euler(load_rep(path).float_matrices())
    code, out = _run(capsys, "eval", "--rep", path, "--selector", "eu0")
    assert code == 0 and json.loads(out)["value"] == -1
    code = main(["eval", "--rep", path, "--selector", "eu0", "--oracle"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 0
    assert (report["value"], report["oracle"], report["agree"]) == (-1, None, None)
    assert "oracle unavailable: relator residual" in err
    # the same matrices tagged GL+, so that comparison runs no witt check
    # (its square classes are past the factorization bound: exit 5)
    moved = genus2_fuchsian_moved()
    save_rep(SurfaceRep(moved.field, moved.genus, "GL+", moved.matrices), path)
    code, out = _run(capsys, "verify", "comparison", "--rep", path, "--oracle")
    report = json.loads(out)
    assert code == 0
    assert (report["eu0"], report["oracle"], report["failures"]) == (-1, None, [])
    # the exact result still sets the exit code: a selector the oracle
    # does not compare reports no agreement at all
    code, out = _run(capsys, "eval", "--rep", path, "--selector", "eu", "--oracle")
    assert code == 0 and "agree" not in json.loads(out)


def test_eval_euplus_notes_core(capsys):
    code, out = _run(
        capsys, "eval", "--rep", rep_path("g2_swap.json"), "--selector", "euplus"
    )
    assert code == 0
    report = json.loads(out)
    assert report["core"] is True


def test_eval_witt_invariants(capsys):
    code, out = _run(
        capsys, "eval", "--rep", rep_path("g2_fuchs.json"), "--selector", "witt"
    )
    assert code == 0
    report = json.loads(out)
    assert report["invariants"]["signature"] == -4


@pytest.mark.parametrize(
    "rep, reason",
    [
        ("g2_solved_1.json", "the witt selector needs an SL(2, Q) bundle"),  # GL+
        ("g2_rank1.json", "cycle dimension 2 != fiber dimension 1"),
    ],
)
def test_eval_witt_outside_sl2_q_is_a_usage_error(capsys, monkeypatch, rep, reason):
    # check_usage applies the whole witt rule (n = 2, over Q, tag SL) before any sampling
    sampled = _count_sampling(monkeypatch)
    assert main(["eval", "--rep", rep_path(rep), "--selector", "witt"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {reason}\n")
    assert sampled == []


def test_eval_determinism(capsys):
    args = ("eval", "--rep", rep_path("g2_swap.json"), "--selector", "euplus", "--seed", "5")
    _, out1 = _run(capsys, *args)
    _, out2 = _run(capsys, *args)
    assert out1 == out2


def test_verify_determinism(capsys):
    args = ("verify", "witt-cocycle", "--samples", "10", "--seed", "2")
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_product_command(capsys):
    code, out = _run(
        capsys,
        "product",
        "--repA",
        rep_path("g1_diag.json"),
        "--repB",
        rep_path("g1_diag2.json"),
        "--seed",
        "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["euler_A"] == report["euler_B"] == 0
    assert report["euler_product"] == 0
    assert report["cross_product_check"] and report["cup_check"]


def test_product_strong_genericity_exhaustion_exit_code(capsys):
    # unipotent holonomies force zero-sum relations: no strongly generic
    # section exists and the command reports resampling exhaustion
    code = main(
        [
            "product",
            "--repA",
            rep_path("g1_parab.json"),
            "--repB",
            rep_path("g1_diag.json"),
        ]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "genericity exhausted: no generic value found at vertex 0 after 2001 "
        "rejections (last bound 36864); the bundle admits no generic section "
        "on this support\n"
    )


@pytest.mark.parametrize("repA, repB", [("g2_rank1.json", "g2_fuchs.json"), ("g2_fuchs.json", "g2_rank1.json")])
def test_product_refuses_a_factor_whose_rank_is_not_its_cycle_dimension(
    capsys, monkeypatch, repA, repB
):
    # the usage error eval gives for the same representation, before any sampling
    sampled = _count_sampling(monkeypatch)
    assert main(["product", "--repA", rep_path(repA), "--repB", rep_path(repB)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: cycle dimension 2 != fiber dimension 1\n"
    assert sampled == []


def test_product_refuses_factors_over_different_fields(capsys, monkeypatch, tmp_path):
    conj = tmp_path / "g2_fuchs_sqrt2.json"
    save_rep(sqrt2_conjugated(load_rep(rep_path("g2_fuchs.json"))), str(conj))
    sampled = _count_sampling(monkeypatch)
    assert main(["product", "--repA", rep_path("g2_fuchs.json"), "--repB", str(conj)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: product of bundles over different fields\n")
    assert sampled == []


def test_verify_rep_suite_reports_its_bundles_n_and_field(capsys):
    # a --rep suite reports its bundle's n and field, not --n, and no --samples
    code, out = _run(
        capsys, "verify", "comparison", "--rep", rep_path("g2_fuchs.json"), "--n", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert (report["n"], report["field"]) == (2, "Q")
    assert "samples" not in report
    assert list(report)[:5] == ["suite", "seed", "n", "field", "failures"]


def test_verify_witt_suite_omits_n_and_field(capsys):
    # the Witt suites run on 2x2 matrices over Q, whatever --n and --field say
    code, out = _run(capsys, "verify", "witt-cocycle", "--n", "7", "--field", "quad:2")
    assert code == 0
    report = json.loads(out)
    assert "n" not in report and "field" not in report
    assert list(report) == ["suite", "samples", "seed", "failures"]


def test_exit_codes(capsys, tmp_path):
    # unknown suite: argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    # relator failure: exit 3
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": "Q",
                "genus": 1,
                "tag": "SL",
                "matrices": [
                    [["1", "1"], ["0", "1"]],
                    [["1", "0"], ["1", "1"]],
                ],
            }
        )
    )
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
    # missing file: exit 2
    assert main(["eval", "--rep", "missing.json", "--selector", "eu0"]) == 2
    # decimal entries refused by the exact pipeline: exit 3
    dec = tmp_path / "dec.json"
    dec.write_text(
        json.dumps(
            {
                "field": "Q",
                "genus": 1,
                "tag": "SL",
                "matrices": [
                    [["2.0", "0"], ["0", "0.5"]],
                    [["3.0", "0"], ["0", "0.333"]],
                ],
            }
        )
    )
    assert main(["eval", "--rep", str(dec), "--selector", "eu0"]) == 3


_UNIPOTENT = [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]
_ONE = [["1", "0"], ["0", "1"]]
# valid by the file format, but past CPython's 4,300-digit int() limit
_BIG = "1" + "0" * 4999


@pytest.mark.parametrize(
    "field, tag, matrices, message",
    [
        ("Q", "SL", _UNIPOTENT, "relator is not the identity; residual Matrix[3 -1; 1 0]"),
        (
            "Q",
            "P+GL+",
            [[["2", "1"], ["1", "1"]], [["1", "0"], ["1", "1"]]],
            "relator is not the identity; residual Matrix[3 -1; 1 0]",
        ),
        (
            "Q",
            "SL",
            _UNIPOTENT + [[["2", "1/2"], ["0", "1/2"]], [["1", "0"], ["3", "1"]]],
            "relator is not the identity; residual Matrix[12 -5/2; 4 -3/4]",
        ),
        (
            {"quad": 2},
            "SL",
            [[["1", "sqrt(2)"], ["0", "1"]], [["1", "0"], ["1/2", "1"]]],
            "relator is not the identity; residual "
            "Matrix[3/2+1/2*sqrt(2) -1; 1/4*sqrt(2) 1-1/2*sqrt(2)]",
        ),
        ("Q", "SL", [[["2", "0"], ["0", "1"]], _ONE], "tag SL needs det 1, got det 2"),
        ("Q", "SL", [[["2", "0"], ["0", "1/3"]], _ONE], "tag SL needs det 1, got det 2/3"),
        (
            {"quad": 2},
            "SL",
            [[["sqrt(2)", "0"], ["0", "1"]], _ONE],
            "tag SL needs det 1, got det 1*sqrt(2)",
        ),
        (
            "Q",
            "GL+",
            [[[_BIG, "0"], ["0", "1"]], _ONE],
            f"key 'matrices': entry '{_BIG[:79]} exceeds Python's 4,300-digit integer-string limit",
        ),
        (
            "Q",
            "SL",
            [[["1/0", "0"], ["0", "1"]], _ONE],
            "key 'matrices': cannot parse entry '1/0'",
        ),
        (
            {"quad": 2},
            "SL",
            [[["1/0+sqrt(2)", "0"], ["0", "1"]], _ONE],
            "key 'matrices': cannot parse entry '1/0+sqrt(2)'",
        ),
        ({"quad": 2.0}, "SL", [_ONE, _ONE], "key 'field': bad field spec {'quad': 2.0}"),
        ({"quad": True}, "SL", [_ONE, _ONE], "key 'field': bad field spec {'quad': True}"),
    ],
    ids=[
        "relator", "relator-P+GL+", "relator-g2", "relator-quad", "det", "det-frac", "det-quad",
        "int-string-limit", "zero-denominator", "zero-denominator-quad", "float-d", "bool-d",
    ],
)
def test_eval_invalid_representation_stderr(capsys, tmp_path, field, tag, matrices, message):
    # the texts the relator check gave before validation decided the relator
    bad = tmp_path / "bad.json"
    rep = {"field": field, "genus": len(matrices) // 2, "tag": tag, "matrices": matrices}
    bad.write_text(json.dumps(rep))
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
    assert capsys.readouterr() == ("", f"invalid representation: {message}\n")


@pytest.mark.parametrize("where", ["file", "--field"])
def test_a_quadratic_d_past_the_limit_is_refused_at_once(capsys, tmp_path, where):
    # squarefreeness is decided by trial division up to 10**6: every d < 10**18
    d = 10**40 + 1
    rep = tmp_path / "rep.json"
    data = {"field": {"quad": d}, "genus": 1, "tag": "SL", "matrices": [_ONE, _ONE]}
    rep.write_text(json.dumps(data))
    t0 = time.perf_counter()
    if where == "file":
        code = main(["eval", "--rep", str(rep), "--selector", "eu0"])
    else:
        with pytest.raises(SystemExit) as info:
            main(["verify", "euler-boundary", "--field", f"quad:{d}", "--samples", "1"])
        code = info.value.code
    assert time.perf_counter() - t0 < 1
    assert code == {"file": 3, "--field": 2}[where]
    assert "squarefree integer with 1 < d < 10**18, got 1" in capsys.readouterr().err


def test_fixture_dir_env(capsys, monkeypatch, fixtures_dir):
    monkeypatch.setenv("TAUTCLASS_FIXTURES", str(fixtures_dir))
    code, out = _run(capsys, "eval", "--rep", "g1_diag.json", "--selector", "eu0")
    assert code == 0


def test_csv_output(capsys):
    code, out = _run(
        capsys,
        "verify",
        "witt-relations",
        "--samples",
        "5",
        "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("suite,witt-relations") for line in lines)


@pytest.mark.parametrize("selector", ["eu0", "euplus", "witt"])
def test_sqrt_entry_in_a_rational_rep_is_invalid_representation(capsys, tmp_path, selector):
    # a Q representation holds rationals only; sqrt(2) belongs to Q(sqrt(2))
    data = json.loads(Path(rep_path("g1_diag.json")).read_text())
    data["matrices"][0] = [["1+sqrt(2)", "0"], ["0", "-1+sqrt(2)"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out = _run(capsys, "eval", "--rep", str(bad), "--selector", selector)
    assert (code, out) == (3, "")


@pytest.mark.parametrize("key", ["field", "genus", "tag", "matrices"])
def test_rep_without_key_is_invalid_representation(capsys, tmp_path, key):
    data = json.loads(Path(rep_path("g2_fuchs.json")).read_text())
    del data[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
    err = capsys.readouterr().err
    assert err == f"invalid representation: missing key {key!r}\n"


def test_rep_with_ill_typed_genus_or_broken_json(capsys, tmp_path):
    data = json.loads(Path(rep_path("g2_fuchs.json")).read_text())
    data["genus"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
    assert "key 'genus' must be a positive integer" in capsys.readouterr().err
    for text in (b"{not json", b"\xff\xfe"):  # the second is not UTF-8
        bad.write_bytes(text)
        assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid representation: not a JSON file")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda text: text.replace('"genus": 1', '"genus": 1' + "0" * 5000),
            "Exceeds the limit (4300 digits) for integer string conversion",
        ),
        (lambda text: "[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["int-string-limit", "deep-nesting"],
)
def test_json_that_cannot_be_read_is_an_invalid_representation(capsys, tmp_path, edit, message):
    # written as text: json.dumps cannot write a 5,001-digit int
    text = Path(rep_path("g1_diag.json")).read_text()
    assert '"genus": 1' in text
    bad = tmp_path / "bad.json"
    bad.write_text(edit(text))
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"invalid representation: not a JSON file: {message}")


def test_directory_as_rep_is_a_missing_file(capsys, monkeypatch, fixtures_dir, tmp_path):
    assert main(["eval", "--rep", str(fixtures_dir), "--selector", "eu0"]) == 2
    assert capsys.readouterr() == ("", f"missing file: {fixtures_dir}\n")
    # nor does a directory of that name under TAUTCLASS_FIXTURES resolve
    (tmp_path / "g1_diag.json").mkdir()
    monkeypatch.setenv("TAUTCLASS_FIXTURES", str(tmp_path))
    monkeypatch.chdir(tmp_path.parent)
    assert main(["eval", "--rep", "g1_diag.json", "--selector", "eu0"]) == 2


@pytest.mark.parametrize(
    "value, bound, bits",
    [(1_000_003 * 1_000_033, 10**6, 40), (13**4501, 10, 16656)],
    ids=["two-primes", "past-int-string-limit"],
)
def test_factorization_bound_has_its_own_exit_code(capsys, monkeypatch, value, bound, bits):
    # an uncertified cofactor: two primes above the trial-division bound 10^6,
    # or 5,014 digits, more than CPython writes as a string (its message names
    # the bit length; the low bound spares the trial division)
    monkeypatch.setattr(witt, "DEFAULT_FACTOR_BOUND", bound)
    monkeypatch.setattr(cli, "_random_rational", lambda rng, bound=99: Fraction(value))
    code = main(["verify", "witt-relations", "--samples", "1"])
    assert code == cli.EXIT_FACTOR_BOUND == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"factorization bound exceeded: cofactor of {bits} bits exceeds bound {bound}\n"
    )


def test_uncaught_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args, rng):
        raise KeyError("lost")

    monkeypatch.setitem(cli.SUITES, "witt-relations", broken)
    code = main(["verify", "witt-relations"])
    assert code == cli.EXIT_INTERNAL == 6
    assert code != cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.endswith("internal error: KeyError('lost')\n")


class _ClosedPipe:
    """A stdout whose reader has gone away, as behind ``| head -c 100``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main(["eval", "--rep", rep_path("g2_fuchs.json"), "--selector", "witt"])
    assert code == cli.EXIT_CLOSED_STDOUT == 141
    assert capsys.readouterr().err == ""


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(args, rng):
        raise ValueError("need n+1 vectors in K^n")

    monkeypatch.setitem(cli.SUITES, "witt-relations", broken)
    assert main(["verify", "witt-relations"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.endswith(
        "internal error: ValueError('need n+1 vectors in K^n')\n"
    )


@pytest.mark.parametrize("selector", ["euk:x", "eu1", "euk:5"])
def test_bad_selector_is_a_usage_error(capsys, selector):
    argv = ["eval", "--rep", rep_path("g2_fuchs.json"), "--selector", selector]
    assert main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("tag", "SO"),
        ("matrices", [[["2", "0"], ["0", "1/2"]]]),
        ("matrices", [[["1", "0"], ["0", "1"]]] * 3 + [[["1", "0", "0"]]]),
    ],
)
def test_malformed_rep_is_an_invalid_representation(capsys, tmp_path, key, value):
    data = json.loads(Path(rep_path("g2_fuchs.json")).read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--rep", str(bad), "--selector", "eu0"]) == cli.EXIT_BAD_REP
    assert capsys.readouterr().err.startswith(f"invalid representation: key '{key}'")


@pytest.mark.parametrize(
    "argv",
    [
        ["alternation", "--n", "0"],
        ["euler-boundary", "--n", "-2"],
        ["euler-boundary", "--n", "0"],
        ["euler-boundary", "--samples", "-3"],
        ["witt-relations", "--samples", "0"],
        ["alternation", "--samples", "x"],
    ],
)
def test_verify_rejects_out_of_range_sizes(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be an integer >= 1" in captured.err


def _colliding_scalar_sets(monkeypatch, collide):
    """Wrap scalar_set; ``collide(k)`` makes every B draw collide with the k-th A seen.

    The first call is on bundle A; its sections are collected in draw order.
    """
    seen, a_sets = [], []
    real = flatbundles.scalar_set

    def fake(bundle, s):
        out = real(bundle, s)
        if not a_sets or bundle is a_sets[0][0]:
            seen.append(s)
            a_sets.append((bundle, out))
            return out
        return out | a_sets[-1][1] if collide(len(seen) - 1) else out

    monkeypatch.setattr(flatbundles, "scalar_set", fake)
    return seen


PRODUCT_ARGV = [
    "product",
    "--repA",
    rep_path("g1_diag.json"),
    "--repB",
    rep_path("g1_diag2.json"),
    "--seed",
    "1",
]


def test_product_draws_a_fresh_a_after_ten_collisions(capsys, monkeypatch):
    seen = _colliding_scalar_sets(monkeypatch, lambda k: k == 0)
    code, out = _run(capsys, *PRODUCT_ARGV)
    assert code == 0
    report = json.loads(out)
    assert len(seen) == 2
    assert seen[0].values != seen[1].values
    assert 10 < report["resample_attempts"] <= 20
    assert report["scalars_disjoint"]
    assert report["cross_product_check"] and report["cup_check"]


def test_product_exits_4_when_every_a_collides(capsys, monkeypatch):
    seen = _colliding_scalar_sets(monkeypatch, lambda k: True)
    assert main(PRODUCT_ARGV) == cli.EXIT_RESAMPLING
    assert len(seen) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "could not reach disjoint scalar sets\n"


def test_product_recovers_from_an_unlucky_a(capsys):
    # all of the first 10 B draws collide with this seed's first section A
    g2 = rep_path("g2_fuchs.json")
    code, out = _run(capsys, "product", "--repA", g2, "--repB", g2, "--seed", "30843")
    assert code == 0
    report = json.loads(out)
    assert report["resample_attempts"] == 11
    assert report["euler_product"] == 1
    assert report["cross_product_check"] and report["cup_check"]


def test_product_computes_each_sections_scalar_set_once(capsys, monkeypatch):
    # 11 attempts draw 2 sections A and 11 sections B: 13 scalar sets, not 22
    calls = []
    real = flatbundles.scalar_set
    monkeypatch.setattr(
        flatbundles, "scalar_set", lambda bundle, s: calls.append(s) or real(bundle, s)
    )
    g2 = rep_path("g2_fuchs.json")
    code, out = _run(capsys, "product", "--repA", g2, "--repB", g2, "--seed", "30843")
    assert code == 0
    assert json.loads(out)["resample_attempts"] == 11
    assert len(calls) == 13
    assert len({id(s) for s in calls}) == 13


def test_product_builds_no_product_complex(capsys, monkeypatch):
    # the product is read from the factors' corner lifts: no product complex
    # or product bundle, and every lift made is kept in its factor's cache
    def refused(*args):
        raise AssertionError("the explicit product was built")

    monkeypatch.setattr(complexes.ProductComplex, "__init__", refused)
    monkeypatch.setattr(flatbundles.ProductBundle, "_lift", refused)
    bundles, made = [], []
    load, lift = cli._load_bundle, flatbundles.FlatBundle._lift

    def loaded(path):
        out = load(path)
        bundles.append(out[-1])
        return out

    def lifted(self, eid, vec):
        made.append((bundles.index(self), (eid, vec)))
        return lift(self, eid, vec)

    monkeypatch.setattr(cli, "_load_bundle", loaded)
    monkeypatch.setattr(flatbundles.FlatBundle, "_lift", lifted)
    monkeypatch.chdir(REPO)
    argv = ["product", "--repA", "fixtures/g2_fuchs.json", "--repB", "fixtures/g2_fuchs.json"]
    argv += ["--seed", "0"]
    expected = _golden(PRODUCTS)[" ".join(argv)]
    assert (main(argv), capsys.readouterr().out) == (expected["exit"], expected["stdout"])
    assert len(bundles) == 2
    caches = [(i, key) for i, bundle in enumerate(bundles) for key in bundle._lifts]
    assert len(made) == len(caches) > 0
    assert sorted(made, key=repr) == sorted(caches, key=repr)


def test_product_folds_each_class_once(capsys, monkeypatch):
    # one symbol_sum per factor and one for the product: the cup value is
    # euA * euB, so no factor is evaluated again for its per-simplex symbols
    modes, details = [], []
    fold, evaluate = configs.symbol_sum, flatbundles.evaluate_class

    def folded(mode, n, terms):
        modes.append((mode, n))
        return fold(mode, n, terms)

    def evaluated(*args, **kwargs):
        details.append(kwargs.get("detail", False))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(configs, "symbol_sum", folded)
    monkeypatch.setattr(flatbundles, "evaluate_class", evaluated)
    g2 = rep_path("g2_fuchs.json")
    code, out = _run(capsys, "product", "--repA", g2, "--repB", g2)
    assert code == 0
    report = json.loads(out)
    assert report["cup_value"] == report["euler_A"] * report["euler_B"] == report["euler_product"]
    assert modes == [("P+", 2), ("P+", 2), ("P+", 4)]
    assert details == [False, False]


def test_cli_imports_no_explicit_product():
    # the explicit product stays the tests' reference; the CLI reads none of it
    names = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    explicit = {"product_complex", "product_bundle", "product_chain", "cup_evaluate"}
    assert names & (explicit | {"ProductComplex", "ProductBundle"}) == set()


def test_oracle_past_the_float_range_is_unavailable(capsys, tmp_path):
    # 40 within-handle moves give entries of up to 1,597 digits: exact
    # arithmetic is unaffected, but float() of an entry overflows
    rep = handle_moves(
        load_rep(rep_path("g2_fuchs.json")), random_move_word(random.Random(0), 2, 40)
    )
    with pytest.raises(OverflowError):
        rep.float_matrices()
    path = str(tmp_path / "g2_fuchs_moved40.json")
    save_rep(rep, path)
    code = main(["eval", "--rep", path, "--selector", "eu0", "--oracle"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 0
    assert (report["value"], report["oracle"], report["agree"]) == (-1, None, None)
    assert "oracle unavailable: integer division result too large for a float\n" in err
    # comparison shares the oracle; tagged GL+, it runs no witt check
    save_rep(SurfaceRep(rep.field, rep.genus, "GL+", rep.matrices), path)
    code, out = _run(capsys, "verify", "comparison", "--rep", path, "--oracle")
    report = json.loads(out)
    assert code == 0
    assert (report["eu0"], report["oracle"], report["failures"]) == (-1, None, [])


def _count_sweeps(monkeypatch):
    """Count the minor sweeps of ``configs`` and the vectors ``verify`` draws."""
    sweeps, vectors = [], []
    real_minors, real_maximal = configs.minors_int, configs.maximal_minors_int
    real_vector = flatbundles.random_vector
    monkeypatch.setattr(
        configs, "minors_int", lambda rows, n: sweeps.append(n) or real_minors(rows, n)
    )
    monkeypatch.setattr(
        configs,
        "maximal_minors_int",
        lambda rows: sweeps.append(len(rows) - 1) or real_maximal(rows),
    )
    monkeypatch.setattr(
        flatbundles, "random_vector", lambda *a: vectors.append(a) or real_vector(*a)
    )
    return sweeps, vectors


@pytest.mark.parametrize(
    "argv, per_draw, draws",
    [
        # P and P+ folded from the one sweep that decided genericity
        (["euler-boundary", "--n", "4", "--field", "quad:2"], 6, 10),
        # P, P+ and witt: 2 of the 12 draws are rejected
        (["euler-boundary", "--n", "2"], 4, 12),
    ],
)
def test_euler_boundary_sweeps_each_draw_once(capsys, monkeypatch, argv, per_draw, draws):
    sweeps, vectors = _count_sweeps(monkeypatch)
    code, out = _run(capsys, "verify", *argv, "--samples", "10", "--seed", "0")
    assert code == 0 and json.loads(out)["failures"] == []
    assert len(vectors) == per_draw * draws
    assert len(sweeps) == draws


def test_alternation_sweeps_the_draw_and_its_swap_once_each(capsys, monkeypatch):
    # 11 draws of 3 vectors, 1 rejected: one sweep per draw, one per swapped tuple
    sweeps, vectors = _count_sweeps(monkeypatch)
    code, out = _run(capsys, "verify", "alternation", "--n", "2", "--samples", "10", "--seed", "0")
    assert code == 0 and json.loads(out)["failures"] == []
    assert len(vectors) == 3 * 11
    assert len(sweeps) == 11 + 10


@pytest.mark.parametrize(
    "suite, rep, selectors",
    [
        ("smillie", "g2_swap.json", ["euplus"]),
        ("comparison", "g2_fuchs.json", ["euplus", "witt"]),
    ],
)
def test_class_suites_evaluate_each_class_once(capsys, monkeypatch, suite, rep, selectors):
    # every eu_k is a coefficient of the one euplus evaluation, and eu its pushforward
    kinds = []
    real = flatbundles.evaluate_class
    monkeypatch.setattr(
        flatbundles,
        "evaluate_class",
        lambda bundle, s, selector, z: kinds.append(str(selector)) or real(bundle, s, selector, z),
    )
    code, _ = _run(capsys, "verify", suite, "--rep", rep_path(rep))
    assert code == 0
    assert sorted(kinds) == selectors


def test_comparison_checks_the_homological_core_once(capsys, monkeypatch):
    # euplus = 0+ is off the core: sum_a (n - 2a + 1) c_a = 3, reported by one check only
    real = flatbundles.evaluate_class

    def off_core(bundle, s, selector, z):
        if selector.kind == "euplus":
            return configs.UPlusSymbol(2, (1, 0))
        return real(bundle, s, selector, z)

    monkeypatch.setattr(flatbundles, "evaluate_class", off_core)
    code, out = _run(capsys, "verify", "comparison", "--rep", rep_path("g2_fuchs.json"))
    assert code == 1
    failures = json.loads(out)["failures"]
    assert [f["check"] for f in failures] == ["eu=2^n*eu0", "homological-core", "witt-signature"]
    assert failures[1] == {"check": "homological-core", "euplus": [1, 0]}
