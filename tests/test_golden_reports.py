"""Byte-for-byte regression of CLI reports against recorded goldens.

Each case runs ``cli.main`` in-process from the repository root with
relative fixture paths and compares the exit code and the exact stdout
with ``golden/reports.json``.  Every ``eval`` selector is recorded on
every fixture, including the combinations that exit non-zero, plus one
genus-2 ``product`` and the ``verify`` suites that sample tuples or
read a class several ways (``VERIFY``, at two seeds each).
``golden/products.json`` adds ``product`` reports
of g2_fuchs with every genus-2 rank-2 fixture at two seeds each, and the
usage errors (exit 2, empty stdout) of a product with the rank-1 fixture
as either factor.

Regenerate the goldens (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
PRODUCTS = GOLDEN.with_name("products.json")
SELECTORS = ["eu0", "eu", "euk:1", "euplus", "witt"]
GENUS2_RANK2 = ["g2_fuchs", "g2_swap", "g2_swap2"] + [f"g2_solved_{i}" for i in range(1, 9)]
VERIFY = [
    ["euler-boundary", "--n", "2", "--samples", "20"],
    ["euler-boundary", "--n", "3", "--samples", "20"],
    ["euler-boundary", "--n", "4", "--samples", "10"],
    ["euler-boundary", "--n", "4", "--field", "quad:2", "--samples", "10"],
    ["alternation", "--n", "2", "--samples", "20"],
    ["alternation", "--n", "3", "--samples", "20"],
    ["alternation", "--n", "2", "--field", "quad:2", "--samples", "20"],
    ["smillie", "--rep", "fixtures/g2_swap.json"],
    ["comparison", "--rep", "fixtures/g2_fuchs.json", "--oracle"],
]


def _commands() -> list[list[str]]:
    fixtures = sorted(p.name for p in (REPO / "fixtures").glob("*.json"))
    cmds = [
        ["eval", "--rep", f"fixtures/{name}", "--selector", sel, "--seed", "3"]
        for name in fixtures
        for sel in SELECTORS
    ]
    cmds.append(
        ["product", "--repA", "fixtures/g2_fuchs.json", "--repB", "fixtures/g2_swap.json"]
    )
    cmds += [["verify", *suite, "--seed", str(seed)] for suite in VERIFY for seed in (0, 7)]
    return cmds


def _product_commands() -> list[list[str]]:
    pairs = [("g2_fuchs", b) for b in GENUS2_RANK2]
    pairs += [("g2_fuchs", "g2_rank1"), ("g2_rank1", "g2_fuchs")]
    return [
        ["product", "--repA", f"fixtures/{a}.json", "--repB", f"fixtures/{b}.json"]
        + ["--seed", str(seed)]
        for a, b in pairs
        for seed in (0, 7)
    ]


def _golden(path: Path) -> dict[str, dict]:
    return {" ".join(case["argv"]): case for case in json.loads(path.read_text())}


def _check(path: Path, argv: list[str], capsys, monkeypatch) -> None:
    from tautclass.cli import main

    monkeypatch.chdir(REPO)
    expected = _golden(path)[" ".join(argv)]
    code = main(list(argv))
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_report_matches_golden(argv, capsys, monkeypatch):
    _check(GOLDEN, argv, capsys, monkeypatch)


@pytest.mark.parametrize("argv", _product_commands(), ids=" ".join)
def test_product_report_matches_golden(argv, capsys, monkeypatch):
    _check(PRODUCTS, argv, capsys, monkeypatch)


if __name__ == "__main__":
    import contextlib
    import io
    import os

    from tautclass.cli import main

    os.chdir(REPO)
    for path, commands in ((GOLDEN, _commands()), (PRODUCTS, _product_commands())):
        cases = []
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            cases.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
        path.write_text(json.dumps(cases, indent=1) + "\n")
        print(f"wrote {len(cases)} cases to {path}")
