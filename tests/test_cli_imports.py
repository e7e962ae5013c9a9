"""Each command loads only the modules it runs, and the exit-code exceptions
keep their old import paths.

A fresh process compiles every module it imports (there is no bytecode
cache in a new checkout), so the command's start-up cost is the code it
loads.  The first test runs each command in its own interpreter and reads
the ``tautclass`` modules it left in ``sys.modules``; the seven runs take
about 1 s together.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO, rep_path
from tautclass import cli, configs, errors, flatbundles, reps, witt

CHILD = """
import os, sys
from tautclass import cli
out, sys.stdout = sys.stdout, open(os.devnull, "w")
code = cli.main(sys.argv[1:])
sys.stdout = out
print(code, *sorted(name for name in sys.modules if name.startswith("tautclass")))
"""


def _loaded(argv) -> tuple[int, set]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, *names = proc.stdout.split()
    return int(code), {name.removeprefix("tautclass") for name in names}


WITT_ONLY = {"", ".cli", ".errors", ".witt"}
NO_BUNDLES = {".flatbundles", ".complexes", ".reps", ".oracle"}
NO_REPS = {".reps", ".groupcoh", ".oracle"}
NO_BAR = {".groupcoh", ".oracle"}
G1 = rep_path("g1_diag.json")


@pytest.mark.parametrize(
    "argv, exactly, never",
    [
        (["verify", "witt-relations", "--samples", "5"], WITT_ONLY, set()),
        (["verify", "witt-cocycle", "--samples", "5"], None, NO_BUNDLES),
        (["verify", "euler-boundary", "--samples", "3"], None, NO_REPS),
        (["verify", "alternation", "--samples", "3"], None, NO_REPS),
        (["eval", "--rep", G1, "--selector", "eu0"], None, NO_BAR),
        (["product", "--repA", G1, "--repB", rep_path("g1_diag2.json")], None, NO_BAR),
        (["verify", "smillie", "--rep", rep_path("g2_swap.json")], None, NO_BAR),
    ],
    ids=["witt-relations", "witt-cocycle", "euler-boundary", "alternation", "eval", "product",
         "smillie"],
)
def test_a_fresh_command_loads_only_the_modules_it_runs(argv, exactly, never):
    code, loaded = _loaded(argv)
    assert code == 0
    if exactly is not None:
        assert loaded == exactly
    assert loaded & never == set()


def test_exit_code_exceptions_keep_their_modules_and_codes(capsys, monkeypatch):
    homes = [
        (errors.RepFormatError, reps.RepFormatError, 3),
        (errors.RelatorError, flatbundles.RelatorError, 3),
        (errors.TagError, flatbundles.TagError, 3),
        (errors.UsageError, flatbundles.UsageError, 2),
        (errors.GenericityError, configs.GenericityError, 4),
        (errors.FactorizationError, witt.FactorizationError, 5),
    ]
    for cls, old_name, code in homes:
        assert cls is old_name

        def raising(args, rng, cls=cls):
            raise cls("residual")

        monkeypatch.setitem(cli.SUITES, "witt-relations", raising)
        assert cli.main(["verify", "witt-relations"]) == code, cls
        captured = capsys.readouterr()
        assert captured.out == "" and "residual" in captured.err
