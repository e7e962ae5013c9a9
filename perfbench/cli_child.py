"""Run one ``tautclass`` command with the speed sampler on.

    PYTHONPATH=src python3 perfbench/cli_child.py <tautclass arguments...>

This is ``python -m tautclass.cli <arguments>`` plus the reference
samples of ``speed.py``, taken inside the command's own process so that
its wall time can be put at reference speed like the ops.  The report
goes to standard output unchanged; the last line of standard error is
``# speed {"samples": [...], "spent_s": ...}``.
"""

from __future__ import annotations

import json
import sys

from speed import SpeedSampler


def main() -> int:
    sampler = SpeedSampler()
    try:
        with sampler:  # from before the package import, as the command pays it
            from tautclass import cli

            code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write("# speed " + json.dumps(
            {"samples": sampler.samples, "spent_s": sampler.spent_s}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
