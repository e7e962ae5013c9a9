"""The benchmark calls and wraps program functions by name.

`perfbench/tracer.py` lists the layer functions it wraps in `TARGETS`,
and `perfbench/workloads.py` calls more of them directly.  A rename or
removal in the package would break `perfbench/run.py` without failing
any program test, so these tests read the benchmark's tracer and
workloads, check the traced names and the install/uninstall round trip,
and run two ops of every workload.  Nothing under `perfbench/` is
changed.
"""

import importlib
import importlib.util
import itertools
import sys
from fractions import Fraction

import pytest

from conftest import REPO

import tautclass.cli  # noqa: F401  (the round trip below covers the CLI's names too)


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _perfbench_module("tracer")
WORKLOADS = _perfbench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name, module, attr, kind", TRACER.TARGETS)
def test_every_tracer_target_resolves(name, module, attr, kind):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # install() replaces the method in the class's own namespace
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))
    assert kind in ("span", "count")


def _snapshot():
    """Every attribute of the loaded package modules and patched classes, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("tautclass"):
            for key, value in vars(mod).items():
                out[mod_name, key] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for meth, fn in vars(value).items():
                        out[mod_name, key, meth] = fn
    out["Fraction.__new__"] = Fraction.__dict__["__new__"]
    return out


def test_tracer_install_and_uninstall_restore_every_original():
    from tautclass import _kernels, flatbundles

    for _, module, _, _ in TRACER.TARGETS:
        importlib.import_module(module)
    before = _snapshot()
    original = flatbundles.random_generic_section
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert flatbundles.random_generic_section is not original
        # a name imported across modules is wrapped in the importer too
        assert flatbundles.rank_int is _kernels.rank_int
        assert _kernels.rank_int is not before["tautclass._kernels", "rank_int"]
        assert Fraction.__dict__["__new__"] is not before["Fraction.__new__"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_ops_of_every_workload_pass_the_workloads_own_check(name):
    # the workloads call names TARGETS does not wrap, for example
    # FlatBundle.corner_values, cup_evaluate, product_chain and
    # homological_core_check
    workload = WORKLOADS[name](REPO)
    workload.prepare()
    for inp in itertools.islice(workload.inputs(0), 2):
        built = workload.setup(inp)
        answer = workload.solve(inp, built)
        assert workload.check(inp, built, answer) is None
