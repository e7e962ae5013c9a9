"""The four benchmark workloads: seeded inputs, timed phases, known answers.

Every workload turns a seed into a stream of op inputs and splits each op
into two timed phases, then checks the answer outside the timed region:

- ``setup(inp)`` turns the op's inputs into program objects (the work a
  user pays on every CLI call: parsing, complexes, bundle build and
  validation, or symbol construction and accumulation);
- ``solve(inp, built)`` goes from built objects to the answer (section
  sampling, evaluation, decision);
- ``check(inp, built, answer)`` returns a description of the first wrong
  part of the answer, or None when it is right.

Known answers come from identities the paper proves, from the
floating-point rotation-number oracle and from the bar-resolution Witt
cocycle, computed once per fixture in ``prepare``.  Each workload also
names one real ``tautclass`` command (``CLI``) and how to check its
JSON report (``check_cli``).
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# Layer functions are called through their modules, so that the traced
# run, which rebinds module attributes in place, sees every call.
from tautclass import complexes, configs, flatbundles, reps
from tautclass.exactmath import QuadraticField
from tautclass.flatbundles import Section, Selector
from tautclass.groupcoh import evaluate_bar, surface_cycle_from_rep, witt_cocycle
from tautclass.oracle import rotation_euler
from tautclass.witt import WittElement

GENUS2_RANK2 = ["g2_fuchs", "g2_swap", "g2_swap2"] + [f"g2_solved_{i}" for i in range(1, 9)]
GENUS1_RANK2 = ["g1_diag", "g1_diag2", "g1_parab"]
# the witt selector needs SL(2, Q)
SL_FIXTURES = {"g1_diag", "g1_diag2", "g1_parab", "g2_fuchs", "g2_swap", "g2_swap2"}


class WrongReport(Exception):
    """The CLI report does not carry the known answer."""


def _cycle(rng: random.Random, pool: list):
    """Endless seeded shuffles of the pool, so every run covers it evenly."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


class Workload:
    name = ""
    CLI: list[str] = []  # arguments of the workload's tautclass command

    def __init__(self, root: Path):
        self.fixtures = root / "fixtures"

    def fixture(self, name: str) -> str:
        return str(self.fixtures / f"{name}.json")

    def prepare(self) -> None:
        """Known answers that depend only on the fixtures."""

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inp):
        raise NotImplementedError

    def solve(self, inp, built):
        raise NotImplementedError

    def check(self, inp, built, answer):
        raise NotImplementedError

    def check_cli(self, report: dict) -> None:
        raise NotImplementedError


def _oracle(path: str) -> int:
    return rotation_euler(reps.load_rep(path).float_matrices())


class ProductG2(Workload):
    """Cross and cup product of two genus-2 rank-2 bundles: n = 4, 216 top simplices."""

    name = "product_g2"
    # every pairing of the one Euler-maximal fixture with a genus-2 fixture;
    # each admits disjoint scalar sets within a few resamplings
    PAIRS = [("g2_fuchs", other) for other in GENUS2_RANK2]

    def prepare(self):
        self.oracle = {name: _oracle(self.fixture(name)) for name in GENUS2_RANK2}

    def inputs(self, seed):
        rng = random.Random(seed)
        for a, b in _cycle(rng, self.PAIRS):
            if rng.random() < 0.5:
                a, b = b, a
            yield a, b, rng.randint(0, 10**6)

    def setup(self, inp):
        a, b, _ = inp
        rep_a, rep_b = reps.load_rep(self.fixture(a)), reps.load_rep(self.fixture(b))
        sc_a, z_a = complexes.surface_complex(rep_a.genus)
        sc_b, z_b = complexes.surface_complex(rep_b.genus)
        e_a = flatbundles.bundle_from_surface_rep(sc_a, rep_a.matrices, rep_a.tag, rep_a.field)
        e_b = flatbundles.bundle_from_surface_rep(sc_b, rep_b.matrices, rep_b.tag, rep_b.field)
        px = complexes.product_complex(sc_a, sc_b)
        e_p = flatbundles.product_bundle(px, e_a, e_b)
        zz = complexes.product_chain(px, z_a, z_b)
        return e_a, z_a, e_b, z_b, px, e_p, zz

    def solve(self, inp, built):
        e_a, z_a, e_b, z_b, px, e_p, zz = built
        rng = random.Random(inp[2])
        s_a = flatbundles.random_generic_section(e_a, seed=rng.randint(0, 10**6), mode="strong")
        for _ in range(10):
            s_b = flatbundles.random_generic_section(e_b, seed=rng.randint(0, 10**6), mode="strong")
            if flatbundles.joint_scalar_sets(e_a, s_a, e_b, s_b)[2]:
                break
        else:
            raise RuntimeError("no disjoint scalar sets after 10 resamplings")
        section = Section(
            {v: tuple(s_a.values[0]) + tuple(s_b.values[0]) for v in range(px.num_vertices)}
        )
        eu0 = Selector("euk", 0)
        eu_a = flatbundles.evaluate_class(e_a, s_a, eu0, z_a)
        eu_b = flatbundles.evaluate_class(e_b, s_b, eu0, z_b)
        cross = flatbundles.evaluate_class(e_p, section, eu0, zz)

        def alpha(pid):
            p, sid, q, _, _ = px.cell_info(2, pid)
            if (p, q) != (2, 0):
                return 0
            return configs.uplus_symbol(e_a.corner_values(s_a, 2, sid)).coefficients[0]

        def beta(pid):
            p, _, q, sid2, _ = px.cell_info(2, pid)
            if (p, q) != (0, 2):
                return 0
            return configs.uplus_symbol(e_b.corner_values(s_b, 2, sid2)).coefficients[0]

        cup = complexes.cup_evaluate(px, 2, alpha, 2, beta, zz)
        return eu_a, eu_b, cross, cup, zz.support_size()

    def check(self, inp, built, answer):
        a, b, _ = inp
        eu_a, eu_b, cross, cup, top = answer
        if top != 216:
            return f"{top} top simplices, expected 216"
        if eu_a != self.oracle[a] or eu_b != self.oracle[b]:
            return f"factor eu0 ({eu_a}, {eu_b}) != oracle ({self.oracle[a]}, {self.oracle[b]})"
        if not cross == cup == eu_a * eu_b:
            return f"cross {cross}, cup {cup}, euA*euB {eu_a * eu_b} differ"
        return None

    CLI = ["product", "--repA", "fixtures/g2_fuchs.json", "--repB", "fixtures/g2_fuchs.json"]

    def check_cli(self, report):
        expected = self.oracle["g2_fuchs"] ** 2
        if not (report["cross_product_check"] and report["cup_check"]):
            raise WrongReport("product checks failed")
        if report["euler_product"] != expected or report["cup_value"] != expected:
            raise WrongReport(f"product value {report['euler_product']} != {expected}")


class FixturesEval(Workload):
    """One rank-2 fixture, one selector: parse, build, sample, evaluate."""

    name = "fixtures_eval"
    SELECTORS = ["eu0", "eu", "euplus", "witt"]

    def prepare(self):
        self.pool = [
            (name, sel)
            for name in GENUS1_RANK2 + GENUS2_RANK2
            for sel in self.SELECTORS
            if sel != "witt" or name in SL_FIXTURES
        ]
        self.oracle = {}
        self.bar = {}
        for name in GENUS1_RANK2 + GENUS2_RANK2:
            rep = reps.load_rep(self.fixture(name))
            self.oracle[name] = rotation_euler(rep.float_matrices())
            if name in SL_FIXTURES:
                chain = surface_cycle_from_rep(rep.genus, rep.matrices)
                self.bar[name] = evaluate_bar(witt_cocycle, chain, (1, 0))

    def inputs(self, seed):
        rng = random.Random(seed)
        for name, sel in _cycle(rng, self.pool):
            yield name, sel, rng.randint(0, 10**6)

    def setup(self, inp):
        rep = reps.load_rep(self.fixture(inp[0]))
        sc, z = complexes.surface_complex(rep.genus)
        bundle = flatbundles.bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
        return bundle, z

    def solve(self, inp, built):
        bundle, z = built
        s = flatbundles.random_generic_section(bundle, seed=inp[2])
        return flatbundles.evaluate_class(bundle, s, Selector.parse(inp[1]), z)

    def check(self, inp, built, value):
        name, sel, _ = inp
        eu0 = self.oracle[name]
        if sel == "eu0":
            return None if value == eu0 else f"eu0 {value} != oracle {eu0}"
        if sel == "eu":
            return None if value == 4 * eu0 else f"eu {value} != 4*{eu0}"
        if sel == "euplus":
            n = built[0].n
            relation = sum((n - 2 * k + 1) * c for k, c in enumerate(value.coefficients))
            if not configs.homological_core_check(value) or relation != 0:
                return f"euplus {value.to_json()} outside the homological core"
            if value.coefficients[0] != eu0:
                return f"euplus coefficient 0 {value.coefficients[0]} != oracle {eu0}"
            return None
        if value.signature() != 4 * eu0:
            return f"signature(witt) {value.signature()} != 4*{eu0}"
        if not value == self.bar[name]:
            return f"witt {value.to_text()} != bar value {self.bar[name].to_text()}"
        return None

    CLI = ["eval", "--rep", "fixtures/g2_fuchs.json", "--selector", "eu0"]

    def check_cli(self, report):
        if report["value"] != self.oracle["g2_fuchs"]:
            raise WrongReport(f"eval value {report['value']} != oracle")


def _mul_z2(x, y):
    """(a + b*sqrt2)(c + d*sqrt2) on integer pairs."""
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _det_z2(rows) -> tuple[int, int]:
    """Determinant over Z[sqrt2] by permutation expansion (input filter only)."""
    n = len(rows)
    total = (0, 0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (1, 0)
        for i, j in enumerate(perm):
            term = _mul_z2(term, rows[i][j])
        sgn = -1 if inversions % 2 else 1
        total = (total[0] + sgn * term[0], total[1] + sgn * term[1])
    return total


class BoundaryQuad(Workload):
    """Boundary relations (modes P and P+) of generic 6-tuples in Q(sqrt 2)^4."""

    name = "boundary_quad"
    N = 4
    BOUND = 9  # entries a + b*sqrt(2), a and b in [-9, 9], as the CLI samples them

    def inputs(self, seed):
        rng = random.Random(seed)
        n = self.N
        while True:
            tup = [
                tuple(
                    (rng.randint(-self.BOUND, self.BOUND), rng.randint(-self.BOUND, self.BOUND))
                    for _ in range(n)
                )
                for _ in range(n + 2)
            ]
            # generic: every n of the n+2 vectors independent
            if all(_det_z2([tup[i] for i in subset]) != (0, 0)
                   for subset in itertools.combinations(range(n + 2), n)):
                yield tup

    def setup(self, inp):
        field = QuadraticField(2)
        return [tuple(field.from_pair(a, b) for a, b in vec) for vec in inp]

    def solve(self, inp, tup):
        return configs.boundary_symbol_sum(tup, "P"), configs.boundary_symbol_sum(tup, "P+")

    def check(self, inp, built, answer):
        p, p_plus = answer
        if p != 0 or not p_plus.is_zero():
            return f"boundary sums P={p}, P+={p_plus} are not zero"
        return None

    CLI = ["verify", "euler-boundary", "--n", "4", "--field", "quad:2", "--samples", "10"]

    def check_cli(self, report):
        if report["failures"]:
            raise WrongReport(f"euler-boundary failures {report['failures']}")


# Witt-nontrivial although dimension, signature and discriminant vanish:
# only the Hasse invariant at 3 tells it from zero.
HASSE_ONLY = [(1, 2), (3, -2)]


class WittSum(Workload):
    """Signed face symbols of generic 4-point configurations in Q^2, summed and decided."""

    name = "witt_sum"
    CONFIGS = 40  # 160 symbols per op
    BOUND = 9  # entries in [-9, 9], as sections sample them

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            quadruples = []
            while len(quadruples) < self.CONFIGS:
                pts = [(rng.randint(-self.BOUND, self.BOUND), rng.randint(-self.BOUND, self.BOUND))
                       for _ in range(4)]
                # generic in P^1: pairwise independent lifts
                if all(u[0] * v[1] - u[1] * v[0] for u, v in itertools.combinations(pts, 2)):
                    quadruples.append(pts)
            yield quadruples

    def setup(self, quadruples):
        acc = WittElement.zero()
        for pts in quadruples:
            for j in range(4):
                term = configs.witt_triple_symbol(*(p for i, p in enumerate(pts) if i != j))
                acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def solve(self, inp, acc):
        return acc.is_zero()

    def check(self, inp, acc, answer):
        if answer is not True:
            return "sum of boundary symbols not decided zero"
        if (acc + WittElement(HASSE_ONLY)).is_zero():
            return "zero plus the Hasse-only obstruction decided zero"
        return None

    CLI = ["verify", "witt-relations", "--samples", "100"]

    def check_cli(self, report):
        if report["failures"]:
            raise WrongReport(f"witt-relations failures {report['failures']}")


WORKLOADS = {w.name: w for w in (ProductG2, FixturesEval, BoundaryQuad, WittSum)}
