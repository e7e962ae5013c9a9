"""Batch front-end: verification suites, class evaluation, product experiments.

All commands emit a deterministic JSON report on stdout (elapsed time
goes to stderr so that identical flags and seed give byte-identical
reports) and use a single seeded generator.  Exit codes: 0 pass,
1 property failure, 2 usage, 3 invalid representation, 4 resampling
exhaustion, 5 factorization bound exceeded (a square class whose
cofactor trial division cannot certify), 6 internal error (any other
uncaught exception, a ValueError included; its traceback goes to
stderr), 141 stdout closed early by its reader (silent, as after SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from math import comb

# each command imports the rest of the package where it runs, so that a
# fresh process compiles only the modules its command reads
from .errors import (
    FactorizationError, GenericityError, RelatorError, RepFormatError, TagError, UsageError
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_REP = 3
EXIT_RESAMPLING = 4
EXIT_FACTOR_BOUND = 5
EXIT_INTERNAL = 6
EXIT_CLOSED_STDOUT = 141


def _parse_field(text: str):
    from .exactmath import QQ, QuadraticField

    if text == "Q":
        return QQ
    if text.startswith("quad:"):
        try:
            return QuadraticField(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"field {text!r:.80}: {exc}") from None
    raise argparse.ArgumentTypeError(f"field must be Q or quad:D, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _emit(report: dict, csv: bool, t0: float) -> None:
    if csv:
        for key, value in _flatten(report):
            sys.stdout.write(f"{key},{value}\n")
    else:
        json.dump(report, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit
    sys.stderr.write(f"elapsed: {time.time() - t0:.3f}s\n")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, (list, tuple)):
        yield prefix[:-1], json.dumps(obj, default=str)
    else:
        yield prefix[:-1], obj


def _random_rational(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-99, 99)
    return Fraction(num, rng.randint(1, 99))


def _random_sl2(rng):
    from .exactmath import Matrix

    while True:
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a and (1 + b * c) % a == 0:
            d = (1 + b * c) // a
            if abs(d) <= 9:
                return Matrix([[a, b], [c, d]])


def _random_generic_tuple(rng, field, n, count):
    """``count`` >= n random vectors of field^n, generic, and their ``subset_minors``."""
    from .configs import subset_minors
    from .flatbundles import SECTION_BOUND, random_vector

    while True:
        vecs = [random_vector(field, rng, n, SECTION_BOUND) for _ in range(count)]
        minors = subset_minors(vecs, n)
        if all(minors.values()):
            return vecs, minors


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_witt_relations(args, rng):
    from .witt import WittElement

    failures = []
    for i in range(args.samples):
        a = _random_rational(rng)
        b = _random_rational(rng)
        if a + b == 0:
            continue
        w = (
            WittElement.symbol(a)
            + WittElement.symbol(b)
            - WittElement.symbol(a + b)
            - WittElement.symbol(a * b * (a + b))
        )
        if not w.is_zero():
            failures.append({"sample": i, "a": str(a), "b": str(b)})
        lam = _random_rational(rng)
        if not (WittElement.symbol(lam) + WittElement.symbol(-lam)).is_zero():
            failures.append({"sample": i, "lambda": str(lam)})
    return failures, {}


def _engineered_coincidence_quadruple(rng, u):
    from .configs import subset_minors
    from .exactmath import Matrix

    while True:
        g0 = _random_sl2(rng)
        lam = Fraction(rng.randint(1, 5))
        stab = Matrix([[lam, rng.randint(-5, 5)], [0, 1 / lam]])
        quad = [g0, g0 @ stab, _random_sl2(rng), _random_sl2(rng)]
        minors = subset_minors([g.apply(u) for g in quad], 2)
        if [pair for pair, d in minors.items() if not d] == [(0, 1)]:
            return quad


def _suite_witt_cocycle(args, rng):
    from .groupcoh import cocycle_identity_residual

    failures = []
    u = (Fraction(1), Fraction(0))
    for i in range(args.samples):
        quad = [_random_sl2(rng) for _ in range(4)]
        if not cocycle_identity_residual(quad, u).is_zero():
            failures.append({"sample": i, "kind": "random"})
    for i in range(max(1, args.samples // 5)):
        quad = _engineered_coincidence_quadruple(rng, u)
        if not cocycle_identity_residual(quad, u).is_zero():
            failures.append({"sample": i, "kind": "coincident"})
    return failures, {}


def _suite_euler_boundary(args, rng):
    from .configs import boundary_sum_from_minors
    from .exactmath import QQ

    field = args.field or QQ
    failures = []
    n = args.n
    modes = ["P", "P+"] if n % 2 == 0 else ["P+"]
    if n == 2 and field == QQ:
        modes.append("witt")
    for i in range(args.samples):
        _, minors = _random_generic_tuple(rng, field, n, n + 2)
        for mode in modes:
            value = boundary_sum_from_minors(minors, n, mode)
            if not (value == 0 if mode == "P" else value.is_zero()):
                failures.append({"sample": i, "mode": mode})
    return failures, {"field": field.name}


def _suite_alternation(args, rng):
    from .configs import face_minors, maximal_minors, symbol_sum
    from .exactmath import QQ

    field = args.field or QQ
    failures = []
    n = args.n
    everything = tuple(range(n + 1))
    for i in range(args.samples):
        tup, minors = _random_generic_tuple(rng, field, n, n + 1)
        k = rng.randint(0, n - 1)
        swapped = list(tup)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        # the swapped tuple gets its own sweep, so the law is tested, not built in
        terms = [[(face_minors(minors, everything), 1)], [(maximal_minors(swapped), 1)]]
        if n % 2 == 0:
            before, after = (symbol_sum("P", n, t) for t in terms)
            if after != -before:
                failures.append({"sample": i, "kind": "u", "swap": k})
        before, after = (symbol_sum("P+", n, t).coefficients for t in terms)
        if after != tuple(-c for c in before):
            failures.append({"sample": i, "kind": "uplus", "swap": k})
    return failures, {"field": field.name}


def _oracle(rep) -> int | None:
    """The rotation-number Euler number, or None when the float oracle cannot give it.

    Building the bundle has already decided the relator exactly, so an
    OracleError (a float residual or determinant out of tolerance) or
    OverflowError (an entry past the float range) leaves the representation
    valid: the oracle is reported unavailable, with the reason on stderr.
    """
    from .oracle import OracleError, rotation_euler

    try:
        return rotation_euler(rep.float_matrices())
    except (OracleError, OverflowError) as exc:
        sys.stderr.write(f"oracle unavailable: {exc}\n")
        return None


def _load_bundle(path: str):
    from .complexes import surface_complex
    from .flatbundles import bundle_from_surface_rep
    from .reps import load_rep

    rep = load_rep(path)
    sc, z = surface_complex(rep.genus)
    bundle = bundle_from_surface_rep(sc, rep.matrices, rep.tag, rep.field)
    return rep, sc, z, bundle


def _rep_euplus(args, rng):
    """The --rep of a suite: rep, cycle, bundle, a sampled section and the euplus value."""
    from .flatbundles import Selector, evaluate_class, random_generic_section

    if not args.rep:
        raise UsageError(f"suite {args.suite} needs --rep")
    rep, _, z, bundle = _load_bundle(args.rep)
    s = random_generic_section(bundle, seed=rng.randint(0, 10**6))
    return rep, z, bundle, s, evaluate_class(bundle, s, Selector("euplus"), z)


def _suite_smillie(args, rng):
    _, _, bundle, _, euplus_value = _rep_euplus(args, rng)
    n = bundle.n
    values = dict(enumerate(euplus_value.coefficients))
    failures, factors = [], {}
    for k in range(1, n // 2 + 1):
        expected = (-1) ** k * comb(n + 1, k) * values[0]
        factors[f"eu{k}"] = (-1) ** k * comb(n + 1, k)
        if values[k] != expected:
            failures.append({"k": k, "value": values[k], "expected": expected})
    values = {f"eu{k}": v for k, v in values.items()}
    return failures, {"n": n, "field": bundle.field.name, "values": values, "factors": factors}


def _suite_comparison(args, rng):
    from .configs import homological_core_check, pushforward
    from .flatbundles import Selector, check_usage, evaluate_class

    rep, z, bundle, s, euplus_value = _rep_euplus(args, rng)
    n = bundle.n
    failures = []
    eu0 = euplus_value.coefficients[0]
    info = {"n": n, "field": bundle.field.name, "eu0": eu0}
    if n % 2 == 0:
        eu = info["eu"] = pushforward(euplus_value.coefficients)  # what evaluating eu folds
        if eu != 2**n * eu0:
            failures.append({"check": "eu=2^n*eu0", "eu": eu, "eu0": eu0})
    info["euplus"] = euplus_value.to_json()
    if not homological_core_check(euplus_value):
        failures.append({"check": "homological-core", "euplus": euplus_value.to_json()})
    try:
        check_usage(bundle, Selector("witt"), z)
    except UsageError:
        pass
    else:
        from .groupcoh import evaluate_bar, surface_cycle_from_rep, witt_cocycle

        w = evaluate_class(bundle, s, Selector("witt"), z)
        info["witt"] = w.to_json()
        info["witt_signature"] = w.signature()
        if w.signature() != 4 * eu0:
            failures.append({"check": "witt-signature", "signature": w.signature()})
        bar = evaluate_bar(witt_cocycle, surface_cycle_from_rep(rep.genus, rep.matrices), (1, 0))
        if not (bar == w):
            failures.append({"check": "bar-vs-bundle-witt"})
    if args.oracle:
        val = _oracle(rep)
        info["oracle"] = val
        if val is not None and val != eu0:
            failures.append({"check": "oracle", "oracle": val, "eu0": eu0})
    return failures, info


# each suite returns (failures, the extra fields of its report)
SUITES = {
    "witt-relations": _suite_witt_relations,
    "witt-cocycle": _suite_witt_cocycle,
    "euler-boundary": _suite_euler_boundary,
    "alternation": _suite_alternation,
    "smillie": _suite_smillie,
    "comparison": _suite_comparison,
}

# options a suite never reads; a suite that reads a field reports it (a --rep
# suite its bundle's n and field), so --field's default Q is resolved there
UNREAD = {
    "witt-relations": ("n", "field"),
    "witt-cocycle": ("n", "field"),
    "smillie": ("samples",),
    "comparison": ("samples",),
}


def cmd_verify(args) -> int:
    t0 = time.time()
    rng = random.Random(args.seed)
    failures, extra = SUITES[args.suite](args, rng)
    report = {
        "suite": args.suite,
        "samples": args.samples,
        "seed": args.seed,
        "n": args.n,
        "field": None,  # from the suite's extra fields, or dropped by UNREAD
        "failures": failures,
        **extra,
    }
    for key in UNREAD.get(args.suite, ()):
        del report[key]
    _emit(report, args.csv, t0)
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_eval(args) -> int:
    from .configs import homological_core_check
    from .flatbundles import Selector, check_usage, evaluate_class, random_generic_section

    t0 = time.time()
    selector = Selector.parse(args.selector)
    rep, sc, z, bundle = _load_bundle(args.rep)
    check_usage(bundle, selector, z)
    s = random_generic_section(bundle, seed=args.seed)
    value, per_simplex = evaluate_class(bundle, s, selector, z, detail=True)
    if selector.kind == "eu":  # each one-term P symbol is +-1 on the generator [+]
        per_simplex = {k: "[+]" if v > 0 else "-[+]" for k, v in per_simplex.items()}
    report = {
        "rep": args.rep,
        "selector": str(selector),
        "seed": args.seed,
        "section": s.to_json(),
        "per_simplex": {str(k): str(v) for k, v in sorted(per_simplex.items())},
    }
    if selector.kind == "witt":
        report["value"] = value.to_json()
        report["text"] = value.to_text()
        report["invariants"] = value.invariants()
    elif selector.kind == "euplus":
        report["value"] = value.to_json()
        report["core"] = homological_core_check(value)
    else:
        report["value"] = value
    if args.oracle:
        oracle_value = _oracle(rep)
        report["oracle"] = oracle_value
        if selector.kind == "euk" and selector.k == 0:
            report["agree"] = None if oracle_value is None else oracle_value == value
    _emit(report, args.csv, t0)
    return EXIT_OK


def cmd_product(args) -> int:
    from .flatbundles import (
        Selector, check_product, check_usage, product_eu0, random_generic_section, scalar_set
    )

    t0 = time.time()
    rng = random.Random(args.seed)
    _, _, zA, bundleA = _load_bundle(args.repA)
    _, _, zB, bundleB = _load_bundle(args.repB)
    check_product(bundleA, bundleB)
    for bundle, z in ((bundleA, zA), (bundleB, zB)):
        check_usage(bundle, Selector("euk", 0), z)
    attempts, disjoint = 0, False
    while attempts < 30 and not disjoint:
        if attempts % 10 == 0:  # a fresh A after every 10 colliding B draws
            sA = random_generic_section(bundleA, seed=rng.randint(0, 10**6), mode="strong")
            setA = scalar_set(bundleA, sA)
        attempts += 1
        sB = random_generic_section(bundleB, seed=rng.randint(0, 10**6), mode="strong")
        disjoint = not (setA & scalar_set(bundleB, sB))
    if not disjoint:
        sys.stderr.write("could not reach disjoint scalar sets\n")
        return EXIT_RESAMPLING
    euA, euB, lhs, top_simplices = product_eu0(bundleA, sA, zA, bundleB, sB, zB)
    report = {
        "repA": args.repA,
        "repB": args.repB,
        "seed": args.seed,
        "resample_attempts": attempts,
        "scalars_disjoint": disjoint,
        "top_simplices": top_simplices,
        "euler_A": euA,
        "euler_B": euB,
        "euler_product": lhs,
        "cross_product_check": lhs == euA * euB,
        "cup_value": euA * euB,  # <a cup b, zA x zB> = <a, zA><b, zB> (Eilenberg-Zilber)
        "cup_check": True,
    }
    _emit(report, args.csv, t0)
    return EXIT_OK if report["cross_product_check"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautclass",
        description="exact characteristic classes of flat bundles, with verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--n", type=_positive_int, default=2)
    p_verify.add_argument("--samples", type=_positive_int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--field", type=_parse_field)  # Q when absent: see UNREAD
    p_verify.add_argument("--rep", help="representation file (smillie, comparison)")
    p_verify.add_argument("--oracle", action="store_true")
    p_verify.add_argument("--csv", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a class on a representation")
    p_eval.add_argument("--rep", required=True)
    p_eval.add_argument(
        "--selector", required=True, help="eu0 | euk:K | eu | euplus | witt"
    )
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--oracle", action="store_true")
    p_eval.add_argument("--csv", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_prod = sub.add_parser("product", help="cross and cup product experiment")
    p_prod.add_argument("--repA", required=True)
    p_prod.add_argument("--repB", required=True)
    p_prod.add_argument("--seed", type=int, default=0)
    p_prod.add_argument("--csv", action="store_true")
    p_prod.set_defaults(func=cmd_product)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RelatorError, RepFormatError, TagError) as exc:
        sys.stderr.write(f"invalid representation: {exc}\n")
        return EXIT_BAD_REP
    except GenericityError as exc:
        sys.stderr.write(f"genericity exhausted: {exc}\n")
        return EXIT_RESAMPLING
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return EXIT_USAGE
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # not a fault of the program; devnull keeps the flush at exit quiet
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stdout without a file descriptor
        return EXIT_CLOSED_STDOUT
    except FactorizationError as exc:
        sys.stderr.write(f"factorization bound exceeded: {exc}\n")
        return EXIT_FACTOR_BOUND
    except Exception as exc:
        # a fault of the program, never a property failure (exit 1)
        traceback.print_exc()
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
