import ast
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_builders import block_diag, nullspace, scalar_multiple_of_identity
from tautclass.exactmath import (
    LinearGenericityError,
    Matrix,
    QuadExt,
    QQ,
    QuadraticField,
    determinant,
    exact_div,
    is_linearly_generic,
    parse_scalar,
    rank,
    render_scalar,
    sign,
    solve_square,
    unique_relation,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_sign_examples():
    assert sign(Fraction(3, 4)) == 1
    assert sign(0) == 0
    assert sign(QuadExt(1, -1, 2)) == -1  # 1 < sqrt(2)
    assert sign(QuadExt(3, -2, 2)) == 1  # 9 > 8
    assert sign(QuadExt(0, 5, 3)) == 1


@given(rationals, rationals)
def test_sign_multiplicative(x, y):
    assert sign(x * y) == sign(x) * sign(y)


@given(rationals, rationals)
def test_sign_additive_same_sign(x, y):
    if sign(x) == sign(y):
        assert sign(x + y) == sign(x)


@given(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
)
def test_quadext_sign_matches_float(a, b, c, d):
    # sanity only: floats agree whenever they are safely away from zero
    x = QuadExt(Fraction(a, 7), Fraction(b, 5), 2) * QuadExt(c, d, 2)
    approx = float(x)
    if abs(approx) > 1e-6:
        assert sign(x) == (1 if approx > 0 else -1)


def test_quadext_arithmetic_closed():
    x = QuadExt(1, 2, 5)
    y = QuadExt(Fraction(-1, 3), 1, 5)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x / x == QuadExt(1, 0, 5)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) + QuadExt(1, 1, 7)
    with pytest.raises(ValueError):
        QuadraticField(12)  # not squarefree


def test_a_quadratic_field_decides_d_once():
    # trial division up to 10**6 decides every d < 10**18; an element checks nothing
    x = QuadraticField(10**10 + 19).from_pair(3, -2)
    t0 = time.perf_counter()
    for _ in range(1000):
        x * x + x
    assert time.perf_counter() - t0 < 1
    assert QuadraticField(1000003 * 1000033).d == 1000003 * 1000033  # two primes past 10**6
    for d in (1000003**2, 7 * 999983**2, 8, 54):  # 8 = 2^3 and 54 = 2 * 3^3: cube factors
        with pytest.raises(ValueError, match="squarefree integer"):
            QuadraticField(d)
    with pytest.raises(ValueError, match=r"1 < d < 10\*\*18"):
        QuadraticField(10**18)


def test_parse_render_roundtrip():
    field = QuadraticField(2)
    for text in ["3/4", "-7", "1-1*sqrt(2)", "sqrt(2)", "-1/2+3/5*sqrt(2)"]:
        value = parse_scalar(text, field)
        assert parse_scalar(render_scalar(value), field) == value
    assert parse_scalar("5/10") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_scalar("sqrt(3)", field)
    with pytest.raises(ValueError):
        parse_scalar("nonsense")


@pytest.mark.parametrize("text", ["1+sqrt(2)", "-1+sqrt(2)", "sqrt(3)", "2-1/2*sqrt(5)"])
def test_parse_scalar_refuses_sqrt_literals_over_q(text):
    # an element of the field it is given: Q has no sqrt(d)
    with pytest.raises(ValueError, match="literal in field Q$"):
        parse_scalar(text, QQ)
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_quadext_floordiv_is_exact_division_in_z_sqrt_d():
    for d in (2, 3, 5, 7):
        x, y = QuadExt(3, -2, d), QuadExt(-1, 4, d)
        assert (x * y) // y == x and (x * y) // x == y
        assert (x * 6) // 6 == x
        assert 6 // QuadExt(2, 0, d) == 3
        assert x // 1 is x
        with pytest.raises(ValueError, match="not divisible"):
            x // 2
        with pytest.raises(ValueError, match="not divisible"):
            1 // y  # N(y) = 1 - 16d: y is no unit


def _cofactor_det(rows):
    """Laplace expansion along row 0, over any field: the determinant oracle."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        term = x * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def test_determinant_examples():
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert determinant([[0, 1], [-1, 0]]) == 1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(20):
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
            for _ in range(5)
        ]
        assert determinant(m) == _cofactor_det(m)
    for d in (2, 3, 5, 7):
        for n in range(1, 5):
            for trial in range(6):
                m = [[_random_quad(rng, d) for _ in range(n)] for _ in range(n)]
                if n >= 2 and trial % 2:
                    # a combination of the other rows: the determinant is 0
                    a, b = _random_quad(rng, d), _random_quad(rng, d)
                    m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (n - 1)])]
                det = determinant(m)
                assert det == _cofactor_det(m), (d, m)
                assert not (n >= 2 and trial % 2 and det)
                assert rank(m, n) == n - len(nullspace(m, n)), (d, m)


def test_determinant_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        a = Matrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        b = Matrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        assert (a @ b).det() == a.det() * b.det()


def test_determinant_quadext():
    f = QuadraticField(2)
    r = f.from_pair(0, 1)
    m = [[1 + r, 1], [1, 1 - r * 0]]
    # det = (1+sqrt2)*1 - 1 = sqrt2
    assert determinant(m) == r


ORACLES = {"unique_relation", "is_linearly_generic", "solve_square"}


def test_oracle_functions_have_no_caller_in_the_package():
    # the program decides genericity and relations from integer minors;
    # these three stay only as test oracles, and only they read determinant
    # (every other determinant is Matrix.det or a minors_int sweep)
    src = Path(__file__).resolve().parent.parent / "src" / "tautclass"
    calls = []
    for names, callers in ((ORACLES, set()), ({"determinant"}, ORACLES)):
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = {
                id(node)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name in callers
                for node in ast.walk(fn)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and id(node) not in allowed:
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in names:
                        calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


# code that only tests run: the fixture builders and their helpers
# (tests/fixture_builders.py), nullspace (the rank oracle) and
# methods whose callers were all tests (now helpers in those tests); and
# second corner readers, deleted for the corner-edge table and
# FlatBundle._corners, and the face walk the corner-edge table and
# cup_evaluate's face steps replace (an oracle in test_complexes.py); and
# the corner transport as one Fraction matrix, which the integral lifts
# and the bar cycle's relator prefixes replace; and the
# positive-section construction with its vector helpers, replaced by the
# mixed-dimension helpers of fixture_builders.py; and the builders only
# tests call (multi-vertex complexes, commuting-pair bar cycles, the
# representation-file writer), the holonomy block sums (Matrix.block_diag
# and the explicit product bundle, the oracle of the direct-sum lifts)
# and the second Simplex constructor; and the block-by-block triangle
# check (_path_ratio), which one matrix per edge replaces; and the
# methods only tests called, named as Class.method since methods that
# stay share their bare names; and the genericity and relation readers
# of uncleared tuples, which class evaluation and sampling replaced by
# reads of cleared corner lifts (is_linearly_generic is their oracle)
TEST_ONLY = {
    "nullspace", "scalar_multiple_of_identity", "save_rep", "_m",
    "genus1_diagonal", "genus1_diagonal2", "genus1_parabolic", "genus2_swap",
    "genus2_solved", "genus2_fuchsian", "genus2_rank1",
    "_admits_generic_section", "_sqrt_fraction", "BUILTIN_FIXTURES", "write_fixtures",
    "boundary_word", "diagonal_entries", "is_cycle", "boundary_classes",
    "psl_canonical", "sqrt_gen", "is_identity",
    "edge_between_corners", "_to_base", "subsimplex",
    "WitnessError", "is_positive_section", "make_positive_generic", "_generic_at",
    "_perturbation_step", "_least", "_step_into_span", "vec_add", "vec_scale",
    "mixed_dimension_product", "positive_generic_section",
    "RawPlusSymbol", "uplus_raw_symbol", "uplus_canonicalize", "raw_symbol_from_minors",
    "u_symbol_from_minors", "corner_lifts",
    "standard_simplex_complex", "sphere_complex", "psl_equal", "commuting_pair_cycle",
    "rep_to_json", "holonomies", "_BlockSums", "_simplex",
    "Matrix.__neg__", "Chain.scale", "BarChain2.__add__", "BarChain2.__neg__", "WittElement.scale",
    "is_generic_tuple", "relation_coefficients", "_generic_minors",
    "DeltaComplex.counts", "DeltaComplex.euler_characteristic",
    "transport_to_base", "FlatBundle.transport_to_base",
    "Matrix.block_diag", "block_diag", "explicit_product", "_path_ratio",
}


def test_test_only_code_is_not_defined_in_the_package():
    src = Path(__file__).resolve().parent.parent / "src" / "tautclass"
    defined = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [node.name] + [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            defined += [f"{path.name}:{node.lineno} {n}" for n in names if n in TEST_ONLY]
    assert defined == []


def test_the_package_root_imports_nothing():
    # each name has one import path: the module that defines it
    init = Path(__file__).resolve().parent.parent / "src" / "tautclass" / "__init__.py"
    imports = [
        node.lineno
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


def test_groupcoh_reads_no_complex_and_no_bundle():
    # the bar cycle comes from the relator word, so the comparison suite's
    # bar-vs-bundle check does not read the bundle it checks
    path = Path(__file__).resolve().parent.parent / "src" / "tautclass" / "groupcoh.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.split(".")[-1] for a in node.names}
    assert imported and not imported & {"complexes", "flatbundles"}


def test_unique_relation_examples():
    coeffs, zero_sum = unique_relation([(1, 0), (0, 1), (1, 1)])
    assert coeffs == [1, 1, -1] and not zero_sum
    coeffs, zero_sum = unique_relation([(1, 0), (0, 1), (1, -1)])
    assert coeffs == [-1, 1, 1] and not zero_sum
    with pytest.raises(LinearGenericityError):
        unique_relation([(1, 0), (2, 0), (1, 1)])


def test_unique_relation_zero_sum_flag():
    # v2 = v0 + v1 shifted so the relation has zero coefficient sum:
    # (1,0), (0,1), (1,1) has sum-normalizable relation; use a parallelogram
    coeffs, zero_sum = unique_relation([(1, 0), (0, 1), (2, 2)])
    assert not zero_sum
    coeffs, zero_sum = unique_relation([(1, 1), (2, 1), (3, 1)])
    # relation v0 - 2 v1 + v2 = 0 has coefficient sum 0
    assert zero_sum and coeffs[0] == 1


def test_unique_relation_substitution():
    rng = random.Random(2)
    for _ in range(30):
        vecs = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(4)]
        try:
            coeffs, _ = unique_relation(vecs)
        except LinearGenericityError:
            continue
        total = [0, 0, 0]
        for c, v in zip(coeffs, vecs):
            total = [t + c * x for t, x in zip(total, v)]
        assert all(t == 0 for t in total)
        assert all(c != 0 for c in coeffs)


def test_is_linearly_generic():
    assert is_linearly_generic([(1, 0), (0, 1), (1, 1)], 2)
    assert not is_linearly_generic([(1, 0), (0, 1), (1, 0)], 2)
    rng = random.Random(3)
    for _ in range(20):
        vecs = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(6)]
        brute = all(
            determinant([vecs[i] for i in sub]) != 0
            for sub in combinations(range(6), 4)
        )
        assert is_linearly_generic(vecs, 4) == brute


def test_solve_and_inverse():
    rng = random.Random(4)
    for _ in range(20):
        m = Matrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        if m.det() == 0:
            continue
        assert m @ m.inverse() == Matrix.identity(3)
        target = tuple(rng.randint(-9, 9) for _ in range(3))
        x = solve_square(list(zip(*m.rows)), target)
        assert m.apply(x) == tuple(Fraction(t) for t in target)


def test_nullspace():
    basis = nullspace([(1, 2, 3), (0, 1, 1)], 3)
    assert len(basis) == 1
    f = basis[0]
    assert 1 * f[0] + 2 * f[1] + 3 * f[2] == 0
    assert f[1] + f[2] == 0


def test_matrix_block_diag_and_scalar_detect():
    a = Matrix([[2, 0], [0, 2]])
    assert scalar_multiple_of_identity(a) == 2
    assert scalar_multiple_of_identity(Matrix([[2, 1], [0, 2]])) is None
    b = Matrix([[3]])
    blk = block_diag(a, b)
    assert blk.rows == ((2, 0, 0), (0, 2, 0), (0, 0, 3))


@settings(max_examples=30)
@given(st.integers(1, 4))
def test_rank_bounds(n):
    rng = random.Random(n)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
    assert 0 <= rank(rows, n) <= n


def _random_quad(rng, d=2):
    """A small element of Q(sqrt(d)) with Fraction parts, now and then a plain int."""
    if rng.random() < 0.2:
        return rng.randint(-3, 3)
    return QuadExt(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        d,
    )


def _minor_rank(rows, ncols):
    """Size of the largest nonzero minor (by cofactors): the rank oracle."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if _cofactor_det([[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


def test_quad_rank_matches_minor_oracle():
    rng = random.Random(13)
    for _ in range(150):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[_random_quad(rng) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2:
            # a combination of two rows makes the matrix rank-deficient
            a, b = _random_quad(rng), _random_quad(rng)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        assert rank(rows, nc) == _minor_rank(rows, nc)
        assert rank(rows, nc) == nc - len(nullspace(rows, nc))
    r2 = QuadraticField(2).from_pair(0, 1)
    assert rank([[r2, 1], [2, r2]], 2) == 1
    assert rank([[r2, 1], [1, r2]], 2) == 2
    assert rank([[r2 * 0, 0]], 2) == 0


def _cramer_inverse(m):
    """Entry (i, j) of m^-1 is det(m with column i replaced by e_j) / det(m), by cofactors."""
    rows = [list(r) for r in m.rows]
    det = _cofactor_det(rows)

    def replaced(i, j):
        return [r[:i] + [int(k == j)] + r[i + 1 :] for k, r in enumerate(rows)]

    return [
        [exact_div(_cofactor_det(replaced(i, j)), det) for j in range(m.nrows)]
        for i in range(m.nrows)
    ]


def test_rational_inverse_matches_cramer():
    rng = random.Random(11)
    for n in range(1, 6):
        done = 0
        while done < 8:
            m = Matrix(
                [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            if not m.det():
                continue
            inv = m.inverse()
            assert [list(r) for r in inv.rows] == _cramer_inverse(m)
            assert all(type(x) is Fraction for row in inv.rows for x in row)
            done += 1
    # integer input gives Fraction entries too
    inv = Matrix([[2, 1], [1, 1]]).inverse()
    assert inv.rows == ((1, -1), (-1, 2))
    assert all(type(x) is Fraction for row in inv.rows for x in row)
    # over Q(sqrt(2)) the same adjugate path takes its minors in the field
    for n in range(1, 5):
        done = 0
        while done < 8:
            m = Matrix([[_random_quad(rng) for _ in range(n)] for _ in range(n)])
            if not m.det():
                continue
            inv = m.inverse()
            assert [list(r) for r in inv.rows] == _cramer_inverse(m)
            assert m @ inv == Matrix.identity(n)
            done += 1


def test_singular_inverse_raises():
    for m in (
        Matrix([[1, 2], [2, 4]]),
        Matrix([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]),
        Matrix([[0]]),
    ):
        with pytest.raises(ValueError, match="^singular matrix$"):
            m.inverse()


def test_ratio_to():
    h = Matrix([[0, 2], [Fraction(1, 3), 1]])
    assert Matrix([[0, -4], [Fraction(-2, 3), -2]]).ratio_to(h) == (-4, 2)
    assert Matrix([[0, -4], [Fraction(-2, 3), 2]]).ratio_to(h) is None
    assert Matrix([[1, 0], [0, 1]]).ratio_to(Matrix([[0, 0], [0, 0]])) is None
    assert Matrix([[1, 0]]).ratio_to(Matrix([[1], [0]])) is None
    q = QuadraticField(2)
    r2 = q.from_pair(0, 1)
    assert Matrix([[r2, 0], [0, r2]]).ratio_to(Matrix.identity(2)) == (r2, 1)
    # integral input: nothing is divided, so no Fraction appears
    x, y = Matrix([[6, 9], [3, 12]]).ratio_to(Matrix([[4, 6], [2, 8]]))
    assert (type(x), type(y), Fraction(x, y)) == (int, int, Fraction(3, 2))


def _parts(x):
    return (x.a, x.b) if isinstance(x, QuadExt) else (Fraction(x),)


@pytest.mark.parametrize("field", [QQ, QuadraticField(2)], ids=["Q", "Q(sqrt2)"])
def test_integral_record_is_invisible_and_matches_a_recomputation(field):
    rng = random.Random(17)

    def scalar():
        a = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
        if field == QQ:
            return a
        return field.from_pair(a, Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])))

    singular = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[scalar() for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:  # a multiple of the first row: singular
            c = scalar()
            rows[-1] = [c * x for x in rows[0]] if n > 1 else [0]
        m, twin = Matrix(rows), Matrix(rows)
        seen = (hash(m), repr(m), m.rows)
        # cleared: m * mult with mult the least positive integer making it integral
        a, mult, _ = m.cleared()
        assert mult == lcm(*(p.denominator for row in rows for x in row for p in _parts(x)))
        assert a == m.scaled(mult)
        assert all(p.denominator == 1 for row in a.rows for x in row for p in _parts(x))
        # det: the value and the text of the cofactor expansion
        d, oracle = m.det(), _cofactor_det(rows)
        assert d == oracle and render_scalar(d) == render_scalar(oracle)
        if not d:
            singular += 1
            for _ in range(2):  # a failure is not remembered as a result
                with pytest.raises(ValueError, match="^singular matrix$"):
                    m.scaled_inverse()
        else:
            big_m, lam = m.scaled_inverse()
            assert m @ big_m == Matrix.identity(n).scaled(lam)
            assert all(p.denominator == 1 for row in big_m.rows for x in row for p in _parts(x))
            assert gcd(lam, *(p.numerator for row in big_m.rows for x in row for p in _parts(x))) == 1
            assert m.scaled_inverse() is m.scaled_inverse()
            assert twin.scaled_inverse() == (big_m, lam)
        # read again from the record, and equal to the untouched twin's
        assert m.cleared()[:2] == (a, mult) and m.det() == d
        assert m.cleared()[0] is a
        assert twin.cleared()[:2] == (a, mult) and twin.det() == d
        assert (hash(m), repr(m), m.rows) == seen
        assert m == twin and hash(m) == hash(twin) and {twin: 1}[m] == 1
        for name in ("rows", "_integral", "_inverse", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
    assert 0 < singular < 60
