"""SpanSolver grown with extend() and prune_generators, against solvers built
afresh, the rebuild-per-keep pruning loop and the pruning loop on
polynomials; the columns grow() keeps, added as they are kept; columns
added before the first read, in the one batch elimination of a solver
constructed on them; kernel_forms(range(n)) against the
kernel on all columns;
kernel_constants without repeats; absorbers added on demand against a
reference that holds them in every row."""

import random
import sys
import threading
from fractions import Fraction as F
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrmod import Dvr, PolyRing, build_algebra
from congrmod.cli import random_grammar_algebra
from congrmod.config import DEFAULT_CONFIG, EngineConfig
from congrmod.dvr import RF
from congrmod.errors import DegreeBoundExceeded
from congrmod.linsolve import SpanSolver, prune_generators
from congrmod.omodule import _Echelon
from congrmod.poly import MonomialOrder, Poly, monomial_divides, monomials_up_to
from congrmod.resolution import _syzygies
from congrmod.stdbasis import StdBasis, reduce_strong, std_basis
from conftest import (make_An, make_depth_zero_example, make_hypersurface_2var,
                      make_pi_x_ring, make_ring_B)


def kernel_vectors(solver):
    """The kernel of a solver on all its columns, without repeats, as
    vectors of polynomials rebuilt from kernel_forms."""
    n = solver.ncols
    return [solver.gb.polys(rows, den, n)
            for rows, den, _ in solver.kernel_forms(range(n))]


def prune_by_rebuilding(ring, gb_global, vectors, deg_bound):
    """Greedy removal of vectors lying in the span of the ones kept (the
    first too, when the empty solver contains it: zero in A); the
    membership oracle is rebuilt only when a vector is actually kept, and
    candidates in between reuse its echelon."""

    def sort_key(v):
        return (max((p.degree() for p in v), default=-1),
                sum(len(p.terms) for p in v),
                tuple(str(p) for p in v))

    kept = []
    solver = None
    for v in sorted(vectors, key=sort_key):
        if solver is None:
            solver = SpanSolver(ring, gb_global, kept, deg_bound)
        if solver.contains(v):
            continue
        kept.append(v)
        solver = None
    return kept


def _prune(gb, vectors, deg_bound):
    """prune_generators on Poly vectors, entered through gb.int_form: the
    vectors kept."""
    forms = [gb.int_form(v) for v in vectors]
    nrows = len(vectors[0]) if vectors else 0
    kept, _ = prune_generators(gb, forms, nrows, deg_bound)
    return [vectors[k] for k, _, _ in kept]


# unit-lead bases (normal forms are O-linear) and absorber bases
ALGEBRAS = {"A(2)": lambda: make_An(5, 2), "B": lambda: make_ring_B(5),
            "H(2)": lambda: make_hypersurface_2var(5, 2),
            "D": lambda: make_depth_zero_example(5), "E": make_pi_x_ring}
LINEAR = {"A(2)": True, "B": True, "H(2)": True, "D": False, "E": False}


def _random_vectors(A, rng, nrows, count):
    """A few random vectors, then sums, monomial and pi multiples of them,
    so that many candidates are redundant."""
    R = A.ring
    atoms = ["0", "1", "pi", "x", "y", "pi*x", "x*y", "y^2", "x - pi*y", "x^2 + y"]
    names = list(R.names)
    atoms = [a for a in atoms if all(c not in a or c in names for c in "xy")]
    base = [tuple(R.parse(rng.choice(atoms)) for _ in range(nrows))
            for _ in range(count)]
    out = list(base)
    for _ in range(3 * count):
        u, v = rng.sample(base, 2)
        m = R.parse(rng.choice(["1", "pi", names[0], f"pi*{names[-1]}"]))
        out.append(tuple(a + m * b for a, b in zip(u, v)))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_prune_matches_rebuild_per_keep(name):
    """prune_generators keeps the vectors the rebuilding loop keeps: on the
    syzygy kernels of a resolution and on random redundant families."""
    A = ALGEBRAS[name]()
    assert A.gb_global.linear == LINEAR[name]
    ring, gb = A.ring, A.gb_global
    prev, nrows = [(g,) for g in A.p_gens()], 1
    for _ in range(2):
        # the staircase degree when A is module-finite, else search degree 1
        bound = max(A.finite.maxdeg, 0) if A.is_module_finite else 1
        solver = SpanSolver(ring, gb, prev, bound)
        vecs = kernel_vectors(solver)
        kept = _prune(gb, vecs, 1)
        assert kept == prune_by_rebuilding(ring, gb, vecs, 1)
        prev, nrows = [tuple(A.nf(p) for p in v) for v in kept], len(prev)
    rng = random.Random(20261018)
    for bound in (0, 1, 2):
        for nrows in (1, 2):
            vecs = _random_vectors(A, rng, nrows, 4)
            kept = _prune(gb, vecs, bound)
            assert kept == prune_by_rebuilding(ring, gb, vecs, bound)
            assert len(kept) < len(vecs)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_extended_solver_matches_fresh_solver(name):
    """A solver built on one column and extended by the others answers
    contains() as a solver built on all of them, its solve() gives
    multipliers that reach the target modulo I, and its kernel gives
    syzygies."""
    A = ALGEBRAS[name]()
    rng = random.Random(7)
    columns = _random_vectors(A, rng, 2, 3)[:4]
    fresh = SpanSolver(A.ring, A.gb_global, columns, 1)
    grown = SpanSolver(A.ring, A.gb_global, columns[:1], 1)
    for col in columns[1:]:
        grown.extend(A.gb_global.int_form(col), 1)
    targets = _random_vectors(A, rng, 2, 6)
    for target in targets:
        inside = grown.contains(target)
        assert inside == fresh.contains(target)
        a = grown.solve(target)
        assert (a is not None) == inside
        if inside:
            for r in range(2):
                total = -target[r]
                for aj, col in zip(a, columns):
                    total = total + aj * col[r]
                assert A.nf(total).is_zero
    assert any(grown.contains(t) for t in targets)
    for a in kernel_vectors(grown):
        for r in range(2):
            total = A.ring.zero
            for aj, col in zip(a, columns):
                total = total + aj * col[r]
            assert A.nf(total).is_zero


# ---------------------------------------------------------------------------
# the integer expansion against the Fraction expansion through StdBasis.nf

def _fraction_vector(gb, ring, col, u, row_index):
    """The coefficient vector of u * col as the span solver expanded it
    before it read the normal-form table in integer form: a Poly for each
    multiple, in normal form through reduce_strong when the basis is
    linear, with Fraction (or RF) entries.  A target (u None) gives None
    when it touches a row not in row_index; rows are numbered in the order
    the terms come."""
    vec = {}
    for i, p in enumerate(col):
        if not p.terms:
            continue
        if u is not None:
            p = Poly(ring, {tuple(map(add, e, u)): c for e, c in p.terms.items()})
        if gb.linear:
            # reduce_strong leaves a term whose coefficient is outside O, so
            # reduce pi^k * p, which lies in O[x], and divide back
            s = ring.dvr.pi_pow(max(0, -p.min_coeff_val()))
            leads = [gb.order.leading(g) for g in gb.gens]
            p = reduce_strong(p.scale(s), gb.gens, gb.order, DEFAULT_CONFIG,
                              leads).scale(ring.dvr.one / s)
        for e, c in p.terms.items():
            if u is None:
                rid = row_index.get((i, e))
                if rid is None:
                    return None
            else:
                rid = row_index.setdefault((i, e), len(row_index))
            if c:
                vec[rid] = c
    return vec


def _multipliers(gb, ring, bound):
    """The multipliers of degree <= bound a SpanSolver expands each column
    by: over a linear basis the monomials no lead of gb divides, otherwise
    all of them."""
    leads = [gb.order.leading(g)[0] for g in gb.gens] if gb.linear else []
    return [u for u in monomials_up_to(ring.nvars, bound)
            if not any(monomial_divides(e, u) for e in leads)]


def _fraction_expansion(gb, ring, columns, bound, absorb, rows=None):
    """The row index and the column vectors of a SpanSolver's system, in
    the order SpanSolver.__init__ expands them: absorbers up to degree
    absorb in each row that a column touches (in each of rows, if given)."""
    row_index, vecs = {}, []
    for col in columns:
        for u in _multipliers(gb, ring, bound):
            vecs.append(_fraction_vector(gb, ring, col, u, row_index))
    if rows is None:
        rows = sorted({i for col in columns for i, p in enumerate(col) if p.terms})
    if not gb.linear:
        for i in rows:
            for g in gb.gens:
                for u in monomials_up_to(ring.nvars, absorb - g.degree()):
                    unit = (ring.zero,) * i + (g,)
                    vecs.append(_fraction_vector(gb, ring, unit, u, row_index))
    return row_index, vecs


_F4 = Dvr.power_series(4)
EXPANSION_BASES = {"Z_(2)": Dvr.p_adic(2), "Z_(3)": Dvr.p_adic(3),
                   "Z_(5)": Dvr.p_adic(5), "F_4[[t]]": _F4}
# relations by name: linear bases (A(2), B, H(2), U, whose lead 7*x^2 puts
# denominators into the table, and the basis with no generators), and
# absorber bases (D, E)
EXPANSION_RELATIONS = {
    "A(2)": ["x*(x - pi^2)"], "B": ["x*(x - pi)", "y*(y - pi)", "x*y"],
    "H(2)": ["x*(x - pi^2)"], "U": ["7*x^2 - pi*y", "y^3"],
    "D": ["x*(x - pi)", "pi^2*x", "x*y"], "E": ["pi*x", "y^2 - pi*y"],
    "none": []}
LINEAR_EXPANSION = ("A(2)", "B", "H(2)", "U", "none")
_EXPANSION_BUILT = {}


def _expansion_basis(base, name):
    key = (base, name)
    if key not in _EXPANSION_BUILT:
        names = ("x",) if name == "A(2)" else ("x", "y")
        ring = PolyRing(EXPANSION_BASES[base], names)
        rels = EXPANSION_RELATIONS[name]
        order = MonomialOrder("global_degrevlex")
        gb = std_basis([ring.parse(r) for r in rels], order) if rels else \
            StdBasis(ring, order, [], [])
        _EXPANSION_BUILT[key] = ring, gb
    return _EXPANSION_BUILT[key]


def _coefficients(dvr):
    """Nonzero coefficients of valuation -1..2 with p-free denominators,
    and with p (or t) in the denominator."""
    if dvr.kind == "p_adic":
        p = dvr.p
        return st.builds(lambda a, d, e: F(a, d) * F(p) ** e,
                         st.integers(-9, 9).filter(lambda a: a % p),
                         st.sampled_from((1, 7, 11)), st.integers(-1, 2))
    field = dvr.field
    units = [(1, 0), (0, 1), (1, 1)]
    return st.builds(lambda e, a, c: RF(field, e, (a,), (field.one(), c)),
                     st.integers(-1, 2), st.sampled_from(units),
                     st.sampled_from(units + [(0, 0)]))


@st.composite
def _poly_vectors(draw, ring, nrows, max_degree):
    monomial = st.tuples(*[st.integers(0, max_degree)] * ring.nvars)
    entry = st.dictionaries(monomial, _coefficients(ring.dvr), max_size=3)
    return tuple(Poly(ring, draw(entry)) for _ in range(nrows))


def _assert_same_vector(dvr, got, want):
    """The integer vector has the Fraction vector's rows, in its order, and
    equal entries, over a positive denominator (over F_q[[t]], one whose
    lowest coefficient is 1)."""
    num, den = got
    assert den > 0 if dvr.kind == "p_adic" else den.normal() == den
    assert list(num) == list(want)
    assert dvr.join(num, den) == want


def _multiple(ring, col, u):
    """x^u * col."""
    return tuple(Poly(ring, {tuple(map(add, e, u)): c for e, c in p.terms.items()})
                 for p in col)


@pytest.mark.parametrize("name", list(EXPANSION_RELATIONS))
@pytest.mark.parametrize("base", list(EXPANSION_BASES))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_integer_expansion_matches_fraction_expansion(base, name, data):
    """SpanSolver's columns, read from the integer normal-form table, number
    their rows as the Fraction expansion through StdBasis.nf does and hold
    equal entries; so do targets, which give None when they touch a row no
    column reaches."""
    ring, gb = _expansion_basis(base, name)
    assert gb.linear == (name in LINEAR_EXPANSION)
    dvr = ring.dvr
    nrows = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 2))
    columns = data.draw(st.lists(_poly_vectors(ring, nrows, 2), min_size=1, max_size=3))
    solver = SpanSolver(ring, gb, columns, bound)
    absorb = bound + _degree(columns)
    row_index, vecs = _fraction_expansion(gb, ring, columns, bound, absorb)
    assert list(solver.row_index.items()) == list(row_index.items())
    assert len(solver.sparse_cols) == len(vecs)
    for got, want in zip(solver.sparse_cols, vecs):
        _assert_same_vector(dvr, got, want)
    # targets: multiples the columns reach, and arbitrary vectors, which
    # mostly touch rows outside the index
    col = data.draw(st.sampled_from(columns))
    targets = [_multiple(ring, col, u) for u in monomials_up_to(ring.nvars, bound)]
    targets += data.draw(st.lists(_poly_vectors(ring, nrows, 4), max_size=3))
    for target in targets:
        got = solver._vector(*gb.expand(gb.int_form(target)))
        want = _fraction_vector(gb, ring, target, None, row_index)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same_vector(dvr, got, want)
    assert list(solver.row_index.items()) == list(row_index.items())


@pytest.mark.parametrize("name", LINEAR_EXPANSION)
@pytest.mark.parametrize("base", list(EXPANSION_BASES))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_skipped_multiples_lie_in_the_span(base, name, data):
    """Over a linear basis the solver expands only the standard monomial
    multiples of its columns, and the span is the same: x^u * col lies in
    it for every u of degree <= bound that some lead divides."""
    ring, gb = _expansion_basis(base, name)
    assert gb.linear
    nrows = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 3))
    columns = data.draw(st.lists(_poly_vectors(ring, nrows, 2), min_size=1, max_size=2))
    solver = SpanSolver(ring, gb, columns, bound)
    kept = _multipliers(gb, ring, bound)
    assert [u for _, _, u in solver.meta[:len(kept)]] == kept
    skipped = [u for u in monomials_up_to(ring.nvars, bound) if u not in kept]
    if gb.gens and bound >= 2:
        assert skipped
    for col in columns:
        for u in skipped:
            assert solver.contains(_multiple(ring, col, u))


@pytest.mark.parametrize("base", ["Z_(3)", "Z_(5)"])
def test_integer_expansion_joins_table_denominators(base):
    """Over U the table holds x^2 -> (pi/7)*y and x^4 -> (pi/7)^2*y^2: a
    multiple whose later terms meet the denominator 49 after earlier terms
    (in its own row and in the row before) were summed over 7 matches the
    Fraction expansion."""
    ring, gb = _expansion_basis(base, "U")
    P = ring.parse
    columns = [(P("x + x^2 + y"), P("x^2 + x^4")), (P("x*y"), P("7*x^3"))]
    assert gb.linear
    solver = SpanSolver(ring, gb, columns, 2)
    row_index, vecs = _fraction_expansion(gb, ring, columns, 2, None)
    assert list(solver.row_index.items()) == list(row_index.items())
    assert 49 in [den for _, den in solver.sparse_cols]
    for got, want in zip(solver.sparse_cols, vecs, strict=True):
        _assert_same_vector(ring.dvr, got, want)


# ---------------------------------------------------------------------------
# absorbers added on demand

def _absorber_basis(base, name):
    """D and E of EXPANSION_RELATIONS, and O[x, y]/(pi*x)."""
    if name != "pi*x":
        return _expansion_basis(base, name)
    key = (base, name)
    if key not in _EXPANSION_BUILT:
        ring = PolyRing(EXPANSION_BASES[base], ("x", "y"))
        gb = std_basis([ring.parse("pi*x")], MonomialOrder("global_degrevlex"))
        _EXPANSION_BUILT[key] = ring, gb
    return _EXPANSION_BUILT[key]


def _degree(vectors):
    return max([0] + [p.degree() for v in vectors for p in v])


def _reference_contains(gb, ring, columns, bound, target):
    """Membership through an _Echelon over the Fraction expansion that
    holds absorbers in every row, to degree bound plus the larger of the
    target's and the columns' degrees."""
    dvr = ring.dvr
    absorb = bound + _degree(columns + [target])
    row_index, vecs = _fraction_expansion(gb, ring, columns, bound, absorb,
                                          range(len(target)))
    rhs = _fraction_vector(gb, ring, target, None, row_index)
    if rhs is None:
        return False
    return _Echelon(dvr, [dvr.split(v) for v in vecs]).reduce(dvr.split(rhs)) is not None


@st.composite
def _absorber_targets(draw, ring, gb, columns, bound):
    """Targets for a solver of columns: multiples of a column plus an
    element of I of higher degree than the columns, elements of I alone
    (in any row, the rows no column touches among them), and drawn
    vectors."""
    nrows = len(columns[0])
    col = draw(st.sampled_from(columns))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(gb.gens))
        e = draw(st.sampled_from(monomials_up_to(ring.nvars, 3)))
        i = draw(st.integers(0, nrows - 1))
        zero_in_A = g * Poly(ring, {e: draw(_coefficients(ring.dvr))})
        unit = (ring.zero,) * i + (zero_in_A,) + (ring.zero,) * (nrows - 1 - i)
        u = draw(st.sampled_from(monomials_up_to(ring.nvars, bound)))
        out += [unit, tuple(a + b for a, b in zip(_multiple(ring, col, u), unit))]
    out += draw(st.lists(_poly_vectors(ring, nrows, 3), max_size=2))
    return draw(st.permutations(out))


@pytest.mark.parametrize("name", ["D", "E", "pi*x"])
@pytest.mark.parametrize("base", ["Z_(2)", "Z_(3)", "Z_(5)"])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_absorbers_added_on_demand(base, name, data):
    """A solver over a basis with absorbers adds them as its columns and
    targets call for, and contains() and solve() agree with a reference
    that holds them in every row to the target's degree: for targets in
    rows no column touches, and of higher degree than the columns, asked
    of one solver in turn, so that later targets meet absorbers of earlier
    ones."""
    ring, gb = _absorber_basis(base, name)
    assert not gb.linear
    nrows = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 2))
    columns = data.draw(st.lists(_poly_vectors(ring, nrows, 2), min_size=1, max_size=2))
    if nrows == 2 and data.draw(st.booleans()):
        columns = [(col[0], ring.zero) for col in columns]  # row 1 untouched
    solver = SpanSolver(ring, gb, columns, bound)
    for target in data.draw(_absorber_targets(ring, gb, columns, bound)):
        inside = _reference_contains(gb, ring, columns, bound, target)
        assert solver.contains(target) == inside
        a = solver.solve(target)
        assert (a is not None) == inside
        if inside:
            for r in range(nrows):
                total = -target[r]
                for aj, col in zip(a, columns):
                    assert aj.degree() <= bound
                    total = total + aj * col[r]
                assert all(ring.dvr.val(c) >= 0 for c in total.terms.values())
                assert gb.nf(total).is_zero


def test_threads_share_one_absorbing_solver():
    """Threads asking one solver over O[x, y]/(pi*x) about targets that
    call for absorbers (of higher degree than the column, in a row it does
    not touch) get the answers a solver asked in turn gives."""
    ring, gb = _absorber_basis("Z_(3)", "pi*x")
    P = ring.parse
    columns = [(P("x + y"), ring.zero)]
    targets = [(P(f"pi*x^{k}"), ring.zero) for k in range(1, 7)]
    targets += [(ring.zero, P(f"pi*x*y^{k}")) for k in range(4)]
    targets += [(P("x^5"), ring.zero), (P("y^2 + x*y"), P("y"))]
    want = [SpanSolver(ring, gb, columns, 1).contains(t) for t in targets]
    assert any(want) and not all(want)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            solver = SpanSolver(ring, gb, columns, 1)
            kernel_vectors(solver)  # the echelon exists before the threads start
            start = threading.Barrier(4)
            got, errors = [], []

            def work(order):
                try:
                    start.wait(timeout=60)
                    answers = {k: solver.solve(targets[k]) is not None for k in order}
                    got.append([answers[k] for k in range(len(targets))])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            orders = [list(range(len(targets)))[::step] for step in (1, -1)] * 2
            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors and got == [want] * 4
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# the valuation cap inside the span solver

def test_valuation_cap_in_span_solver():
    """With a cap of 5 over x^2 = pi^3*x and y^2 = 0: a column coefficient
    past the cap (even one whose normal form is zero), and an expanded
    entry past it, raise when the solver is built, when a column is added
    with extend() (the coefficient when its int_form is made) and when a
    target is expanded; a numerator past the cap over a denominator
    divisible by p does not."""
    cfg = EngineConfig(valuation_cap=5)
    order = MonomialOrder("global_degrevlex")
    R = PolyRing(Dvr.p_adic(5), ("x", "y"))
    P = R.parse
    gb = std_basis([P("x^2 - pi^3*x"), P("y^2")], order, cfg)
    assert gb.linear
    cap = "coefficient valuation cap 5 exceeded"
    SpanSolver(R, gb, [(P("pi^3*x"),)], 0)  # pi^3*x itself is fine
    for col, bound in [(P("pi^3*x"), 1),  # x * pi^3*x -> pi^6*x
                       (P("pi^6*y^2"), 0)]:  # a zero normal form
        with pytest.raises(DegreeBoundExceeded, match=cap):
            SpanSolver(R, gb, [(col,)], bound)
        solver = SpanSolver(R, gb, [(P("x"),)], bound)
        with pytest.raises(DegreeBoundExceeded, match=cap):
            solver.extend(gb.int_form((col,)), bound)
    solver = SpanSolver(R, gb, [(P("x"),)], 1)
    for target in [P("pi^3*x^2"), P("pi^6*x"), P("x + pi^6*y^2")]:
        for query in (solver.contains, solver.solve):
            with pytest.raises(DegreeBoundExceeded, match=cap):
                query((target,))
    # x/pi + pi^5*y: numerators 1 and 5^6 over 5, every entry within the cap
    mixed = (P("x").scale(F(1, 5)) + P("pi^5*y"),)
    assert SpanSolver(R, gb, [mixed], 0).contains(mixed)
    for absorber in (StdBasis(R, order, [], [], cfg),
                     std_basis([P("pi*x")], order, cfg)):
        with pytest.raises(DegreeBoundExceeded, match=cap):
            SpanSolver(R, absorber, [(P("pi^6*y"),)], 0)


# ---------------------------------------------------------------------------
# pruning in integer form against the pruning on polynomials

def prune_on_polys(ring, gb_global, vectors, deg_bound):
    """The pruning loop as it ran on polynomials: every candidate a Poly
    vector, ordered by degree, number of terms and its rendered rows, and
    tested with SpanSolver.contains; one solver, empty at first (so a
    vector zero in A is never kept), grown by the vectors kept."""

    def sort_key(v):
        return (max((p.degree() for p in v), default=-1),
                sum(len(p.terms) for p in v),
                tuple(str(p) for p in v))

    kept = []
    solver = None
    for v in sorted(vectors, key=sort_key):
        if solver is None:
            solver = SpanSolver(ring, gb_global, kept, deg_bound)
        elif solver.ncols < len(kept):
            solver.extend(gb_global.int_form(kept[-1]), deg_bound)
        if not solver.contains(v):
            kept.append(v)
    return kept


@st.composite
def _candidates(draw, ring, gb, nrows):
    """A candidate list: drawn vectors and sums of them, repeats, multiples
    by scalars with other denominators, and vectors zero in A (a generator
    of I times a monomial, in one row), shuffled."""
    base = draw(st.lists(_poly_vectors(ring, nrows, 2), min_size=1, max_size=3))
    pick = st.sampled_from(base)
    out = list(base)
    out += draw(st.lists(pick, max_size=2))
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(pick), draw(pick)
        out.append(tuple(a + b for a, b in zip(u, v)))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(_coefficients(ring.dvr))
        out.append(tuple(p.scale(c) for p in draw(pick)))
    for _ in range(draw(st.integers(0, 2))):
        g = draw(st.sampled_from(gb.gens))
        e = draw(st.sampled_from(monomials_up_to(ring.nvars, 1)))
        i = draw(st.integers(0, nrows - 1))
        zero_in_A = g * Poly(ring, {e: draw(_coefficients(ring.dvr))})
        out.append((ring.zero,) * i + (zero_in_A,) + (ring.zero,) * (nrows - 1 - i))
    return draw(st.permutations(out))


@pytest.mark.parametrize("base, name", [
    ("Z_(3)", "H(2)"), ("Z_(5)", "U"), ("F_4[[t]]", "H(2)"),
    ("Z_(3)", "E"), ("Z_(3)", "D"), ("F_4[[t]]", "E")])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_prune_matches_prune_on_polys(base, name, data):
    """prune_generators, on the integer forms of drawn candidate lists,
    keeps the very vectors (the same objects, in the same order) the
    pruning on polynomials keeps, on linear bases (H(2), and U, whose table
    has denominators) and on bases with absorbers (E: pi*x, D); and the
    expansion it returns for each is its normal form when the basis is
    linear and the vector itself otherwise."""
    ring, gb = _expansion_basis(base, name)
    nrows = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 1))
    vecs = data.draw(_candidates(ring, gb, nrows))
    forms = [gb.int_form(v) for v in vecs]
    kept, _ = prune_generators(gb, forms, nrows, bound)
    want = prune_on_polys(ring, gb, vecs, bound)
    assert [id(vecs[k]) for k, _, _ in kept] == [id(v) for v in want]
    for k, rows, den in kept:
        nf = tuple(gb.nf(p) for p in vecs[k]) if gb.linear else vecs[k]
        assert gb.polys(rows, den, nrows) == nf


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_readers_see_the_columns_grow_kept(name):
    """After grow(), each reader of the solver (ncols, the kernel on all
    columns, kernel_forms(), kernel_constants(), solve() and contains()),
    the first to read it, answers as on a solver extended by each candidate
    outside its span as soon as it was tested; both keep the same
    candidates.  The candidates end with one kept, so that the reader
    comes right after a keep."""
    A = ALGEBRAS[name]()
    ring, gb = A.ring, A.gb_global
    rng = random.Random(20261020)
    columns = _random_vectors(A, rng, 2, 2)[:2]
    candidates = _random_vectors(A, rng, 2, 3)
    targets = _random_vectors(A, rng, 2, 3)[:6]
    n = len(columns)

    def eager():
        solver, kept = SpanSolver(ring, gb, columns, 1), []
        for k, v in enumerate(candidates):
            if not solver.contains(v):
                solver.extend(gb.int_form(v), 0)
                kept.append(k)
        return solver, kept

    def grown():
        solver = SpanSolver(ring, gb, columns, 1)
        kept = solver.grow([gb.int_form(v) for v in candidates], 0)
        return solver, [k for k, _, _ in kept]

    candidates = candidates[:eager()[1][-1] + 1]
    readers = [lambda s: s.ncols, kernel_vectors,
               lambda s: s.kernel_forms(range(n)), lambda s: s.kernel_constants(n),
               lambda s: [s.solve(t) for t in targets],
               lambda s: [s.contains(t) for t in targets]]
    for read in readers:
        (want, want_kept), (got, got_kept) = eager(), grown()
        assert got_kept == want_kept and got_kept
        assert read(got) == read(want)


def _reads(solver, n, targets):
    """Every read of a solver on n columns, rendered so that equal reads
    are equal byte for byte: kernel_forms, kernel_constants (columns of
    bound 0 only), solve and contains on each target."""
    out = [repr(solver.kernel_forms(range(n)))]
    if solver.deg_bound == 0:
        out.append(repr(solver.kernel_constants(0)))
    for t in targets:
        sol = solver.solve(t)
        out.append(None if sol is None else [str(p) for p in sol])
        out.append(solver.contains(t))
    return out


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_columns_added_before_the_first_read_join_the_batch(name):
    """A solver built empty and extended by some columns before its first
    read (and, over a linear basis, one grown by candidates whose rows no
    earlier candidate reaches, so that grow() builds no echelon) holds
    every column in its one batch elimination: each read equals, byte
    for byte, that of a solver constructed on the same columns, on a
    linear basis and on the absorber rings D and E."""
    A = ALGEBRAS[name]()
    ring, gb = A.ring, A.gb_global
    rng = random.Random(20261021)
    columns = [v for v in _random_vectors(A, rng, 2, 3) if any(p.terms for p in v)][:4]
    targets = _random_vectors(A, rng, 2, 3)[:6]
    n = len(columns)
    for bound in (0, 1):
        extended = SpanSolver(ring, gb, [], bound)
        for col in columns:
            extended.extend(gb.int_form(col), bound)
        assert _reads(extended, n, targets) == _reads(SpanSolver(ring, gb, columns, bound),
                                                      n, targets)
    if not gb.linear:
        return
    P, zero = ring.parse, ring.zero
    candidates = [(P("x + pi"), zero), (zero, P("x^2 + 1"))]
    grown = SpanSolver(ring, gb, [], 1)
    assert len(grown.grow([gb.int_form(v) for v in candidates], 1)) == 2
    assert grown._echelon is None
    assert _reads(grown, 2, targets) == _reads(SpanSolver(ring, gb, candidates, 1),
                                               2, targets)


@pytest.mark.parametrize("name", ["D", "E"])
def test_syzygies_keep_no_vector_zero_in_A(name):
    """Pruning keeps no vector zero in A, so _syzygies returns none, with
    no filter after it: over two steps of the syzygy resolution of D and
    E, whose bounded kernels hold many heads zero in A."""
    A = ALGEBRAS[name]()
    gb = A.gb_global
    columns = [(g,) for g in A.p_gens()]
    for _ in range(2):
        n = len(columns)
        heads = [gb.polys(rows, den, n)
                 for rows, den, _ in A.span_solver(columns).kernel_forms(range(n))]
        assert any(all(A.nf(p).is_zero for p in v) for v in heads)
        out, _ = _syzygies(A, columns)
        assert out
        assert all(any(not p.is_zero for p in v) for v in out)
        assert all(A.nf(p) == p for v in out for p in v)
        columns = out


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_kernel_forms_are_the_kernel_heads(name):
    """kernel_forms(range(n)) gives, in lowest terms, the nonzero heads of the
    kernel vectors on all columns, each once, in the order they first come:
    on the kernel of the p generators and the relations."""
    A = ALGEBRAS[name]()
    gb = A.gb_global
    gens = [(g,) for g in A.p_gens()]
    n = len(gens)
    solver = A.span_solver(gens + [(f,) for f in A.relations])
    want = []
    for v in kernel_vectors(solver):
        if any(p.terms for p in v[:n]) and v[:n] not in want:
            want.append(v[:n])
    forms = solver.kernel_forms(range(n))
    assert [gb.polys(rows, den, n) for rows, den, _ in forms] == want
    assert forms == [gb.int_form(v) for v in want]


def _box_solver(A):
    """The solver of the box monomials of a module-finite algebra, each
    column at multiplier bound 0."""
    fs = A.finite
    cols = [(Poly(A.ring, {e: A.dvr.one}),) for e in fs.box]
    return SpanSolver(A.ring, A.gb_global, cols, 0)


def _distinct_kernel_values(solver):
    """The kernel vectors on all columns of a solver whose columns entered
    at bound 0, read off the echelon as lists in K: nonzero, each once, in
    the order they first come."""
    dvr, out = solver.dvr, []
    for num, den in solver._ech().kernel_split():
        coords = {solver.meta[cid][1]: x for cid, x in num.items()
                  if solver.meta[cid][0] == "var"}
        vec = dvr.join(coords, den)
        v = [vec.get(j, dvr.zero) for j in range(solver.ncols)]
        if any(v) and v not in out:
            out.append(v)
    return out


def test_kernel_constants_drop_repeats_on_absorber_bases():
    """Over a basis whose leads are not all units, the bounded kernel of the
    box monomials holds one relation vector twice; kernel_constants gives
    each of its four distinct vectors once, and they are the algebra's
    relations."""
    O = Dvr.p_adic(2)
    R = PolyRing(O, ("x1", "x2", "x3"))
    rels = ["x1^2 - 4*x1", "2*x2", "x2^2 - 4*x2", "2*x3", "x3^2 - 2*x3", "x1*x2"]
    A = build_algebra(R, [R.parse(f) for f in rels], [O.zero] * 3, 0)
    assert not A.gb_global.linear
    constants = _box_solver(A).kernel_constants(0)
    assert len(constants) == 4
    assert constants == _distinct_kernel_values(_box_solver(A))
    assert constants == A.finite.algebra_relations()


def test_kernel_constants_are_the_distinct_kernel_vectors():
    """On fifty random module-finite algebras across four bases (seeds 84
    and 101 among them hold a repeated kernel vector), kernel_constants(0)
    of the box monomials is the kernel read off the echelon with each
    vector once, and it is the algebra's relations."""
    bases = [Dvr.p_adic(2), Dvr.p_adic(3), Dvr.p_adic(5), Dvr.power_series(4)]
    for seed in range(60, 110):
        A = random_grammar_algebra(bases[seed % 4], random.Random(seed),
                                   finite_only=True)
        constants = _box_solver(A).kernel_constants(0)
        assert constants == _distinct_kernel_values(_box_solver(A)), seed
        assert constants == A.finite.algebra_relations(), seed
