"""SpanSolver grown with extend() and prune_generators, against solvers built
afresh and the rebuild-per-keep pruning loop."""

import random

import pytest

from congrmod import Dvr, PolyRing, build_algebra
from congrmod.config import DEFAULT_CONFIG
from congrmod.linsolve import SpanSolver, _max_degree, prune_generators
from conftest import make_An, make_depth_zero_example, make_hypersurface_2var, make_ring_B


def prune_by_rebuilding(ring, gb_global, vectors, deg_bound, config=DEFAULT_CONFIG):
    """Greedy removal of vectors lying in the span of the ones kept; the
    membership oracle is rebuilt only when a vector is actually kept, and
    candidates in between reuse its echelon."""

    def sort_key(v):
        return (max((p.degree() for p in v), default=-1),
                sum(len(p.terms) for p in v),
                tuple(str(p) for p in v))

    vecs = sorted(vectors, key=sort_key)
    if not vecs:
        return []
    nrows = len(vecs[0])
    absorb = deg_bound + _max_degree(vecs)
    kept = []
    solver = None
    for v in vecs:
        if kept:
            if solver is None:
                solver = SpanSolver(ring, gb_global, kept, nrows, deg_bound,
                                    absorb, config)
            if solver.contains(v):
                continue
        kept.append(v)
        solver = None
    return kept


def _pi_x_ring():
    O = Dvr.p_adic(3)
    R = PolyRing(O, ("x", "y"))
    return build_algebra(R, [R.parse("pi*x"), R.parse("y^2 - pi*y")],
                         [O.zero, O.zero], 1, name="E")


# unit-lead bases (normal forms are O-linear) and absorber bases
ALGEBRAS = {"A(2)": lambda: make_An(5, 2), "B": lambda: make_ring_B(5),
            "H(2)": lambda: make_hypersurface_2var(5, 2),
            "D": lambda: make_depth_zero_example(5), "E": _pi_x_ring}
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
        solver, _ = A.span_solver(prev, nrows, bound=1)
        vecs = solver.kernel()
        kept = prune_generators(ring, gb, vecs, 1, A.config)
        assert kept == prune_by_rebuilding(ring, gb, vecs, 1, A.config)
        prev, nrows = [tuple(A.nf(p) for p in v) for v in kept], len(prev)
    rng = random.Random(20261018)
    for bound in (0, 1, 2):
        for nrows in (1, 2):
            vecs = _random_vectors(A, rng, nrows, 4)
            kept = prune_generators(ring, gb, vecs, bound, A.config)
            assert kept == prune_by_rebuilding(ring, gb, vecs, bound, A.config)
            assert len(kept) < len(vecs)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_extended_solver_matches_fresh_solver(name):
    """A solver built on one column and extended by the others answers
    contains() as a solver built on all of them, its solve() gives
    multipliers that reach the target modulo I, and its kernel() gives
    syzygies."""
    A = ALGEBRAS[name]()
    rng = random.Random(7)
    columns = _random_vectors(A, rng, 2, 3)[:4]
    absorb = 1 + max(3, _max_degree(columns))
    fresh = SpanSolver(A.ring, A.gb_global, columns, 2, 1, absorb, A.config)
    grown = SpanSolver(A.ring, A.gb_global, columns[:1], 2, 1, absorb, A.config)
    for col in columns[1:]:
        grown.extend(col, 1)
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
    for a in grown.kernel():
        for r in range(2):
            total = A.ring.zero
            for aj, col in zip(a, columns):
                total = total + aj * col[r]
            assert A.nf(total).is_zero
