import json
from math import comb

import pytest

from congrmod import FpModule, PolyRing, build_algebra, ext_module, resolve_O, syzygy_module, verify_resolution
from congrmod.errors import ResolutionTooShort, StrategyInapplicable, VerificationFailed
from congrmod.resolution import _apply_columns
from conftest import (make_An, make_ring_B, make_depth_zero_example, make_hypersurface_2var,
                      run_python)


def test_koszul_regular(O5):
    R = PolyRing(O5, ("x",))
    A = build_algebra(R, [], [O5.zero], 1, name="O[x]")
    res = resolve_O(A, length=3)
    assert res.strategy == "koszul"
    assert res.ranks == [1, 1, 0, 0]
    assert verify_resolution(res).label() == "certified"


def test_koszul_ranks_binomial(O5):
    R = PolyRing(O5, ("x", "y", "z"))
    A = build_algebra(R, [], [O5.zero] * 3, 3, name="reg3")
    res = resolve_O(A, length=4)
    assert res.ranks == [comb(3, i) for i in range(4)] + [0]
    verify_resolution(res)


def test_matrix_factorization_periodic_tail():
    A = make_An(5, 2)
    res = resolve_O(A, length=5)
    assert res.strategy == "matrix_factorization"
    assert res.ranks == [1] * 6
    d = [res.differential(i)[0][0] for i in range(1, 6)]
    assert [str(x) for x in d] == ["x", "x - 25", "x", "x - 25", "x"]
    assert verify_resolution(res).label() == "certified"


def test_two_variable_hypersurface():
    H = make_hypersurface_2var(5, 2)
    res = resolve_O(H, length=4)
    assert res.strategy == "matrix_factorization"
    assert res.ranks == [1, 2, 2, 2, 2]
    verify_resolution(res)


def test_syzygy_strategy_on_B():
    B = make_ring_B(5)
    res = resolve_O(B, length=2, strategy="syzygy")
    assert res.cert.label() == "certified"
    verify_resolution(res)


def test_depth_zero_syzygy():
    D = make_depth_zero_example(5)
    res = resolve_O(D)
    assert res.strategy == "syzygy"
    verify_resolution(res)
    assert res.cert.kind == "bounded"


def test_shamash_on_complete_intersection(O5):
    R = PolyRing(O5, ("x", "y"))
    rels = [R.parse("x*(x - pi)"), R.parse("y*(y - pi^2)")]
    A = build_algebra(R, rels, [O5.zero] * 2, 0, claimed_ci=True, name="CI")
    res = resolve_O(A, length=3, strategy="shamash")
    verify_resolution(res)
    res2 = resolve_O(A, length=3, strategy="syzygy")
    # strategy independence of the Ext invariant factors
    for i in range(3):
        e1 = ext_module(A, FpModule.o_module(A), i, res)
        e2 = ext_module(A, FpModule.o_module(A), i, res2)
        assert e1.structure.signature == e2.structure.signature


def test_strategy_inapplicable(O5):
    A = make_An(5, 1)
    with pytest.raises(StrategyInapplicable):
        resolve_O(A, strategy="koszul")
    B = make_ring_B(5)
    with pytest.raises(StrategyInapplicable):
        resolve_O(B, strategy="matrix_factorization")
    with pytest.raises(StrategyInapplicable):
        resolve_O(B, strategy="shamash")  # no CI assertion


def test_file_strategy_verified():
    A = make_An(5, 2)
    R = A.ring
    mats = [
        [(R.parse("x"),)],
        [(R.parse("x - pi^2"),)],
    ]
    res = resolve_O(A, length=2, strategy="file", user_matrices=mats)
    assert res.cert.label() == "user_supplied_verified"


def test_file_strategy_corrupted_rejected():
    A = make_An(5, 2)
    A._resolutions.clear()
    R = A.ring
    bad = [
        [(R.parse("x"),)],
        [(R.parse("x - pi"),)],  # d1 * d2 = x(x - pi) not in the ideal
    ]
    with pytest.raises(VerificationFailed):
        resolve_O(A, length=2, strategy="file", user_matrices=bad)


def test_corrupted_exactness_detected():
    """d^2 = 0 can hold while exactness fails; verification catches it."""
    A = make_An(5, 2)
    R = A.ring
    mats = [
        [(R.parse("x"),)],
        [(R.parse("(x - pi^2)^2"),)],  # image is pi^2 * ker, not ker
    ]
    with pytest.raises(VerificationFailed):
        resolve_O(A, length=2, strategy="file", user_matrices=mats)


def test_resolution_too_short():
    A = make_An(5, 2)
    res = resolve_O(A, length=2)
    with pytest.raises(ResolutionTooShort):
        res.differential(3)


class TestSyzygyModule:
    def test_koszul_syzygy(self, O5):
        R = PolyRing(O5, ("x", "y"))
        A = build_algebra(R, [], [O5.zero] * 2, 2, name="free")
        cols, cert = syzygy_module(A, [(R.parse("x"),), (R.parse("y"),)])
        assert cert.kind == "bounded"
        # the Koszul relation (-y, x) is in the span of the output
        solver, _ = A.span_solver(cols, 2, target_degree=1)
        assert solver.contains((R.parse("-y"), R.parse("x")))

    def test_annihilator_syzygy(self):
        A = make_An(5, 1)
        R = A.ring
        cols, cert = syzygy_module(A, [(R.parse("x"),)])
        assert cert.label() == "certified"
        solver, _ = A.span_solver(cols, 1, target_degree=1)
        assert solver.contains((R.parse("x - pi"),))

    def test_membership_reaches_target_degree(self, O5):
        """In O[x]/(pi*x), pi*x^6 is zero, so it lies in the span of x; the
        absorber columns must reach degree 6 to see that, beyond the
        columns' own degree plus the search degree 4.  x^6 = x^5 * x needs
        a multiplier of degree 5, so it is outside the bounded span."""
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [R.parse("pi*x")], [O5.zero], 0, name="O[x]/(pi*x)")
        solver, cert = A.span_solver([(R.parse("x"),)], 1, target_degree=6)
        assert cert.label() == "bounded_search(degree 4)"
        assert solver.contains((R.parse("pi*x^6"),))
        assert not solver.contains((R.parse("x^6"),))

    def test_identity_has_no_syzygies(self, O5):
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [], [O5.zero], 1, name="free1")
        cols, _ = syzygy_module(A, [(R.one, R.zero), (R.zero, R.one)])
        assert cols == []

    def test_soundness_always(self):
        B = make_ring_B(5)
        R = B.ring
        cols, _ = syzygy_module(B, [(R.parse("x"),), (R.parse("y"),)])
        for col in cols:
            img = _apply_columns(R, [(R.parse("x"),), (R.parse("y"),)], col)
            assert all(B.in_ideal(e) for e in img)


DETERMINANTAL_SCRIPT = """
import hashlib, json
from congrmod import resolve_O
from conftest import make_ring_C
res = resolve_O(make_ring_C(5, 1, 1, 1), length=3, strategy="syzygy")
text = repr([[[str(p) for p in col] for col in d] for d in res.diffs])
print(json.dumps([res.ranks, res.cert.label(), hashlib.sha256(text.encode()).hexdigest()]))
"""


def test_determinantal_syzygy_prune_path():
    """Criterion 8's prune path: C(5; 1,1,1) resolved by syzygies to length
    3, in a child interpreter killed after 5 s.  The digest of the
    differentials was recorded when pruning still built a new span solver
    for every vector kept, which took about 8 s on a 2-vCPU host; growing
    one solver per call takes about 1 s."""
    proc = run_python(["-c", DETERMINANTAL_SCRIPT], seconds=5)
    assert proc.returncode == 0, proc.stderr
    ranks, label, digest = json.loads(proc.stdout)
    assert ranks == [1, 6, 21, 64]
    assert label == "bounded_search(degree 2)"
    assert digest == "a015d03b2008567ce2508b55e96aefb83f1950c97e70aae1187bfec7c69556c5"
