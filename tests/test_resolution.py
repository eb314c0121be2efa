import hashlib
import json
import random
import sys
import threading
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from congrmod import (Dvr, FpModule, PolyRing, build_algebra, ext_module, resolve_O,
                      serre_check, syzygy_module, verify_resolution)
from congrmod import resolution
from congrmod.cli import random_grammar_algebra
from congrmod.config import EngineConfig
from congrmod.errors import (InternalInvariantViolation, ResolutionTooShort,
                             StrategyInapplicable, VerificationFailed)
from congrmod.linsolve import SpanSolver
from congrmod.omodule import _Echelon
from congrmod.poly import Poly, monomials_up_to
from congrmod.probfile import load_problem
from congrmod.resolution import (_add_into, _apply_columns, _koszul_contraction,
                                 _Shamash)
from congrmod.stdbasis import StdBasis
from conftest import (make_An, make_ring_B, make_ring_C, make_depth_zero_example,
                      make_hypersurface_2var, make_pi_x_ring, run_python)

BASES = [("Z_(3)", lambda: Dvr.p_adic(3)), ("Z_(5)", lambda: Dvr.p_adic(5)),
         ("F_4[[t]]", lambda: Dvr.power_series(4))]


def _koszul_diff(ring, s_polys, k):
    """Columns of K_k -> K_(k-1) for the sequence s, bases sorted subsets."""
    n = len(s_polys)
    lower = {S: i for i, S in enumerate(combinations(range(n), k - 1))}
    cols = []
    for S in combinations(range(n), k):
        col = [ring.zero] * len(lower)
        for t, v in enumerate(S):
            T = tuple(x for x in S if x != v)
            c = s_polys[v] if t % 2 == 0 else -s_polys[v]
            col[lower[T]] = col[lower[T]] + c
        cols.append(col)
    return [tuple(c) for c in cols]


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


@pytest.mark.parametrize("base", BASES, ids=[b[0] for b in BASES])
def test_koszul_is_the_shamash_complex_without_relations(base):
    """koszul builds the Shamash complex with no relations; its
    differentials equal the Koszul complex on x_i - a_i built directly (the
    reference above), term for term, with zero and nonzero augmentations."""
    O = base[1]()
    for n in range(1, 5):
        R = PolyRing(O, tuple(f"x{i}" for i in range(n)))
        for aug in ([O.zero] * n, [O.pi_pow(i % 2 + 1) for i in range(n)]):
            A = build_algebra(R, [], aug, n, name="free")
            res = resolve_O(A, length=n + 2, strategy="koszul")
            assert res.ranks == [comb(n, i) for i in range(n + 3)]
            for i in range(1, n + 3):
                want = _koszul_diff(R, A.p_gens(), i) if i <= n else []
                assert ([[list(p.terms.items()) for p in col]
                         for col in res.differential(i)]
                        == [[list(p.terms.items()) for p in col] for col in want])


def _random_poly(R, rng, degree):
    O = R.dvr
    terms = {}
    for e in monomials_up_to(R.nvars, degree):
        if rng.random() < 0.4:
            c = O.from_int(rng.randint(-12, 12)) * O.pi_pow(rng.randint(0, 2))
            if c:
                terms[e] = c
    return Poly(R, terms)


@pytest.mark.parametrize("base", BASES, ids=[b[0] for b in BASES])
def test_solve_boundary_lifts_boundaries(base, rng):
    """The homotopy lift's boundary solve: for z = d(w) it returns u with
    d(u) = z; a non-boundary raises."""
    O = base[1]()
    for n in range(1, 5):
        R = PolyRing(O, tuple(f"x{i}" for i in range(n)))
        sh = _Shamash(build_algebra(R, [], [O.zero] * n, n, name="free"))
        for _ in range(6):
            k = rng.randint(1, n)
            w = {T: _random_poly(R, rng, 2) for T in combinations(range(n), k)}
            z = sh._diff_elem(w)
            u = sh._solve_boundary(z)
            assert sh._diff_elem(u) == z
        with pytest.raises(InternalInvariantViolation):
            sh._solve_boundary({(): R.one + R.var(0)})
        if n >= 2:  # not a cycle, so not a boundary
            with pytest.raises(InternalInvariantViolation):
                sh._solve_boundary({(0,): R.var(1)})


@pytest.mark.parametrize("base", BASES, ids=[b[0] for b in BASES])
def test_koszul_contraction_is_a_homotopy(base, rng):
    """dh + hd = 1 - eps on random elements of every K_k, n <= 4, where h is
    the Koszul contraction and eps is evaluation at 0 on K_0.  _random_poly
    keeps only coefficients nonzero in the base (F_4 has characteristic 2)."""
    O = base[1]()
    for n in range(1, 5):
        R = PolyRing(O, tuple(f"x{i}" for i in range(n)))
        sh = _Shamash(build_algebra(R, [], [O.zero] * n, n, name="free"))
        for k in range(n + 1):
            for _ in range(3):
                w = {S: p for S in combinations(range(n), k)
                     if (p := _random_poly(R, rng, 2)).terms}
                lhs = sh._diff_elem(_koszul_contraction(R, w))
                for S, p in _koszul_contraction(R, sh._diff_elem(w)).items():
                    _add_into(lhs, S, p)
                want = dict(w)
                if k == 0 and w:
                    _add_into(want, (), -R.const(w[()].constant_value()))
                assert lhs == want


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


def _ci_xyz():
    O = Dvr.p_adic(5)
    R = PolyRing(O, ("x", "y", "z"))
    rels = [R.parse("x*(x - pi)"), R.parse("y*(y - pi^2)")]
    return build_algebra(R, rels, [O.zero] * 3, 2, claimed_ci=True, name="CI3")


# strategy -> (algebra, SpanSolver builds, d_1..d_4 as columns of strings)
_PINNED_SHAMASH = {
    "matrix_factorization": (
        lambda: make_hypersurface_2var(5, 2), 0,
        [[["x"], ["y"]], [["x - 25", "0"], ["-y", "x"]],
         [["x", "0"], ["y", "x - 25"]], [["x - 25", "0"], ["-y", "x"]]]),
    "shamash": (
        _ci_xyz, 2,
        [[["x"], ["y"], ["z"]],
         [["0", "y - 25", "0"], ["x - 5", "0", "0"], ["-y", "x", "0"],
          ["-z", "0", "x"], ["0", "-z", "y"]],
         [["x", "0", "-y + 25", "0", "0"], ["0", "x", "0", "0", "0"],
          ["0", "0", "z", "-y", "x"], ["y", "0", "0", "0", "0"],
          ["0", "y", "x - 5", "0", "0"], ["z", "0", "0", "0", "y - 25"],
          ["0", "z", "0", "x - 5", "0"]],
         [["0", "0", "0", "y - 25", "0", "0", "0"],
          ["x - 5", "0", "0", "0", "y - 25", "0", "0"],
          ["0", "x - 5", "0", "0", "0", "0", "0"],
          ["-y", "0", "0", "x", "0", "0", "0"],
          ["0", "-y", "0", "0", "x", "0", "0"],
          ["-z", "0", "-y + 25", "0", "0", "x", "0"],
          ["0", "-z", "0", "0", "0", "0", "x"],
          ["0", "0", "0", "-z", "0", "y", "0"],
          ["0", "0", "x - 5", "0", "-z", "0", "y"]]]),
}


@pytest.mark.parametrize("strategy", sorted(_PINNED_SHAMASH))
def test_shamash_differentials_pinned(strategy, monkeypatch):
    """The n >= 2 Shamash complexes, byte for byte, lifted with no linear
    system: the only SpanSolvers built are the regular-sequence check's two
    (a single relation needs no check)."""
    make, want_builds, want = _PINNED_SHAMASH[strategy]
    A = make()
    builds = []
    real = SpanSolver.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SpanSolver, "__init__", counted)
    res = resolve_O(A, length=4, strategy=strategy)
    assert [[[str(p) for p in col] for col in res.differential(i)]
            for i in range(1, 5)] == want
    assert len(builds) == want_builds


# base -> (first seed, SHA-256 of the syzygy differentials of the first 20
# random grammar algebras from that seed on whose global basis is linear),
# captured while the span solvers expanded every monomial of degree <= D
_PINNED_SYZYGY = {
    "Z_(2)": (0, "5ab8afe4703d61857428c3ba46bbf82f99cb649e071be114ede0cf356c79ecd7"),
    "Z_(5)": (1000, "f67a482366bfa3a98119f974f5b42e6be699cc13ee88dc6b379825b355c6b9e5"),
    "F_4[[t]]": (2000, "900e5ea9af2e1af0299f040e3ce7bf3af6c3531c6978278dfd286db47332c57c"),
}
_PINNED_BASES = {"Z_(2)": lambda: Dvr.p_adic(2), "Z_(5)": lambda: Dvr.p_adic(5),
                 "F_4[[t]]": lambda: Dvr.power_series(4)}


def _syzygy_digest(base, seed, count=20):
    """The SHA-256 of d_1..d_(c+2) of the syzygy resolution, rendered, of
    the first count linear random grammar algebras from seed on, at search
    degree 3."""
    dvr, config = _PINNED_BASES[base](), EngineConfig(search_degree=3)
    digest = hashlib.sha256()
    while count:
        A = random_grammar_algebra(dvr, random.Random(seed), config=config)
        seed += 1
        if not A.gb_global.linear:
            continue
        res = resolve_O(A, length=A.codim + 2, strategy="syzygy")
        digest.update(repr([[[str(p) for p in col] for col in d]
                            for d in res.diffs]).encode())
        count -= 1
    return digest.hexdigest()


@pytest.mark.parametrize("base", sorted(_PINNED_SYZYGY))
def test_syzygy_differentials_pinned(base):
    """The syzygy resolutions of random grammar algebras over a linear basis,
    module-finite and not (search degree 3), byte for byte: expanding only
    the standard monomial multiples leaves the pruned generators as they
    were."""
    seed, want = _PINNED_SYZYGY[base]
    assert _syzygy_digest(base, seed) == want


def test_verify_builds_each_solver_once(monkeypatch):
    """The solver of d_1 gives the kernel at step 1 before it tests
    membership, and the solver of d_(i+1) that tests membership at step i
    also gives the kernel at step i+1: top + 1 builds, with top = codim +
    1 = 2 here."""
    res = resolve_O(make_hypersurface_2var(5, 2), length=4)
    builds = []
    real = SpanSolver.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SpanSolver, "__init__", counted)
    assert verify_resolution(res).label() == "certified"
    assert len(builds) == 3


def _hypersurface_3var(k, search_degree=4):
    """x0*(x0 - pi^k) in x0, x1, x2 over Z_(5), codimension 2, with the zero
    augmentation: not module-finite, so searched at the given degree."""
    O = Dvr.p_adic(5)
    R = PolyRing(O, ("x0", "x1", "x2"))
    return build_algebra(R, [R.parse(f"x0*(x0 - pi^{k})")], [O.zero] * 3, 2,
                         config=EngineConfig(search_degree=search_degree), name="hyp3")


def _linear_grammar_algebras(base, count=3):
    """The first count random grammar algebras with a linear global basis
    from the seed of _PINNED_SYZYGY, at its search degree 3."""
    seed, out = _PINNED_SYZYGY[base][0], []
    while len(out) < count:
        A = random_grammar_algebra(_PINNED_BASES[base](), random.Random(seed),
                                   config=EngineConfig(search_degree=3))
        seed += 1
        if A.gb_global.linear:
            out.append(A)
    return out


def _in_order(forms):
    """int_forms with every dict listed in its order, so that equal results
    are equal entry for entry and in the same order."""
    return [([(i, list(terms.items())) for i, terms in rows], den, val)
            for rows, den, val in forms]


def _handoffs(A, length):
    """Build the syzygy resolution of A step by step through length; after
    each pruned step d_t: the heads of d_t read off the solver that
    prune_generators handed on, which the resolution keeps (None where none
    came back), and those of a fresh A.span_solver(d_t), both listed in
    order (_in_order).  The heads the next step reads
    (FreeResolution._top_kernel) are the fresh solver's at every step."""
    res = resolve_O(A, strategy="syzygy")
    out = []
    for t in range(2, length + 1):
        d = res.differential(t)
        if not d:
            break
        solver = res._pruner
        r = range(len(d))
        fresh = _in_order(A.span_solver(d).kernel_forms(r))
        handed = None if solver is None else _in_order(solver.kernel_forms(r))
        assert _in_order(res._top_kernel()) == fresh
        out.append((handed, fresh))
    return out


@pytest.mark.parametrize("base", sorted(_PINNED_SYZYGY))
def test_pruning_solver_hands_on_the_kernel_of_its_step(base):
    """Where prune_generators hands on the solver that pruned d_t, the
    heads read off it, the candidates of d_(t+1), are byte for byte those
    of a fresh solver on d_t: at every step t >= 2 of the linear grammar
    algebras of test_syzygy_differentials_pinned and of x0*(x0 - pi^k) in
    three variables, where a solver comes back at some step."""
    algebras = _linear_grammar_algebras(base)
    if base == "Z_(5)":
        algebras += [_hypersurface_3var(k) for k in (1, 2, 3)]
    taken = 0
    for A in algebras:
        for handed, fresh in _handoffs(A, A.codim + 2):
            if handed is not None:
                assert handed == fresh
                taken += 1
    assert taken


@pytest.mark.parametrize("make", [lambda: make_depth_zero_example(5),
                                  make_pi_x_ring], ids=["D", "E"])
def test_no_pruning_solver_comes_back_over_absorbers(make):
    """Over a basis with absorbers the pruning echelon holds absorber
    columns a fresh solver on the kept vectors may lack, so
    prune_generators hands on no solver, and every kernel of the syzygy
    resolution is read off a fresh solver."""
    A = make()
    assert not A.gb_global.linear
    steps = _handoffs(A, A.codim + 2)
    assert steps and all(handed is None for handed, _ in steps)


def test_fresh_solver_where_pruning_needed_its_echelon():
    """On C(5; 1,1,1) at D = 2, a linear basis, some keeps of d_2 and of
    d_3 come after a candidate that needed the pruning echelon, so the kept
    columns after it were appended to it one by one: prune_generators
    hands on no solver at either step, and each kernel is read off a fresh
    solver.  The differentials stay as pinned
    (test_determinantal_syzygy_prune_path)."""
    A = make_ring_C(5, 1, 1, 1)
    assert A.gb_global.linear
    steps = _handoffs(A, 3)
    assert len(steps) == 2 and all(handed is None for handed, _ in steps)
    res = resolve_O(A, length=3, strategy="syzygy")
    text = repr([[[str(p) for p in col] for col in d] for d in res.diffs])
    digest = "a015d03b2008567ce2508b55e96aefb83f1950c97e70aae1187bfec7c69556c5"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _syzygy_module_between_steps(res, builds):
    """d_2, then a syzygy_module call on the algebra, then d_4; the solvers
    that call builds are its own, and are not counted."""
    A = res.algebra
    res.differential(2)
    before = len(builds)
    syzygy_module(A, [(g,) for g in A.p_gens()])
    del builds[before:]
    res.differential(4)


@pytest.mark.parametrize("read", [
    lambda res, builds: res.ranks,
    lambda res, builds: (serre_check(res.algebra, res), res.ranks),
    _syzygy_module_between_steps], ids=["ranks", "serre_check-ranks", "d2-syzygy_module-d4"])
def test_syzygy_steps_build_one_solver_each(read, monkeypatch):
    """The syzygy resolution of x0*(x0 - pi^2) in three variables at D = 4,
    to length c + 2 = 4, builds four span solvers: the kernel solver of d_1
    and the solver that prunes each of d_2, d_3 and d_4, whose echelon then
    gives the next kernel; and pruning adds every kept column to the batch,
    never to a built echelon (_Echelon.extend).  That holds in each reading
    order: the ranks alone; serre_check, which reads rho_4 off the kernel
    heads of d_3 before d_4 is built, then the ranks; and d_2, a
    syzygy_module call, then d_4."""
    builds, extends = [], []
    real_init, real_extend = SpanSolver.__init__, _Echelon.extend

    def counted(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    def extend(self, column):
        extends.append(1)
        real_extend(self, column)

    monkeypatch.setattr(SpanSolver, "__init__", counted)
    monkeypatch.setattr(_Echelon, "extend", extend)
    res = resolve_O(_hypersurface_3var(2), strategy="syzygy")
    read(res, builds)
    assert res.ranks == [1, 3, 4, 4, 4]
    assert len(builds) == 4
    assert extends == []


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


def _ci(O5):
    R = PolyRing(O5, ("x", "y"))
    rels = [R.parse("x*(x - pi)"), R.parse("y*(y - pi^2)")]
    return build_algebra(R, rels, [O5.zero] * 2, 0, claimed_ci=True, name="CI")


def test_auto_checks_regular_sequence_once(O5, monkeypatch):
    calls = []
    real = resolution._regular_sequence_check

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(resolution, "_regular_sequence_check", counted)
    assert resolve_O(_ci(O5), length=3).strategy == "shamash"
    assert len(calls) == 1
    # an explicit shamash request still checks, and still refuses
    monkeypatch.setattr(resolution, "_regular_sequence_check", lambda A: False)
    with pytest.raises(StrategyInapplicable):
        resolve_O(_ci(O5), length=3, strategy="shamash")


def test_auto_result_is_stored_once(O5, monkeypatch):
    """A second auto request of the same length is a cache hit: it returns
    the stored resolution without running the regular-sequence check."""
    calls = []
    real = resolution._regular_sequence_check
    monkeypatch.setattr(resolution, "_regular_sequence_check",
                        lambda A: calls.append(A) or real(A))
    A = _ci(O5)
    first = resolve_O(A, length=3)
    assert resolve_O(A, length=3) is first
    assert len(calls) == 1


def test_syzygies_drop_heads_zero_in_A():
    """y is a nonzerodivisor on H(2), so the column (x, y) has no syzygy;
    the bounded kernel still holds multiples of the relation, which are
    zero in A and must not come back as a zero generator."""
    H = make_hypersurface_2var(5, 2)
    R = H.ring
    assert resolution._syzygies(H, [(R.parse("x"), R.parse("y"))])[0] == []


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
    R = A.ring
    bad = [
        [(R.parse("x"),)],
        [(R.parse("x - pi"),)],  # d1 * d2 = x(x - pi) not in the ideal
    ]
    with pytest.raises(VerificationFailed):
        resolve_O(A, length=2, strategy="file", user_matrices=bad)


def test_file_strategy_reads_the_matrices_of_every_call():
    """A file resolution is built and verified from the matrices of each
    call, though an earlier one is still held: A's cache, keyed by
    strategy, cannot tell two sets of matrices apart."""
    A = make_An(5, 2)
    R = A.ring
    x = R.parse("x")
    held = resolve_O(A, strategy="file", user_matrices=[[(x,)], [(R.parse("x - pi^2"),)]])
    res = resolve_O(A, strategy="file", user_matrices=[[(x,)]])
    assert res is not held and res.ranks == [1, 1] and held.ranks == [1, 1, 1]
    with pytest.raises(VerificationFailed):
        resolve_O(A, strategy="file", user_matrices=[[(R.parse("x + 1"),)]])


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


def test_threads_share_one_resolution():
    """Threads racing on a fresh algebra all get the resolution stored
    first, and with it one Ext memo."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            A = make_An(5, 2)
            got, errors = [], []
            start = threading.Barrier(6)

            def work():
                try:
                    start.wait(timeout=60)
                    got.append(resolve_O(A))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors and len(got) == 6
            assert all(res is got[0] for res in got)
    finally:
        sys.setswitchinterval(old)


def test_threads_share_one_syzygy_step(monkeypatch):
    """Threads racing to read rho_4 and d_4 of one fresh syzygy resolution
    of x0*(x0 - pi^2) in three variables read the kernel of each step
    once: four span solvers per resolution, rho_4 = 2 and d_4 as a lone
    reader builds it."""
    lone = resolve_O(_hypersurface_3var(2), strategy="syzygy").differential(4)
    builds, real_init = [], SpanSolver.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SpanSolver, "__init__", counted)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            res = resolve_O(_hypersurface_3var(2), strategy="syzygy")
            del builds[:]
            got, errors = [], []
            start = threading.Barrier(6)

            def work(k):
                try:
                    start.wait(timeout=60)
                    if k % 2:
                        got.append((res.lam_rank(4), res.differential(4)))
                    else:
                        d = res.differential(4)
                        got.append((res.lam_rank(4), d))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors and len(got) == 6
            assert all(rho == 2 and d == lone for rho, d in got)
            assert len(builds) == 4
    finally:
        sys.setswitchinterval(old)


def test_resolution_too_short():
    """Only a file resolution cannot grow: reading past its matrices, or
    asking for more steps than it has, raises."""
    A = make_An(5, 2)
    R = A.ring
    mats = [[(R.parse("x"),)], [(R.parse("x - pi^2"),)]]
    res = resolve_O(A, strategy="file", user_matrices=mats)
    with pytest.raises(ResolutionTooShort):
        res.differential(3)
    with pytest.raises(ResolutionTooShort):
        resolve_O(A, length=3, strategy="file", user_matrices=mats)
    assert res.ranks == [1, 1, 1]


def test_verify_reads_the_kernel_of_d1_only_when_d2_tests_it(monkeypatch):
    """A file resolution with one matrix has no d_2 to test d_1's kernel
    against, so verify_resolution reads no kernel; with two it reads d_1's
    alone, before its membership queries."""
    reads = []
    real = SpanSolver.kernel_forms
    monkeypatch.setattr(SpanSolver, "kernel_forms",
                        lambda self, cols: reads.append(cols) or real(self, cols))
    counts = []
    for k in (1, 2):
        A = make_An(5, 2)  # a fresh algebra, which holds no file resolution yet
        mats = [[(A.ring.parse("x"),)], [(A.ring.parse("x - pi^2"),)]]
        reads.clear()
        res = resolve_O(A, strategy="file", user_matrices=mats[:k])
        assert res.ranks == [1] * (k + 1)
        counts.append(len(reads))
    assert counts == [0, 1]


def test_one_resolution_per_strategy_grown_on_demand(O5, monkeypatch):
    """A longer request grows the stored resolution: the same object under
    one key, the regular-sequence check run once, d^2 checked once per
    step, and the same differentials as a resolution built at that length
    at once.  A per-step read builds only through the step it reads."""
    checks, squares = [], []
    real_check = resolution._regular_sequence_check
    real_square = resolution._check_d_squared
    monkeypatch.setattr(resolution, "_regular_sequence_check",
                        lambda A: checks.append(A) or real_check(A))
    monkeypatch.setattr(resolution, "_check_d_squared",
                        lambda A, d, e, i: squares.append(i) or real_square(A, d, e, i))
    A = _ci(O5)
    res = resolve_O(A)
    assert res.length == 2 and len(res._diffs) == 0
    res.differential(1)
    assert len(res._diffs) == 1
    assert resolve_O(A, length=3) is res and len(res._diffs) == 3
    assert resolve_O(A, length=5) is res and resolve_O(A) is res
    assert resolve_O(A, strategy="shamash") is res
    assert list(A._resolutions) == ["shamash"] and len(checks) == 1
    assert res.length == 5 and res.ranks == [1, 2, 3, 4, 5, 6]
    res.differential(4)
    assert res.describe(5)["ranks"] == res.ranks
    assert squares == [1, 2, 3, 4]
    once = resolve_O(_ci(O5), length=5)
    assert [[tuple(map(str, c)) for c in d] for d in res.diffs] == \
        [[tuple(map(str, c)) for c in d] for d in once.diffs]


CI_FILES = {
    "module-finite CI": """
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x*(x - pi), y*(y - pi^2)
[augmentation]
x = 0
y = 0
codim = 0
ci = true
""",
    "not module-finite": """
[dvr]
kind = p_adic
p = 5
[ring]
vars = x, y
relations = x*(x - pi)
[augmentation]
x = 0
y = 0
codim = 1
ci = true
[resolution]
d1 = [[x, y]]
d2 = [[x - pi, -y], [0, x]]
d3 = [[x, y], [0, x - pi]]
"""}
BOUNDED = "bounded_search(degree 4)"
# algebra -> (A.cert, {applicable strategy: res.cert})
CERT_RULE = {
    "module-finite CI": ("certified", {
        "auto": BOUNDED, "shamash": BOUNDED, "syzygy": "certified"}),
    "not module-finite": (BOUNDED, {
        "auto": "certified", "matrix_factorization": "certified",
        "shamash": "certified", "syzygy": BOUNDED, "file": BOUNDED}),
}


@pytest.mark.parametrize("name, strategy", [
    (name, strategy) for name, (_, labels) in CERT_RULE.items()
    for strategy in labels])
def test_certificate_rule(name, strategy):
    """One relation is a regular sequence by theory, so the Shamash family
    certifies it on any algebra; more relations are checked by bounded
    search.  A syzygy or file resolution is as certain as the algebra's
    searches: certified (or user-supplied) when module-finite, bounded
    otherwise."""
    problem = load_problem(CI_FILES[name])
    A = problem.algebra
    res = resolve_O(A, strategy=strategy,
                    user_matrices=problem.resolution_matrices)
    algebra_label, labels = CERT_RULE[name]
    assert (res.cert.label(), A.cert.label()) == (labels[strategy], algebra_label)


class TestSyzygyModule:
    def test_koszul_syzygy(self, O5):
        R = PolyRing(O5, ("x", "y"))
        A = build_algebra(R, [], [O5.zero] * 2, 2, name="free")
        cols, cert = syzygy_module(A, [(R.parse("x"),), (R.parse("y"),)])
        assert cert.kind == "bounded"
        # the Koszul relation (-y, x) is in the span of the output
        solver = A.span_solver(cols)
        assert solver.contains((R.parse("-y"), R.parse("x")))

    def test_annihilator_syzygy(self):
        A = make_An(5, 1)
        R = A.ring
        cols, cert = syzygy_module(A, [(R.parse("x"),)])
        assert cert.label() == "certified"
        solver = A.span_solver(cols)
        assert solver.contains((R.parse("x - pi"),))

    def test_membership_reaches_target_degree(self, O5):
        """In O[x]/(pi*x), pi*x^6 is zero, so it lies in the span of x; the
        absorber columns must reach degree 6 to see that, beyond the
        columns' own degree plus the search degree 4.  x^6 = x^5 * x needs
        a multiplier of degree 5, so it is outside the bounded span."""
        R = PolyRing(O5, ("x",))
        A = build_algebra(R, [R.parse("pi*x")], [O5.zero], 0, name="O[x]/(pi*x)")
        solver = A.span_solver([(R.parse("x"),)])
        assert A.cert.label() == "bounded_search(degree 4)"
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


    def test_non_syzygy_is_caught(self, monkeypatch):
        """The d^2 check, not the syzygy step, vouches for every syzygy."""
        def not_syzygies(A, columns, heads=None):
            return [(A.ring.one,) + (A.ring.zero,) * (len(columns) - 1)], None

        monkeypatch.setattr(resolution, "_syzygies", not_syzygies)
        B = make_ring_B(5)
        R = B.ring
        with pytest.raises(VerificationFailed):
            syzygy_module(B, [(R.parse("x"),), (R.parse("y"),)])
        with pytest.raises(VerificationFailed):
            resolve_O(make_ring_B(5), length=2, strategy="syzygy")


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


@pytest.mark.parametrize("make", [lambda: make_ring_C(5, 1, 1, 1),
                                  lambda: make_depth_zero_example(5)],
                         ids=["C(5;1,1,1)", "D"])
def test_syzygy_prune_builds_polys_for_kept_vectors_only(make, monkeypatch):
    """Resolving by syzygies to length 3, _syzygies turns a vector into
    polynomials (StdBasis.polys) once for each vector pruning keeps, never
    for the other candidates, and renders rows (Poly.__str__) only for the
    candidates that tie with another on (degree, number of terms): on a
    linear basis (C) and on one with absorbers (D)."""
    inside, calls, pruned = [], Counter(), []
    real_syzygies, real_prune = resolution._syzygies, resolution.prune_generators
    real_polys, real_str = StdBasis.polys, Poly.__str__

    def syzygies(*args, **kwargs):
        inside.append(True)
        try:
            return real_syzygies(*args, **kwargs)
        finally:
            inside.pop()

    def prune(gb, forms, nrows, deg_bound):
        kept, solver = real_prune(gb, forms, nrows, deg_bound)
        pruned.append((gb, forms, nrows, kept))
        return kept, solver

    def polys(self, rows, den, size):
        calls["polys"] += bool(inside)
        return real_polys(self, rows, den, size)

    def render(self):
        calls["str"] += bool(inside)
        return real_str(self)

    monkeypatch.setattr(resolution, "_syzygies", syzygies)
    monkeypatch.setattr(resolution, "prune_generators", prune)
    monkeypatch.setattr(StdBasis, "polys", polys)
    monkeypatch.setattr(Poly, "__str__", render)
    A = make()
    res = resolve_O(A, length=3, strategy="syzygy")
    monkeypatch.undo()
    assert len(res.ranks) == 4 and pruned
    candidates = sum(len(forms) for _, forms, _, _ in pruned)
    kept = sum(len(k) for *_, k in pruned)
    assert calls["polys"] == kept < candidates
    tied_rows = 0
    for gb, forms, nrows, _ in pruned:
        vecs = [gb.polys(rows, den, nrows) for rows, den, _ in forms]
        sizes = [(max(p.degree() for p in v), sum(len(p.terms) for p in v))
                 for v in vecs]
        ties = Counter(sizes)
        tied_rows += sum(sum(1 for p in v if p.terms)
                         for v, size in zip(vecs, sizes) if ties[size] > 1)
    assert calls["str"] == tied_rows
