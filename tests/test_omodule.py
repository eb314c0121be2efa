from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from congrmod import Dvr
from congrmod.dvr import INF, IdealO, RF
from congrmod.errors import DimensionMismatch, NonIntegralEntry
from congrmod.omodule import _Echelon, _sparse, FinOModule, smith_form


def expected_invariants_via_sympy(p, matrix, generators):
    """Independent oracle: integer Smith form, then p-valuations."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    if not matrix or not matrix[0]:
        return (), generators
    m = Matrix([[int(x) for x in row] for row in matrix])
    d = smith_normal_form(m, domain=ZZ)
    exps = []
    nonzero = 0
    for i in range(min(d.rows, d.cols)):
        entry = int(d[i, i])
        if entry == 0:
            continue
        nonzero += 1
        v = 0
        entry = abs(entry)
        while entry % p == 0:
            entry //= p
            v += 1
        if v:
            exps.append(v)
    return tuple(sorted(exps)), generators - nonzero


def _cols(matrix):
    """The columns of a matrix given by rows: the relation columns that
    smith_form and FinOModule.from_presentation take."""
    return [list(col) for col in zip(*matrix)]


def random_int_matrix(rng, rows, cols, p):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            row.append(F(rng.randint(-4, 4) * p ** rng.randint(0, 2)))
        out.append(row)
    return out


def test_spec_examples(O5):
    free2 = FinOModule.from_presentation(O5, [], 2)
    assert free2.signature == ((), 2)

    diag = FinOModule.from_presentation(O5, [[F(1), F(0)], [F(0), F(25)]], 2)
    assert diag.signature == ((2,), 0)

    jac = FinOModule.from_presentation(O5, [[F(-5), F(25)], [F(0), F(0)]], 2)
    assert jac.signature == ((1,), 1)


def test_non_integral_entry(O5):
    with pytest.raises(NonIntegralEntry):
        FinOModule.from_presentation(O5, [[F(1, 5)]], 1)


def test_against_integer_smith_oracle(rng):
    p = 3
    O = Dvr.p_adic(p)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        m = random_int_matrix(rng, rows, cols, p)
        got = FinOModule.from_presentation(O, _cols(m), rows)
        exps, free = expected_invariants_via_sympy(p, m, rows)
        assert got.signature == (exps, free)


def test_pivot_order_invariance(rng):
    """Permuting rows and columns presents an isomorphic module."""
    O = Dvr.p_adic(5)
    for _ in range(25):
        rows, cols = rng.randint(2, 4), rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols, 5)
        base = FinOModule.from_presentation(O, _cols(m), rows).signature
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        perm = [[m[i][j] for j in cp] for i in rp]
        assert FinOModule.from_presentation(O, _cols(perm), rows).signature == base


def test_unimodular_presentation_invariance(rng):
    O = Dvr.p_adic(5)
    for _ in range(25):
        rows, cols = rng.randint(2, 3), rng.randint(1, 3)
        m = random_int_matrix(rng, rows, cols, 5)
        base = FinOModule.from_presentation(O, _cols(m), rows).signature
        # random row operation (unimodular over O) and an extra redundant column
        i, j = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
        c = F(rng.randint(-3, 3))
        m2 = [row[:] for row in m]
        if i != j:
            m2[i] = [a + c * b for a, b in zip(m2[i], m2[j])]
        if cols:
            extra = [sum(row[k] * (k + 1) for k in range(cols)) for row in m2]
            m2 = [row + [e] for row, e in zip(m2, extra)]
        assert FinOModule.from_presentation(O, _cols(m2), rows).signature == base


class TestFitting:
    def test_examples(self, O5):
        diag = FinOModule.from_presentation(O5, [[F(5), F(0)], [F(0), F(125)]], 2)
        jac = FinOModule.from_presentation(O5, [[F(-5), F(25)], [F(0), F(0)]], 2)
        assert diag.fitting_ideal(0).exponent == 4
        assert jac.fitting_ideal(1).exponent == 1
        assert jac.fitting_ideal(2).is_unit
        assert jac.fitting_ideal(0).is_zero

    def test_fitt0_is_length_and_chain(self, rng, O5):
        for _ in range(20):
            rows = rng.randint(1, 3)
            m = random_int_matrix(rng, rows, rows + 1, 5)
            mod = FinOModule.from_presentation(O5, _cols(m), rows)
            f0 = mod.fitting_ideal(0)
            if mod.free_rank == 0:
                assert f0.exponent == mod.torsion_length
            else:
                assert f0.is_zero
            prev = f0
            for k in range(1, rows + 1):
                fk = mod.fitting_ideal(k)
                assert fk.contains(prev)
                prev = fk


class TestOrderIdeal:
    def brute_force(self, O, mod, vec, scan=3):
        """Scan O-combinations of the dual free functionals."""
        rows = mod.dual_free_rows()
        if not rows:
            return None
        best = None
        coeffs = range(-scan, scan + 1)

        def rec(i, acc):
            nonlocal best
            if i == len(rows):
                if any(acc):
                    val = O.val(sum(acc[k] * vec[k] for k in range(len(vec))))
                    if best is None or val < best:
                        best = val
                return
            for c in coeffs:
                rec(i + 1, [a + F(c) * b for a, b in zip(acc, rows[i])])

        rec(0, [F(0)] * len(vec))
        return best

    def test_zero_is_torsion(self, O5):
        mod = FinOModule.from_presentation(O5, [[F(5), F(0)], [F(0), F(0)]], 2)
        assert mod.order_ideal([F(0), F(0)]).is_zero
        assert mod.order_ideal([F(1), F(0)]).is_zero  # torsion class
        assert mod.order_ideal([F(0), F(5)]).exponent == 1

    def test_dimension_mismatch(self, O5):
        mod = FinOModule.from_presentation(O5, [[F(5)]], 1)
        with pytest.raises(DimensionMismatch):
            mod.order_ideal([F(1), F(2)])

    def test_against_functional_scan(self, rng):
        O = Dvr.p_adic(5)
        for _ in range(15):
            rows = rng.randint(1, 3)
            m = random_int_matrix(rng, rows, rng.randint(0, 2), 5)
            mod = FinOModule.from_presentation(O, _cols(m), rows)
            vec = [F(rng.randint(-10, 10)) for _ in range(rows)]
            got = mod.order_ideal(vec)
            brute = self.brute_force(O, mod, vec)
            if brute is None:
                assert got.is_zero
            else:
                assert got.exponent == brute
            # torsion iff zero order ideal
            frees = mod.free_coords(vec)
            assert got.is_zero == all(not x for x in frees)


def test_kernel_and_solve_roundtrip(rng):
    O = Dvr.p_adic(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols, 5)
        ech = _Echelon(O, [_sparse(O, c) for c in zip(*m)])
        for kv in ech.kernel():
            v = [kv.get(j, O.zero) for j in range(cols)]
            assert all(O.val(x) >= 0 for x in v)
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        x = [F(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(row[j] * x[j] for j in range(cols)) for row in m]
        sol = ech.solve(_sparse(O, rhs))
        assert sol is not None
        sol = [sol.get(j, O.zero) for j in range(cols)]
        for row in m:
            assert sum(a * b for a, b in zip(row, sol)) == \
                sum(a * b for a, b in zip(row, x))


def test_smith_witnesses(rng):
    """L * A * R = D exactly, with the recorded diagonal valuations."""
    O = Dvr.p_adic(5)
    from congrmod.omodule import mat_mul
    for _ in range(15):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = random_int_matrix(rng, rows, cols, 5)
        sf = smith_form(O, _cols(m), rows)
        lar = mat_mul(O, mat_mul(O, sf.L, m), sf.R)
        for i in range(rows):
            for j in range(cols):
                if i == j and i < sf.rank:
                    assert lar[i][j] == O.pi_pow(sf.diag_vals[i])
                else:
                    assert not lar[i][j]
        ident = mat_mul(O, sf.L, sf.Linv)
        for i in range(rows):
            for j in range(rows):
                assert ident[i][j] == (O.one if i == j else O.zero)


def _identity(dvr, n):
    return [[dvr.one if i == j else dvr.zero for j in range(n)] for i in range(n)]


def _dense_smith_reference(dvr, matrix):
    """A dense Smith elimination, kept as the reference for the diagonal:
    (diag_vals, L, Linv, R), swapping rows and columns in place and
    scanning every entry."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    A = [list(r) for r in matrix]
    L = _identity(dvr, m)
    Linv = _identity(dvr, m)
    R = _identity(dvr, n)
    diag = []
    for s in range(min(m, n)):
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if A[i][j]:
                    v = dvr.val(A[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        if bi != s:
            A[s], A[bi] = A[bi], A[s]
            L[s], L[bi] = L[bi], L[s]
            for row in Linv:
                row[s], row[bi] = row[bi], row[s]
        if bj != s:
            for row in A:
                row[s], row[bj] = row[bj], row[s]
            for row in R:
                row[s], row[bj] = row[bj], row[s]
        u = dvr.unit_part(A[s][s])
        if u != dvr.one:
            uinv = dvr.one / u
            A[s] = [x * uinv for x in A[s]]
            L[s] = [x * uinv for x in L[s]]
            for row in Linv:
                row[s] = row[s] * u
        piv = A[s][s]
        for i in range(m):
            if i != s and A[i][s]:
                f = A[i][s] / piv
                for j in range(s, n):
                    if A[s][j]:
                        A[i][j] = A[i][j] - f * A[s][j]
                for j in range(m):
                    if L[s][j]:
                        L[i][j] = L[i][j] - f * L[s][j]
                for row in Linv:
                    if row[i]:
                        row[s] = row[s] + f * row[i]
        for j in range(n):
            if j != s and A[s][j]:
                f = A[s][j] / piv
                A[s][j] = dvr.zero
                for row in R:
                    if row[s]:
                        row[j] = row[j] - f * row[s]
        diag.append(v)
    return diag, L, Linv, R


def _assert_smith_matches_reference(dvr, matrix):
    """The Smith contract against the reference: the same diagonal, and
    witnesses over O with L * A * R = diag(pi^v), L * L^-1 = I and R
    unimodular.  Witnesses are not unique, so they are not compared."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    sf = smith_form(dvr, _cols(matrix), m)
    assert sf.diag_vals == _dense_smith_reference(dvr, matrix)[0]
    for witness in (sf.L, sf.Linv, sf.R):
        assert all(not x or dvr.val(x) >= 0 for row in witness for x in row)
    lar = _sparse_product(dvr, _sparse_product(dvr, sf.L, matrix), sf.R)
    assert lar == [[dvr.pi_pow(sf.diag_vals[i]) if i == j and i < sf.rank else dvr.zero
                    for j in range(n)] for i in range(m)]
    assert _sparse_product(dvr, sf.L, sf.Linv) == _identity(dvr, m)
    assert _dense_smith_reference(dvr, sf.R)[0] == [0] * n


@st.composite
def _sparse_matrices(draw, dvr, entries):
    """Up to 12x16, at most a third of the cells nonzero; all-zero and
    empty shapes included."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 16))
    cells = st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(n - 1, 0)))
    nonzero = draw(st.dictionaries(cells, entries, max_size=m * n // 3)) if m and n else {}
    return [[nonzero.get((i, j), dvr.zero) for j in range(n)] for i in range(m)]


def _padic_entries(p):
    """Small valuations (so ties are common), units among the numerators
    and p-free denominators."""
    return st.builds(lambda a, e, d: F(a, d) * p ** e,
                     st.integers(-6, 6).filter(bool), st.integers(0, 2),
                     st.sampled_from((1, 1, 7, 11, 13)))


_F4 = Dvr.power_series(4)
_F4_UNITS = [(1, 0), (0, 1), (1, 1)]


def _f4_entries():
    """t^e * (a + b t) / (1 + c t) over F_4, a a unit: valuation e <= 2."""
    from congrmod.dvr import RF
    field = _F4.field
    return st.builds(lambda e, a, b, c: RF(field, e, (a, b), (field.one(), c)),
                     st.integers(0, 2), st.sampled_from(_F4_UNITS),
                     st.sampled_from(_F4_UNITS + [(0, 0)]),
                     st.sampled_from(_F4_UNITS + [(0, 0)]))


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_smith_matches_dense_reference_padic(p, data):
    O = Dvr.p_adic(p)
    _assert_smith_matches_reference(O, data.draw(_sparse_matrices(O, _padic_entries(p))))


@given(matrix=_sparse_matrices(_F4, _f4_entries()))
@settings(max_examples=80, deadline=None)
def test_sparse_smith_matches_dense_reference_power_series(matrix):
    _assert_smith_matches_reference(_F4, matrix)


def test_sparse_smith_ties_follow_current_positions(O5):
    """Tied pivots where, after the first pivot's swaps, the dense
    elimination's row (first matrix) and column (second matrix) positions
    disagree with the labels."""
    z, u, five = O5.zero, O5.one, F(5)
    for matrix in ([[five, z, z], [z, five, z], [z, z, u]],
                   [[five, z, u], [five, five, z]]):
        _assert_smith_matches_reference(O5, matrix)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 5), (6, 2)])
def test_sparse_smith_empty_and_zero_shapes(O5, shape):
    m, n = shape
    matrix = [[O5.zero] * n for _ in range(m)]
    _assert_smith_matches_reference(O5, matrix)
    sf = smith_form(O5, _cols(matrix), m)
    assert sf.rank == 0 and len(sf.L) == m


def _sparse_product(dvr, a, b):
    """a * b for dense row matrices, skipping zero entries."""
    out = []
    for row in a:
        acc = [dvr.zero] * (len(b[0]) if b else 0)
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def test_sparse_smith_witnesses_on_large_sparse_matrix():
    """An 80x122 presentation at about 2% density, the shape of the Ext
    presentations: L * A * R = D and L * L^-1 = I exactly."""
    import random
    O = Dvr.p_adic(5)
    rng = random.Random(80122)
    m, n = 80, 122
    matrix = [[O.zero] * n for _ in range(m)]
    for _ in range(195):
        matrix[rng.randrange(m)][rng.randrange(n)] = \
            F(rng.choice((1, -1, 2, 3, -4)), rng.choice((1, 3))) * 5 ** rng.randint(0, 1)
    sf = smith_form(O, _cols(matrix), m)
    assert sf.rank > 60
    lar = _sparse_product(O, _sparse_product(O, sf.L, matrix), sf.R)
    for i in range(m):
        for j in range(n):
            if i == j and i < sf.rank:
                assert lar[i][j] == O.pi_pow(sf.diag_vals[i])
            else:
                assert not lar[i][j]
    ident = _sparse_product(O, sf.L, sf.Linv)
    assert ident == [[O.one if i == j else O.zero for j in range(m)] for i in range(m)]


def test_free_module_from_zero_columns(O5):
    """No relations: every generator is free, and the witnesses are
    identities."""
    from congrmod.omodule import FinOModule
    mod = FinOModule.from_presentation(O5, [], 3)
    assert mod.signature == ((), 3)
    assert list(mod.free_indices()) == [0, 1, 2]
    assert mod.smith.diag_vals == []
    assert mod.smith.L == mod.smith.Linv == _identity(O5, 3)
    assert mod.free_generator_reps() == _identity(O5, 3)
    assert FinOModule.from_presentation(O5, [], 0).signature == ((), 0)


# ---------------------------------------------------------------------------
# The dense eliminations over K that the Smith form replaced, kept verbatim
# as the reference for rank, determinant and inverse.

def k_rank(dvr, rows):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for j in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][j]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][j]
        for i in range(nrows):
            if i != rank and m[i][j]:
                f = m[i][j] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def k_invert(dvr, rows):
    """Inverse of a square matrix over K, or None if singular."""
    n = len(rows)
    m = [list(r) + [dvr.one if i == j else dvr.zero for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [a / pv for a in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [row[n:] for row in m]


def k_det(dvr, rows):
    n = len(rows)
    m = [list(r) for r in rows]
    det = dvr.one
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return dvr.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pv = m[col][col]
        det = det * pv
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _fitting_by_minors(dvr, matrix, k):
    """Fitt_k from its definition: the ideal of the (m - k)-minors, each
    determinant taken by k_det."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    size = m - k
    if size <= 0:
        return IdealO.unit(dvr)
    best = INF
    for rows in combinations(range(m), size):
        for cols in combinations(range(n), size):
            det = k_det(dvr, [[matrix[i][j] for j in cols] for i in rows])
            if det:
                best = min(best, dvr.val(det))
    return IdealO(dvr, best)


def _valued_entries(dvr, lo, hi):
    """Entries of valuation lo..hi: over Z_(p) a unit numerator over a
    p-free denominator times p^e, over F_q[[t]] t^e (a + b t) / (1 + c t)."""
    if dvr.kind == "p_adic":
        p = dvr.p
        return st.builds(lambda a, d, e: F(a, d) * F(p) ** e,
                         st.integers(-6, 6).filter(lambda a: a % p),
                         st.sampled_from((1, 7, 11, 13)), st.integers(lo, hi))
    from congrmod.dvr import RF
    field = dvr.field
    if field.k == 1:
        elements = list(range(field.p))
    else:
        elements = [tuple(code // field.p ** i % field.p for i in range(field.k))
                    for code in range(field.q)]
    units = [x for x in elements if x != field.zero()]
    return st.builds(lambda e, a, b, c: RF(field, e, (a, b), (field.one(), c)),
                     st.integers(lo, hi), st.sampled_from(units),
                     st.sampled_from(elements), st.sampled_from(elements))


@st.composite
def _k_matrices(draw, dvr):
    """Up to 4x4, square half the time, with zeros; some are made singular
    by repeating a multiple of a row in another."""
    m = draw(st.integers(0, 4))
    n = m if draw(st.booleans()) else draw(st.integers(0, 4))
    entry = st.one_of(st.just(dvr.zero), _valued_entries(dvr, -2, 3))
    matrix = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(m)))[:2]
        c = draw(_valued_entries(dvr, -1, 1))
        matrix[i] = [c * x for x in matrix[j]]
    return matrix


_K_BASES = {"Z_(2)": Dvr.p_adic(2), "Z_(3)": Dvr.p_adic(3), "Z_(5)": Dvr.p_adic(5),
            "F_4[[t]]": _F4, "F_9[[t]]": Dvr.power_series(9)}


@pytest.mark.parametrize("base", list(_K_BASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_smith_form_answers_the_k_questions(base, data):
    """Rank, determinant valuation, inverse and every Fitting ideal read off
    the Smith form agree with the dense K-eliminations."""
    dvr = _K_BASES[base]
    matrix = data.draw(_k_matrices(dvr))
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    sf = smith_form(dvr, _cols(matrix), m)
    assert sf.rank == k_rank(dvr, matrix)
    if m == n:
        det, inv = k_det(dvr, matrix), k_invert(dvr, matrix)
        if sf.rank == n:
            assert sum(sf.diag_vals) == dvr.val(det)
            assert sf.inverse() == inv
        else:
            assert not det and inv is None
    low = min((dvr.val(x) for row in matrix for x in row if x), default=0)
    scale = dvr.pi_pow(max(-low, 0))
    integral = [[x * scale for x in row] for row in matrix]
    mod = FinOModule.from_presentation(dvr, _cols(integral), m)
    for k in range(m + 2):
        expected = _fitting_by_minors(dvr, integral, k)
        assert mod.fitting_ideal(k) == expected


@pytest.mark.parametrize("dvr, entry", [
    (Dvr.p_adic(5), F(1, 5)),
    (_F4, _F4.pi_pow(-1)),
])
def test_non_integral_entry_names_the_first_entry(dvr, entry):
    """The error names the first non-integral entry in row order, not the
    one of least valuation."""
    worse = entry * entry
    matrix = [[dvr.one, entry], [worse, dvr.zero]]
    message = f"entry {entry!r} has negative valuation"
    for call in (lambda: FinOModule.from_presentation(dvr, _cols(matrix), 2),
                 lambda: FinOModule.from_presentation(dvr, _cols([[dvr.one], [entry]]), 2),
                 lambda: FinOModule.from_presentation(dvr, _cols(matrix), 2).fitting_ideal(0),
                 lambda: FinOModule.from_presentation(dvr, _cols(matrix), 2).fitting_ideal(1)):
        with pytest.raises(NonIntegralEntry) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# the column echelon grown one column at a time

def _apply(dvr, columns, x):
    """columns * x on sparse dicts, zeros dropped."""
    out = {}
    for j, c in x.items():
        for i, a in columns[j].items():
            out[i] = out.get(i, dvr.zero) + c * a
    return {i: a for i, a in out.items() if a}


def _assert_echelon_shape(ech):
    """Distinct pivot rows; pivot k's column is nonzero in its row and zero
    in the rows of pivots 1..k-1; every other column is zero."""
    rows = [i for i, _ in ech.pivots]
    assert len(set(rows)) == len(rows)
    for k, (i, j) in enumerate(ech.pivots):
        assert ech.cols[j].get(i)
        assert not set(rows[:k]) & set(ech.cols[j])
    pivot_cols = {j for _, j in ech.pivots}
    assert all(not c for j, c in enumerate(ech.cols) if j not in pivot_cols)


def _spans(dvr, gens, vectors):
    """Whether every vector lies in the O-span of gens (all dicts)."""
    ech = _Echelon(dvr, [dvr.split(g) for g in gens])
    return all(ech.solve(dvr.split(v)) is not None for v in vectors)


@pytest.mark.parametrize("dvr", [Dvr.p_adic(3), _F4], ids=["Z_(3)", "F_4[[t]]"])
def test_echelon_extend_takeover(dvr):
    """(1, 1) has a unit in the row of the pivot pi, so it takes that pivot
    over; the old pivot column, cleared by it to (0, -pi), walks on and
    becomes the next pivot.  (0, pi) then reduces to zero: a kernel vector."""
    one, pi = dvr.one, dvr.pi_pow(1)
    columns = [{0: pi}, {0: one, 1: one}, {1: pi}]
    ech = _Echelon(dvr, [dvr.split(c) for c in columns[:1]])
    assert ech.pivots == [(0, 0)]
    ech.extend(dvr.split(columns[1]))
    assert ech.pivots == [(0, 1), (1, 0)]
    assert ech.cols == [{1: -pi}, {0: one, 1: one}]
    assert ech.R == [{0: one, 1: -pi}, {1: one}]
    ech.extend(dvr.split(columns[2]))
    assert ech.pivots == [(0, 1), (1, 0)]
    assert ech.cols[2] == {}
    assert ech.kernel() == [{2: one, 0: one, 1: -pi}]
    assert _apply(dvr, columns, ech.kernel()[0]) == {}
    _assert_echelon_shape(ech)
    batch = _Echelon(dvr, [dvr.split(c) for c in columns])
    targets = [{0: one}, {1: one}, {0: one, 1: one}, {0: pi}, {1: pi}]
    for b, inside in zip(targets, [False, False, True, True, True]):
        x = ech.solve(dvr.split(b))
        assert (x is not None) == inside == (batch.solve(dvr.split(b)) is not None)
        assert (ech.reduce(dvr.split(b)) is not None) == inside
        if inside:
            assert all(dvr.val(c) >= 0 for c in x.values())
            assert _apply(dvr, columns, x) == b


@pytest.mark.parametrize("dvr", [Dvr.p_adic(5), _F4], ids=["Z_(5)", "F_4[[t]]"])
def test_echelon_extend_takeover_walks_on(dvr):
    """The displaced pivot column (pi, pi) keeps an entry in the row of a
    later pivot, (0, pi); walking on, it is cleared by that pivot too and
    ends as a kernel vector rather than a second pivot in that row."""
    one, pi = dvr.one, dvr.pi_pow(1)
    columns = [{0: pi, 1: pi}, {1: pi}, {0: one}]
    ech = _Echelon(dvr, [dvr.split(c) for c in columns[:2]])
    assert ech.pivots == [(0, 0), (1, 1)]
    ech.extend(dvr.split(columns[2]))
    assert ech.pivots == [(0, 2), (1, 1)]
    _assert_echelon_shape(ech)
    assert ech.kernel() == [{0: one, 2: -pi, 1: -one}]
    assert _apply(dvr, columns, ech.kernel()[0]) == {}
    assert ech.solve(dvr.split({1: one})) is None
    assert ech.solve(dvr.split({0: one, 1: pi})) == {2: one, 1: one}


# the echelon's bases: F_9 and F_5 have odd characteristic, where -x != x,
# so that a sign slip in the F_q[t] arithmetic shows
_ECHELON_BASES = {**_K_BASES, "F_5[[t]]": Dvr.power_series(5)}
_ODD_BASES = ("F_9[[t]]", "F_5[[t]]")


def _run_examples(check, base):
    """check(base, data) on hypothesis data: 60 examples, and 10 over the
    odd characteristic bases, which are there for the signs; their exact
    values grow fastest in t-degree, and so does their time."""
    count = 10 if base in _ODD_BASES else 60
    test = given(data=st.data())(lambda data: check(base, data))
    settings(max_examples=count, deadline=None)(test)()


@pytest.mark.parametrize("base", list(_ECHELON_BASES))
def test_grown_echelon_matches_batch(base):
    """An echelon built from a prefix of the columns and extended by the
    rest answers membership as the batch echelon does, solves exactly over
    O, and has a kernel spanning the batch kernel's O-module."""
    _run_examples(_grown_echelon_case, base)


def _grown_echelon_case(base, data):
    dvr = _ECHELON_BASES[base]
    if dvr.kind == "p_adic":
        entries = _padic_entries(dvr.p)
    else:
        entries = _f4_entries() if dvr is _F4 else _valued_entries(dvr, 0, 2)
    matrix = data.draw(_sparse_matrices(dvr, entries))
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    columns = [{i: matrix[i][j] for i in range(m) if matrix[i][j]} for j in range(n)]
    start = data.draw(st.integers(0, n))
    grown = _Echelon(dvr, [dvr.split(c) for c in columns[:start]])
    for col in columns[start:]:
        grown.extend(dvr.split(col))
    _assert_echelon_shape(grown)
    batch = _Echelon(dvr, [dvr.split(c) for c in columns])
    coef = st.one_of(st.just(dvr.zero), _valued_entries(dvr, -1, 2))
    targets = [_apply(dvr, columns, {j: data.draw(coef) for j in range(n)})
               for _ in range(3)]
    targets.append({i: x for i in range(m) if (x := data.draw(coef))})
    for b in targets:
        x = grown.solve(dvr.split(b))
        assert (x is None) == (batch.solve(dvr.split(b)) is None) \
            == (grown.reduce(dvr.split(b)) is None)
        if x is not None:
            assert all(dvr.val(c) >= 0 for c in x.values())
            assert _apply(dvr, columns, x) == b
    kernel, reference = grown.kernel(), batch.kernel()
    assert len(kernel) == len(reference)
    for v in kernel:
        assert all(dvr.val(c) >= 0 for c in v.values())
        assert _apply(dvr, columns, v) == {}
    assert _spans(dvr, reference, kernel) and _spans(dvr, kernel, reference)


# ---------------------------------------------------------------------------
# The echelon on Fraction arithmetic that the integer one replaced, kept as
# the reference: the same pivots, columns, R, kernel vectors, forward-pass
# pairs and solutions, entry for entry and in the same order.

def _fraction_content_scale(dvr, col, extra):
    """Divide col (and extra, kept consistent) by a unit of O to tame
    coefficient growth.  Only implemented for the rational case."""
    if dvr.kind != "p_adic" or not col:
        return
    from math import gcd
    g = 0
    lden = 1
    for x in col.values():
        g = gcd(g, abs(x.numerator))
        lden = lden // gcd(lden, x.denominator) * x.denominator
    if g == 0:
        return
    p = dvr.p
    while g % p == 0:
        g //= p
    while lden % p == 0:
        lden //= p
    if g == lden:
        return
    c = F(g, lden)
    for k in list(col):
        col[k] = col[k] / c
    for k in list(extra):
        extra[k] = extra[k] / c


def _fraction_axpy(dst, f, src, zero):
    for k, x in src.items():
        y = dst.get(k, zero) + f * x
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


class _FractionEchelon:
    """The column echelon with every entry in K: a scan of every live
    column per pivot, and extend() and reduce() walk every pivot."""

    def __init__(self, dvr, columns):
        self.dvr = dvr
        self.cols = [dict(c) for c in columns]
        self.R = [{j: dvr.one} for j in range(len(self.cols))]
        self.pivots = []
        self._run()

    def _colmin(self, col):
        val = self.dvr.val
        best = None
        for i, x in col.items():
            v = val(x)
            if best is None or (v, i) < best:
                best = (v, i)
        return best

    def _eliminate(self, k, pj, f):
        zero = self.dvr.zero
        ck, rk = self.cols[k], self.R[k]
        _fraction_axpy(ck, -f, self.cols[pj], zero)
        _fraction_axpy(rk, -f, self.R[pj], zero)
        _fraction_content_scale(self.dvr, ck, rk)

    def _run(self):
        remaining = set(range(len(self.cols)))
        colmin = {j: self._colmin(self.cols[j]) for j in remaining}
        while True:
            best = None
            for j in remaining:
                m = colmin[j]
                if m is not None and (best is None or (m[0], m[1], j) < best):
                    best = (m[0], m[1], j)
            if best is None:
                break
            _, pi, pj = best
            pval = self.cols[pj][pi]
            remaining.discard(pj)
            for k in remaining:
                ck = self.cols[k]
                if pi in ck:
                    self._eliminate(k, pj, ck[pi] / pval)
                    colmin[k] = self._colmin(ck)
            self.pivots.append((pi, pj))

    def extend(self, column):
        val = self.dvr.val
        j = len(self.cols)
        self.cols.append(dict(column))
        self.R.append({j: self.dvr.one})
        for k, (pi, pj) in enumerate(self.pivots):
            x = self.cols[j].get(pi)
            if x is None:
                continue
            pval = self.cols[pj][pi]
            if val(x) < val(pval):
                self.pivots[k] = (pi, j)
                j, pj, x, pval = pj, j, pval, x
            self._eliminate(j, pj, x / pval)
        if self.cols[j]:
            self.pivots.append((self._colmin(self.cols[j])[1], j))

    def kernel(self):
        pivot_cols = {j for _, j in self.pivots}
        return [self.R[j] for j in range(len(self.cols))
                if j not in pivot_cols and not self.cols[j]]

    def reduce(self, rhs):
        dvr = self.dvr
        b = {i: x for i, x in rhs.items() if x}
        ys = []
        for (pi, pj) in self.pivots:
            if pi not in b:
                continue
            y = b[pi] / self.cols[pj][pi]
            if dvr.val(y) < 0:
                return None
            ys.append((pj, y))
            _fraction_axpy(b, -y, self.cols[pj], dvr.zero)
        return None if b else ys

    def solve(self, rhs):
        ys = self.reduce(rhs)
        if ys is None:
            return None
        x = {}
        for pj, y in ys:
            _fraction_axpy(x, y, self.R[pj], self.dvr.zero)
        return x


def _ordered(value):
    """A value with every dict replaced by its item list, so that equality
    also compares the order of the entries."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_ordered(v) for v in value]
    return value


def _entries(value):
    """Every scalar in a nest of lists, tuples and dict values."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _entries(v)]
    return [] if value is None else [value]


def _assert_same_echelon(ech, ref, answer, expected):
    assert ech.pivots == ref.pivots
    for got, want in ((ech.cols, ref.cols), (ech.R, ref.R), (ech.kernel(), ref.kernel()),
                      (answer, expected)):
        assert _ordered(got) == _ordered(want)
        kind = F if ech.dvr.kind == "p_adic" else RF
        assert all(type(x) is kind for x in _entries(got))


@pytest.mark.parametrize("base", list(_ECHELON_BASES))
def test_echelon_matches_fraction_reference(base):
    """A batch build on some columns, then a mixed run of extend, reduce,
    solve and kernel: the echelon agrees with the Fraction reference entry
    for entry, and hands out only Fractions over Z_(p) and only RFs over
    F_q[[t]].  Entries include negative valuations, which smith_form meets
    before its integrality check, and p-free denominators."""
    _run_examples(_reference_echelon_case, base)


def _reference_echelon_case(base, data):
    dvr = _ECHELON_BASES[base]
    entries = _valued_entries(dvr, -1, 2)
    m = data.draw(st.integers(1, 10))
    column = st.dictionaries(st.integers(0, m - 1), entries, max_size=min(m, 4))
    start = data.draw(st.lists(column, max_size=10))
    ech = _Echelon(dvr, [dvr.split(c) for c in start])
    ref = _FractionEchelon(dvr, start)
    _assert_same_echelon(ech, ref, None, None)
    steps = data.draw(st.lists(st.tuples(st.sampled_from(["extend", "reduce", "solve"]),
                                         column), max_size=12))
    coef = st.one_of(st.just(dvr.zero), _valued_entries(dvr, 0, 2))
    for op, col in steps:
        if op == "extend":
            ech.extend(dvr.split(col))
            ref.extend(col)
            answer = expected = None
        else:
            if ref.cols and data.draw(st.booleans()):
                # a vector inside the span, so the pass runs to the end
                col = _apply(dvr, ref.cols, {j: data.draw(coef) for j in range(len(ref.cols))})
            answer, expected = getattr(ech, op)(dvr.split(col)), getattr(ref, op)(col)
            if op == "reduce" and expected is not None:
                # (pivot column, y) pairs, the columns distinct
                answer, expected = dict(answer), dict(expected)
        _assert_same_echelon(ech, ref, answer, expected)


# ---------------------------------------------------------------------------
# the witnesses themselves, pinned: the contract tests above check them only
# through L * A * R = D

_PIN_BASES = {"Z_(2)": Dvr.p_adic(2), "Z_(5)": Dvr.p_adic(5), "F_4[[t]]": _F4}


def _pin_entry(dvr, rng, lo=0, hi=2):
    """Zero a third of the time, otherwise an entry of valuation lo..hi of
    the shape _valued_entries draws."""
    if rng.random() < 1 / 3:
        return dvr.zero
    e = rng.randint(lo, hi)
    if dvr.kind == "p_adic":
        p = dvr.p
        a = rng.choice([a for a in range(-6, 7) if a % p])
        return F(a, rng.choice((1, 7, 11, 13))) * F(p) ** e
    from congrmod.dvr import RF
    field = dvr.field
    elements = [tuple(code // field.p ** i % field.p for i in range(field.k))
                for code in range(field.q)]
    units = [x for x in elements if x != field.zero()]
    return RF(field, e, (rng.choice(units), rng.choice(elements)),
              (field.one(), rng.choice(elements)))


def _presentation_records(dvr, rng, count=60):
    """Per seeded presentation (up to 5 generators and 6 relation columns;
    no relations, zero columns and entries of valuation 0..2 among them):
    the Smith witnesses and what FinOModule reads off them."""
    for _ in range(count):
        m = rng.randint(0, 5)
        n = rng.randint(0, 6) if m else 0
        cols = [[dvr.zero] * m if rng.random() < 0.15
                else [_pin_entry(dvr, rng) for _ in range(m)] for _ in range(n)]
        mod = FinOModule.from_presentation(dvr, cols, m)
        sf = mod.smith
        vecs = [[_pin_entry(dvr, rng) for _ in range(m)] for _ in range(3)]
        yield (sf.diag_vals, sf.L, sf.Linv, sf.R, [mod.free_coords(v) for v in vecs],
               mod.free_generator_reps(), mod.dual_free_rows())


def _split_records(dvr, rng, count=25):
    """Per seeded split of K^n (n <= 4), the split_and_congruence record and
    split_discriminant with and without a pairing, or the error's name."""
    from congrmod import LatticeSplit, split_and_congruence
    from congrmod.errors import EngineError
    from congrmod.lattice import split_discriminant
    for _ in range(count):
        n = rng.randint(1, 4)
        B = [[_pin_entry(dvr, rng, -1, 1) for _ in range(n)] for _ in range(n)]
        V = [[_pin_entry(dvr, rng, -1, 2) for _ in range(n)] for _ in range(n)]
        d1 = rng.randint(0, n)
        split = LatticeSplit(dvr, B, [r[:d1] for r in V], [r[d1:] for r in V])
        pairing = [[_pin_entry(dvr, rng) for _ in range(n)] for _ in range(n)]
        try:
            out = split_and_congruence(split)
        except EngineError as err:
            yield type(err).__name__
            continue
        yield (out["L1"], out["L2"], out["Lsup1"], out["Lsup2"], out["coords"],
               out["cong"].signature, split_discriminant(split, out).exponent,
               split_discriminant(split, out, pairing).exponent)


def _pin_digest(base):
    import hashlib
    import random
    dvr = _PIN_BASES[base]
    rng = random.Random(f"presentations {base}")
    records = list(_presentation_records(dvr, rng)) + list(_split_records(dvr, rng))
    return hashlib.sha256(repr(records).encode()).hexdigest()


_PINNED_PRESENTATIONS = {
    "Z_(2)": "8db9b3f1a41bbf66be7f57e453dd4466e644e091e998f605b3c028e40596a892",
    "Z_(5)": "e31a50fb247c9e3ac7fc9b1b8d29965b161b9202d18a0b44624c50d3f46f1bc6",
    "F_4[[t]]": "7dca86581989eaed80eb737d4b845bfea65c0620aa5fa85916d39b9a7aa2b730",
}


@pytest.mark.parametrize("base", list(_PIN_BASES))
def test_presentations_pinned(base):
    """Smith witnesses, free coordinates, free generator representatives,
    dual functionals and lattice splits, byte for byte; the digests were
    captured while presentations were still passed as rows."""
    assert _pin_digest(base) == _PINNED_PRESENTATIONS[base]
