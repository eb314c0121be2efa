"""Initial segments of free resolutions of O over an augmented algebra.

Strategies:
  koszul               regular sequence x_i - a_i (no relations): exact.
  matrix_factorization hypersurface (one relation): the 2-periodic-tail
                       standard construction, exact by theory.
  shamash              claimed complete intersections: Koszul complex of the
                       ambient ring plus a system of higher homotopies built
                       from the augmentation division; the regular-sequence
                       hypothesis is corroborated by a bounded check only.
  syzygy               iterated syzygy kernels; certified when the algebra is
                       module-finite, bounded search otherwise.
  file                 user differentials, fully re-verified.

All differentials are stored column-major: d_i maps F_i to F_(i-1) and is a
list of r_i columns, each a tuple of r_(i-1) polynomials.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import AugmentedAlgebra
from .errors import (InternalInvariantViolation, ResolutionTooShort,
                     StrategyInapplicable, VerificationFailed)
from .linsolve import CERTIFIED, USER_VERIFIED, Cert, SpanSolver, bounded
from .omodule import o_solve
from .poly import Poly, monomials_up_to, taylor_division


class FreeResolution:
    def __init__(self, algebra, diffs, ranks, strategy, cert: Cert):
        self.algebra = algebra
        self.diffs = diffs
        self.ranks = ranks  # ranks[i] = rank of F_i, i = 0..length
        self.strategy = strategy
        self.cert = cert
        self._ext = {}  # Ext modules and pairings, see congruence.ext_module

    @property
    def length(self):
        return len(self.diffs)

    def rank(self, i):
        if i < 0 or i > self.length:
            return 0
        return self.ranks[i]

    def differential(self, i):
        """Columns of d_i: F_i -> F_(i-1), 1-indexed."""
        if i < 1 or i > self.length:
            raise ResolutionTooShort(
                f"resolution of length {self.length} has no differential d_{i}")
        return self.diffs[i - 1]

    def lam_rows(self, i):
        """Rows of the augmented differential over O; r_(i-1) x r_i."""
        cols = self.differential(i)
        A = self.algebra
        nrows = self.rank(i - 1)
        return [[A.lam(col[r]) for col in cols] for r in range(nrows)]

    def describe(self):
        return {"strategy": self.strategy,
                "ranks": list(self.ranks),
                "certification": self.cert.label()}


def _apply_columns(ring, cols, vec):
    """Matrix (columns) times a coefficient vector of polynomials."""
    nrows = len(cols[0]) if cols else 0
    out = [ring.zero] * nrows
    for c, col in zip(vec, cols):
        if c.terms:
            for i, entry in enumerate(col):
                if entry.terms:
                    out[i] = out[i] + c * entry
    return out


def _compose(ring, cols_prev, cols_next):
    """Entries of d_i composed with d_(i+1), column by column."""
    return [_apply_columns(ring, cols_prev, col) for col in cols_next]


def _check_d_squared(A, diffs):
    ring = A.ring
    for i in range(len(diffs) - 1):
        if not diffs[i] or not diffs[i + 1]:
            continue
        for col in _compose(ring, diffs[i], diffs[i + 1]):
            for entry in col:
                if entry.terms and not A.in_ideal(entry):
                    raise VerificationFailed(
                        f"d_{i + 1} o d_{i + 2} is nonzero modulo the relations")


# ---------------------------------------------------------------------------
# Koszul complex

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


def _koszul_resolution(A, length):
    s = A.p_gens()
    n = len(s)
    diffs = []
    ranks = [1]
    from math import comb
    for i in range(1, length + 1):
        if i <= n:
            diffs.append(_koszul_diff(A.ring, s, i))
            ranks.append(comb(n, i))
        else:
            diffs.append([])
            ranks.append(0)
    return diffs, ranks


# ---------------------------------------------------------------------------
# Shamash / matrix factorization via higher homotopies

class _Shamash:
    """Built in shifted coordinates (x -> x + a) so the Koszul differential
    on the x_i is graded; differentials are shifted back at the end."""

    def __init__(self, A: AugmentedAlgebra):
        self.A = A
        self.ring = A.ring
        n = self.ring.nvars
        shift_in = [self.ring.var(i) + self.ring.const(a)
                    for i, a in enumerate(A.augmentation)]
        self.fshift = [f.substitute(self.ring, shift_in) for f in A.relations]
        self.m = len(self.fshift)
        self.n = n
        self.sigma_cache = {}

    # -- Koszul scaffolding over the shifted polynomial ring --
    def _diff_elem(self, elem):
        """Koszul differential of {subset: poly} using s_i = x_i."""
        ring = self.ring
        out = {}
        for S, p in elem.items():
            if not p.terms:
                continue
            for t, v in enumerate(S):
                T = tuple(x for x in S if x != v)
                q = ring.var(v) * p
                if t % 2 == 1:
                    q = -q
                nv = out.get(T)
                nv = q if nv is None else nv + q
                if nv.terms:
                    out[T] = nv
                else:
                    out.pop(T, None)
        return out

    def _solve_boundary(self, k_plus_1, z):
        """u in K_(k+1) with du = z; z a cycle with polynomial entries."""
        ring = self.ring
        dvr = ring.dvr
        if not z:
            return {}
        subsets = list(combinations(range(self.n), k_plus_1))
        if not subsets:
            raise InternalInvariantViolation("boundary solve in zero module")
        # slice by internal degree: |monomial| + exterior degree
        slices = {}
        for S, p in z.items():
            for e, c in p.terms.items():
                d = sum(e) + len(S)
                slices.setdefault(d, {})[(S, e)] = c
        u = {}
        for d, rhs in sorted(slices.items()):
            deg = d - k_plus_1
            if deg < 0:
                raise InternalInvariantViolation("boundary solve degree underflow")
            unknowns = []
            columns = []
            rowindex = {}

            def rid(key):
                r = rowindex.get(key)
                if r is None:
                    r = len(rowindex)
                    rowindex[key] = r
                return r

            for key in rhs:
                rid(key)
            for T in subsets:
                for e in monomials_up_to(self.n, deg):
                    if sum(e) != deg:
                        continue
                    col = {}
                    for t, v in enumerate(T):
                        S = tuple(x for x in T if x != v)
                        ee = list(e)
                        ee[v] += 1
                        c = dvr.one if t % 2 == 0 else -dvr.one
                        col[rid((S, tuple(ee)))] = c
                    unknowns.append((T, e))
                    columns.append(col)
            b = {rowindex[key]: c for key, c in rhs.items()}
            sol = o_solve(dvr, len(columns), columns, b)
            if sol is None:
                raise InternalInvariantViolation(
                    "homotopy lift failed: relations are not a regular sequence")
            for cid, c in sol.items():
                T, e = unknowns[cid]
                p = u.get(T, ring.zero) + Poly(ring, {e: c})
                if p.terms:
                    u[T] = p
                else:
                    u.pop(T, None)
        return u

    def _apply_sigma(self, nu, elem):
        out = {}
        for S, p in elem.items():
            if not p.terms:
                continue
            for T, q in self.sigma(nu, S).items():
                nv = out.get(T)
                w = p * q
                nv = w if nv is None else nv + w
                if nv.terms:
                    out[T] = nv
                else:
                    out.pop(T, None)
        return out

    def sigma(self, nu, S):
        """sigma_nu on the basis element e_S, an element of K_(|S|+2|nu|-1)."""
        key = (nu, S)
        cached = self.sigma_cache.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        order = sum(nu)
        if order == 0:
            raise InternalInvariantViolation("sigma_0 is the differential")
        if order == 1 and not S:
            j = nu.index(1)
            gs, _ = taylor_division(self.fshift[j], [ring.dvr.zero] * self.n)
            out = {}
            for i, g in enumerate(gs):
                if g.terms:
                    out[(i,)] = g
            self.sigma_cache[key] = out
            return out
        rhs = {}
        if order == 1:
            j = nu.index(1)
            rhs[S] = self.fshift[j]
        # - sigma_nu(d e_S)
        d_es = self._diff_elem({S: ring.one})
        part = self._apply_sigma(nu, d_es) if d_es else {}
        for T, p in part.items():
            nv = rhs.get(T, ring.zero) - p
            if nv.terms:
                rhs[T] = nv
            else:
                rhs.pop(T, None)
        # - sum over proper splittings
        for alpha in _multi_indices_below(nu):
            beta = tuple(a - b for a, b in zip(nu, alpha))
            inner = self.sigma(beta, S)
            part = self._apply_sigma(alpha, inner)
            for T, p in part.items():
                nv = rhs.get(T, ring.zero) - p
                if nv.terms:
                    rhs[T] = nv
                else:
                    rhs.pop(T, None)
        out = self._solve_boundary(len(S) + 2 * order - 1, rhs)
        self.sigma_cache[key] = out
        return out

    def basis(self, t):
        """Basis of F_t: pairs (S, nu) with |S| + 2|nu| = t, sorted."""
        out = []
        for w in range(t // 2 + 1):
            k = t - 2 * w
            if k > self.n:
                continue
            for nu in _multi_indices_of_weight(self.m, w):
                for S in combinations(range(self.n), k):
                    out.append((S, nu))
        out.sort()
        return out

    def differential(self, t):
        """Columns of F_t -> F_(t-1) in shifted coordinates."""
        ring = self.ring
        lower = {b: i for i, b in enumerate(self.basis(t - 1))}
        cols = []
        for (S, nu) in self.basis(t):
            col = [ring.zero] * len(lower)
            for alpha in _multi_indices_upto(nu):
                rest = tuple(a - b for a, b in zip(nu, alpha))
                if sum(alpha) == 0:
                    part = self._diff_elem({S: ring.one})
                else:
                    part = self.sigma(alpha, S)
                for T, p in part.items():
                    idx = lower.get((T, rest))
                    if idx is None:
                        raise InternalInvariantViolation("shamash basis mismatch")
                    col[idx] = col[idx] + p
            cols.append(tuple(col))
        return cols


def _multi_indices_of_weight(m, w):
    if m == 0:
        return [()] if w == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], w, m)
    return out


def _multi_indices_upto(nu):
    out = [()]
    for v in nu:
        out = [t + (k,) for t in out for k in range(v + 1)]
    return out


def _multi_indices_below(nu):
    """Proper nonzero alpha <= nu componentwise (alpha != 0, alpha != nu)."""
    return [a for a in _multi_indices_upto(nu) if 0 < sum(a) < sum(nu)]


def _shamash_resolution(A, length):
    sh = _Shamash(A)
    shift_back = [A.ring.var(i) - A.ring.const(a)
                  for i, a in enumerate(A.augmentation)]
    diffs = []
    ranks = [1]
    for t in range(1, length + 1):
        cols = sh.differential(t)
        ranks.append(len(cols))
        out = []
        for col in cols:
            out.append(tuple(A.nf(p.substitute(A.ring, shift_back)) for p in col))
        diffs.append(out)
    return diffs, ranks


def _regular_sequence_check(A):
    """Bounded Koszul-H1 corroboration: every bounded syzygy of the
    relations over the ambient ring lies in the span of the trivial ones."""
    fs = A.relations
    m = len(fs)
    bound = A.config.search_degree
    cols = [(f,) for f in fs]
    syz = SpanSolver(A.ring, None, cols, 1, bound, config=A.config).kernel()
    trivial = []
    for i in range(m):
        for j in range(i + 1, m):
            vec = [A.ring.zero] * m
            vec[i] = fs[j]
            vec[j] = -fs[i]
            trivial.append(tuple(vec))
    solver = SpanSolver(A.ring, None, trivial, m,
                        bound + max(f.degree() for f in fs), config=A.config)
    return all(solver.contains(v) for v in syz)


# ---------------------------------------------------------------------------
# syzygy strategy

def _syzygy_resolution(A, length):
    diffs = []
    ranks = [1]
    cols = [(g,) for g in A.p_gens()]
    diffs.append(cols)
    ranks.append(len(cols))
    cert = CERTIFIED if A.is_module_finite else bounded(A.config.search_degree)
    for i in range(2, length + 1):
        prev = diffs[-1]
        if not prev:
            diffs.append([])
            ranks.append(0)
            continue
        solver, c = A.span_solver(prev, ranks[-2])
        cert = cert.merge(c)
        vecs = solver.kernel()
        pruned = A.prune(vecs)
        cols = [tuple(A.nf(p) for p in v) for v in pruned]
        # soundness: the previous differential kills every column, exactly
        for col in cols:
            image = _apply_columns(A.ring, prev, col)
            for entry in image:
                if entry.terms and not A.in_ideal(entry):
                    raise InternalInvariantViolation(
                        "syzygy output is not a syzygy")
        diffs.append(cols)
        ranks.append(len(cols))
    return diffs, ranks, cert


# ---------------------------------------------------------------------------

def resolve_O(A: AugmentedAlgebra, length=None, strategy="auto",
              user_matrices=None) -> FreeResolution:
    """Resolution of O over A of the requested length (default c + 2)."""
    if length is None:
        length = A.codim + 2
    if strategy == "auto":
        if not A.relations:
            strategy = "koszul"
        elif len(A.relations) == 1:
            strategy = "matrix_factorization"
        elif A.claimed_ci and _regular_sequence_check(A):
            strategy = "shamash"
        else:
            strategy = "syzygy"
    key = (strategy, length)
    with A._lock:
        cached = A._resolutions.get(key)
    if cached is not None:
        return cached

    if strategy == "koszul":
        if A.relations:
            raise StrategyInapplicable(
                "koszul strategy needs the augmentation generators to be a "
                "regular sequence, i.e. no relations")
        diffs, ranks = _koszul_resolution(A, length)
        cert = CERTIFIED
    elif strategy == "matrix_factorization":
        if len(A.relations) != 1:
            raise StrategyInapplicable(
                "matrix_factorization needs exactly one relation")
        diffs, ranks = _shamash_resolution(A, length)
        cert = CERTIFIED
    elif strategy == "shamash":
        if not A.relations:
            raise StrategyInapplicable("no relations; use koszul")
        if not A.claimed_ci:
            raise StrategyInapplicable(
                "shamash requires the complete-intersection assertion")
        if not _regular_sequence_check(A):
            raise StrategyInapplicable(
                "relations fail the bounded regular-sequence check")
        diffs, ranks = _shamash_resolution(A, length)
        cert = bounded(A.config.search_degree)
    elif strategy == "syzygy":
        diffs, ranks, cert = _syzygy_resolution(A, length)
    elif strategy == "file":
        if user_matrices is None:
            raise StrategyInapplicable("file strategy needs user matrices")
        diffs = [[tuple(A.nf(p) for p in col) for col in mat]
                 for mat in user_matrices]
        ranks = [1] + [len(mat) for mat in diffs]
        for i, mat in enumerate(diffs):
            expect = ranks[i]
            for col in mat:
                if len(col) != expect:
                    raise VerificationFailed(
                        f"differential d_{i + 1} has columns of length "
                        f"{len(col)}, expected {expect}")
        cert = USER_VERIFIED
    else:
        raise StrategyInapplicable(f"unknown strategy {strategy!r}")

    _check_d_squared(A, diffs)
    res = FreeResolution(A, diffs, ranks, strategy, cert)
    if strategy == "file":
        verify_resolution(res)
    with A._lock:
        A._resolutions[key] = res
    return res


def verify_resolution(res: FreeResolution) -> Cert:
    """d^2 = 0 exactly; d_1 generates the augmentation ideal; exactness is
    witnessed through degree codim+1, by bounded search unless the algebra
    is module-finite."""
    A = res.algebra
    _check_d_squared(A, res.diffs)
    evidence = CERTIFIED
    d1 = res.differential(1)
    for col in d1:
        if A.lam(col[0]):
            raise VerificationFailed("a column of d_1 is not in the augmentation ideal")
    # the generators x_i - a_i all have degree one
    solver, cert = A.span_solver(d1, 1, target_degree=1)
    evidence = evidence.merge(cert)
    if not all(solver.contains((g,)) for g in A.p_gens()):
        raise VerificationFailed(
            "image of d_1 does not generate the augmentation ideal")
    top = min(res.length - 1, A.codim + 1)
    for i in range(1, top + 1):
        di = res.differential(i)
        if not di:
            continue
        kernel_solver, cert = A.span_solver(di, res.rank(i - 1))
        evidence = evidence.merge(cert)
        nxt = res.differential(i + 1)
        solver, cert2 = A.span_solver(nxt, res.rank(i))
        evidence = evidence.merge(cert2)
        for v in kernel_solver.kernel():
            if not solver.contains(v):
                raise VerificationFailed(
                    f"exactness fails at homological degree {i}")
    if res.strategy in ("koszul", "matrix_factorization", "file"):
        return res.cert
    res.cert = res.cert.merge(evidence)
    return res.cert


def syzygy_module(A: AugmentedAlgebra, columns, nrows=None, bound=None):
    """Generators of the syzygies of the given columns over A, pruned and
    exactly verified."""
    if nrows is None:
        nrows = len(columns[0]) if columns else 0
    solver, cert = A.span_solver(columns, nrows, bound=bound)
    pruned = A.prune(solver.kernel(), bound=bound)
    out = [tuple(A.nf(p) for p in v) for v in pruned]
    for col in out:
        image = _apply_columns(A.ring, columns, col)
        for entry in image:
            if entry.terms and not A.in_ideal(entry):
                raise InternalInvariantViolation("syzygy output is not a syzygy")
    return out, cert
