"""Initial segments of free resolutions of O over an augmented algebra.

Two constructions build every complex:
  the Shamash complex  the Koszul complex on x_i - a_i plus a system of
                       higher homotopies built from the augmentation
                       division, each homotopy lifted through one SpanSolver.
                       With no relations it is the Koszul complex (strategy
                       koszul, exact); with one relation it is the
                       2-periodic-tail matrix factorization (exact by
                       theory); for claimed complete intersections (strategy
                       shamash) the regular-sequence hypothesis is
                       corroborated by a bounded check only.
  syzygy               iterated syzygy kernels; certified when the algebra is
                       module-finite, bounded search otherwise.
The file strategy takes user differentials and re-verifies them fully.
d^2 = 0 is checked exactly once per resolution: by verify_resolution for
user differentials, by resolve_O for the others.

All differentials are stored column-major: d_i maps F_i to F_(i-1) and is a
list of r_i columns, each a tuple of r_(i-1) polynomials.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import AugmentedAlgebra
from .errors import (InternalInvariantViolation, ResolutionTooShort,
                     StrategyInapplicable, VerificationFailed)
from .linsolve import CERTIFIED, USER_VERIFIED, Cert, SpanSolver, bounded
from .poly import taylor_division


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
# Shamash complex via higher homotopies: Koszul, matrix factorization and
# complete intersections

class _Shamash:
    """Built in shifted coordinates (x -> x + a) so the Koszul differential
    on the x_i is graded; differentials are shifted back at the end.  With
    no relations there are no homotopies, and F is the Koszul complex."""

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
        """u in K_(k+1) with du = z; z a cycle with polynomial entries.  The
        Koszul differential raises degrees by one, so multipliers of degree
        below the largest degree in z suffice."""
        if not z:
            return {}
        ring = self.ring
        upper = list(combinations(range(self.n), k_plus_1))
        lower = list(combinations(range(self.n), k_plus_1 - 1))
        columns = []
        for T in upper:
            dT = self._diff_elem({T: ring.one})
            columns.append(tuple(dT.get(S, ring.zero) for S in lower))
        solver = SpanSolver(ring, None, columns, len(lower),
                            max(p.degree() for p in z.values()) - 1,
                            config=self.A.config)
        u = solver.solve(tuple(z.get(S, ring.zero) for S in lower))
        if u is None:
            raise InternalInvariantViolation(
                "homotopy lift failed: relations are not a regular sequence")
        return {T: p for T, p in zip(upper, u) if p.terms}

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
    """nu in N^m with |nu| = w, in lexicographic order."""
    return [nu for nu in _multi_indices_upto((w,) * m) if sum(nu) == w]


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
    relations over the ambient ring lies in the span of the trivial ones.
    Both kernels are over O[x], not A, so _syzygies does not serve here."""
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

def _syzygies(A, columns, nrows, bound=None, relations=()):
    """The one kernel over A: pruned generators, in normal form, of the
    vectors a with sum a_j columns_j in the A-span of the relation columns,
    with the certificate of the kernel search.  One solver finds the kernel
    of columns + relations; each kernel vector keeps its first len(columns)
    coordinates.  Pruning keeps its first vector unconditionally, so zero
    heads are dropped before it, and heads that are zero only in A after."""
    n = len(columns)
    solver, cert = A.span_solver(list(columns) + list(relations), nrows,
                                 bound=bound)
    heads = [v[:n] for v in solver.kernel()]
    pruned = A.prune([v for v in heads if any(p.terms for p in v)], bound=bound)
    out = (tuple(A.nf(p) for p in v) for v in pruned)
    return [v for v in out if any(p.terms for p in v)], cert


def _syzygy_resolution(A, length):
    diffs = [[(g,) for g in A.p_gens()]]
    ranks = [1, len(diffs[0])]
    cert = CERTIFIED if A.is_module_finite else bounded(A.config.search_degree)
    for _ in range(2, length + 1):
        cols = []
        if diffs[-1]:
            cols, c = _syzygies(A, diffs[-1], ranks[-2])
            cert = cert.merge(c)
        diffs.append(cols)
        ranks.append(len(cols))
    return diffs, ranks, cert


# ---------------------------------------------------------------------------

def resolve_O(A: AugmentedAlgebra, length=None, strategy="auto",
              user_matrices=None) -> FreeResolution:
    """Resolution of O over A of the requested length (default c + 2).
    Threads racing on one algebra all get the resolution stored first.  An
    auto result is stored under ("auto", length) as well, so the strategy is
    chosen, and the regular-sequence check run, once per length."""
    if length is None:
        length = A.codim + 2
    if strategy != "auto":
        return _resolution(A, strategy, length, False, user_matrices)
    with A._lock:
        cached = A._resolutions.get(("auto", length))
    if cached is not None:
        return cached
    checked = False  # whether the regular-sequence check has passed
    if not A.relations:
        strategy = "koszul"
    elif len(A.relations) == 1:
        strategy = "matrix_factorization"
    elif A.claimed_ci and _regular_sequence_check(A):
        strategy, checked = "shamash", True
    else:
        strategy = "syzygy"
    res = _resolution(A, strategy, length, checked, user_matrices)
    with A._lock:
        return A._resolutions.setdefault(("auto", length), res)


def _resolution(A, strategy, length, checked, user_matrices):
    """The resolution of one named strategy, stored under (strategy,
    length); checked says the regular-sequence check has already passed."""
    key = (strategy, length)
    with A._lock:
        cached = A._resolutions.get(key)
    if cached is not None:
        return cached

    if strategy == "koszul" and A.relations:
        raise StrategyInapplicable(
            "koszul strategy needs the augmentation generators to be a "
            "regular sequence, i.e. no relations")
    if strategy == "matrix_factorization" and len(A.relations) != 1:
        raise StrategyInapplicable(
            "matrix_factorization needs exactly one relation")
    if strategy == "shamash":
        if not A.relations:
            raise StrategyInapplicable("no relations; use koszul")
        if not A.claimed_ci:
            raise StrategyInapplicable(
                "shamash requires the complete-intersection assertion")
        if not checked and not _regular_sequence_check(A):
            raise StrategyInapplicable(
                "relations fail the bounded regular-sequence check")

    if strategy in ("koszul", "matrix_factorization", "shamash"):
        diffs, ranks = _shamash_resolution(A, length)
        cert = (bounded(A.config.search_degree) if strategy == "shamash"
                else CERTIFIED)
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

    res = FreeResolution(A, diffs, ranks, strategy, cert)
    if strategy == "file":
        verify_resolution(res)
    else:
        _check_d_squared(A, diffs)
    with A._lock:
        return A._resolutions.setdefault(key, res)


def verify_resolution(res: FreeResolution) -> Cert:
    """d^2 = 0 exactly; d_1 generates the augmentation ideal; exactness is
    witnessed through degree codim+1, by bounded search unless the algebra
    is module-finite.  The solver of d_(i+1) that tests membership at step
    i gives the kernel at step i+1."""
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
    kernel_solver = None
    for i in range(1, top + 1):
        di = res.differential(i)
        if not di:
            kernel_solver = None
            continue
        if kernel_solver is None:
            kernel_solver, cert = A.span_solver(di, res.rank(i - 1))
            evidence = evidence.merge(cert)
        solver, cert = A.span_solver(res.differential(i + 1), res.rank(i))
        evidence = evidence.merge(cert)
        for v in kernel_solver.kernel():
            if not solver.contains(v):
                raise VerificationFailed(
                    f"exactness fails at homological degree {i}")
        kernel_solver = solver
    if res.strategy in ("koszul", "matrix_factorization", "file"):
        return res.cert
    res.cert = res.cert.merge(evidence)
    return res.cert


def syzygy_module(A: AugmentedAlgebra, columns, nrows=None, bound=None):
    """Generators of the syzygies of the given columns over A, pruned and
    exactly verified."""
    if nrows is None:
        nrows = len(columns[0]) if columns else 0
    out, cert = _syzygies(A, columns, nrows, bound)
    _check_d_squared(A, [columns, out])
    return out, cert
