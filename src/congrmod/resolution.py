"""Initial segments of free resolutions of O over an augmented algebra.

Two constructions build every complex:
  the Shamash complex  the Koszul complex on x_i - a_i plus a system of
                       higher homotopies built from the augmentation
                       division, each homotopy lifted by the closed-form
                       contraction of the Koszul complex over O[x].
                       With no relations it is the Koszul complex (strategy
                       koszul), with one relation the 2-periodic-tail matrix
                       factorization (matrix_factorization), and in general
                       the resolution of a complete intersection (shamash).
                       It is exact when the relations are a regular
                       sequence, so the family shares one rule: at most one
                       relation is a regular sequence by theory (certified),
                       and more are corroborated by a bounded check only.
  syzygy               iterated syzygy kernels, searched at the algebra's
                       bound, so labelled with the algebra's certificate.
The file strategy takes user differentials and re-verifies them fully; the
exactness check is as certain as the algebra's searches.
Every strategy builds each step from the steps before it, the first time it
is read (see FreeResolution), and checks d^2 = 0 exactly once per step, as
the step is added; user differentials are all built when they are given.

All differentials are stored column-major: d_i maps F_i to F_(i-1) and is a
list of r_i columns, each a tuple of r_(i-1) polynomials.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import (_NOTSET, CERTIFIED, USER_VERIFIED, AugmentedAlgebra,
                      Cert, bounded)
from .errors import (InternalInvariantViolation, ResolutionTooShort,
                     StrategyInapplicable, VerificationFailed)
from .linsolve import SpanSolver, prune_generators
from .omodule import _Echelon
from .poly import GLOBAL, Poly
from .stdbasis import StdBasis


class FreeResolution:
    """One resolution per (algebra, strategy) while a caller holds it (a
    file resolution per call of resolve_O): it holds its algebra and Ext
    modules, and the algebra keeps it weakly.  Step i is built from the
    steps before it when d_1..d_i is first read, and d^2 is checked once,
    as it is added.  The whole-complex readers (ranks, diffs) build through
    `length`, the largest length asked of resolve_O; describe(top) builds
    through the top it is given.  A file resolution raises past its
    matrices.  lam_rows builds lambda(d_i), which lam keeps with one
    echelon of it (lam_echelon), and lam_rank answers its K-rank.  A
    syzygy resolution owns the state of its next step: the solver that
    pruned its top step, where prune_generators hands it on, and that
    step's kernel heads, read once (_top_kernel) for both lam_rank and the
    next step's build."""

    def __init__(self, algebra, strategy, cert: Cert, step, length=0):
        self.algebra = algebra
        self.strategy = strategy
        self.cert = cert
        self.length = length
        self._step = step  # (res, t) -> the columns of d_t
        self._diffs = []
        self._ranks = [1]
        self._pruner = None  # the solver that pruned the top step, or None
        self._heads = None  # the kernel heads of the top step, see _top_kernel
        self._ext = {}  # Ext modules and pairings, see congruence.ext_module
        self._lam, self._lam_ech = {}, {}  # i -> lam(i), lam_echelon(i)

    def _build_through(self, i):
        """Build d_1..d_i."""
        if i <= len(self._diffs):
            return
        with self.algebra._lock:  # racing readers share one list of steps
            while len(self._diffs) < i:
                t = len(self._diffs) + 1
                cols = self._step(self, t)
                if t > 1:
                    _check_d_squared(self.algebra, self._diffs[-1], cols, t - 1)
                self._ranks.append(len(cols))  # a reader that sees d_t sees r_t
                self._diffs.append(cols)
                self._heads = None  # ker d_(t-1) is read no more

    def _top_kernel(self):
        """The kernel heads of the top step d_t, read once and kept until
        d_(t+1) is built: off the solver that pruned d_t, which
        prune_generators hands on only where its echelon is the one
        A.span_solver(d_t) builds, and off that fresh solver otherwise;
        either is dropped once read."""
        if self._heads is None:
            cols, solver, self._pruner = self._diffs[-1], self._pruner, None
            solver = solver or self.algebra.span_solver(cols)
            self._heads = solver.kernel_forms(range(len(cols)))
        return self._heads

    @property
    def ranks(self):
        """ranks[i] = rank of F_i, i = 0..length."""
        self._build_through(self.length)
        return self._ranks[:self.length + 1]

    @property
    def diffs(self):
        self._build_through(self.length)
        return self._diffs[:self.length]

    def rank(self, i):
        if i < 0:
            return 0
        self._build_through(i)
        return self._ranks[i]

    def differential(self, i):
        """Columns of d_i: F_i -> F_(i-1), 1-indexed."""
        if i < 1:
            raise ResolutionTooShort(f"there is no differential d_{i}")
        self._build_through(i)
        return self._diffs[i - 1]

    def lam_rows(self, i):
        """The r_(i-1) rows of lambda(d_i) over O, each ({column:
        numerator}, den) as AugmentedAlgebra.lam_int gives them: new dicts
        on every call, which an _Echelon may take over."""
        gb = self.algebra.gb_global
        return self.algebra.lam_int([gb.int_form(col) for col in self.differential(i)],
                                    self.rank(i - 1))

    def lam(self, i):
        """lambda(d_i) as lam_rows gives it, built once and kept: shared by
        every reader, so read only."""
        rows = self._lam.get(i)
        if rows is None:
            rows = self._lam.setdefault(i, self.lam_rows(i))  # a racer's are equal
        return rows

    def lam_echelon(self, i):
        """One _Echelon of copies of the rows of lam(i), built once and
        kept: its pivots give rho_i, and its kernel the cocycles of degree
        i - 1."""
        ech = self._lam_ech.get(i)
        if ech is None:
            rows = [(dict(num), den) for num, den in self.lam(i)]
            ech = self._lam_ech.setdefault(i, _Echelon(self.algebra.dvr, rows))
        return ech

    def lam_rank(self, i):
        """rho_i = rk_K lambda(d_i), the pivot count of lam_echelon(i).  A
        syzygy step i >= 2 not built yet stays unbuilt: d_1..d_(i-1) are
        built, and rho_i is read off the unpruned kernel heads of d_(i-1)
        (_top_kernel), which the build of d_i then prunes into d_i.  Both
        generate one A-module and lambda is a ring map, so their images
        have one K-span."""
        A = self.algebra
        if self.strategy == "syzygy" and i > 1 and len(self._diffs) < i:
            with A._lock:  # a racing reader may build d_i meanwhile
                self._build_through(i - 1)
                heads = self._top_kernel() if len(self._diffs) < i else None
            if heads is not None:
                return len(_Echelon(A.dvr, A.lam_int(heads, self._ranks[i - 1])).pivots)
        return len(self.lam_echelon(i).pivots)

    def describe(self, top):
        """The report's resolution line: the strategy, the ranks of F_0 to
        F_top and the certificate.  It lists what top asks for, whichever
        steps are built already."""
        return {"strategy": self.strategy,
                "ranks": [self.rank(i) for i in range(top + 1)],
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


def _check_d_squared(A, d_i, d_next, i):
    """d_i o d_(i+1) = 0 modulo the relations."""
    for col in d_next:
        for entry in _apply_columns(A.ring, d_i, col):
            if entry.terms and not A.in_ideal(entry):
                raise VerificationFailed(
                    f"d_{i} o d_{i + 1} is nonzero modulo the relations")


# ---------------------------------------------------------------------------
# Shamash complex via higher homotopies: Koszul, matrix factorization and
# complete intersections

class _Shamash:
    """Built in shifted coordinates (x -> x + a) so the Koszul differential
    on the x_i is graded; differentials are shifted back at the end.  With
    no relations there are no homotopies, and F is the Koszul complex.  The
    homotopies are lifted over O[x] by the Koszul contraction, which solves
    no linear system; on K_0 it is the Taylor division at 0."""

    def __init__(self, A: AugmentedAlgebra):
        self.ring = A.ring
        shift_in = [self.ring.var(i) + self.ring.const(a)
                    for i, a in enumerate(A.augmentation)]
        self.fshift = [f.substitute(self.ring, shift_in) for f in A.relations]
        self.m = len(self.fshift)
        self.n = self.ring.nvars
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
                _add_into(out, T, -q if t % 2 == 1 else q)
        return out

    def _solve_boundary(self, z):
        """u in K_(k+1) with du = z, for z a cycle of K_k with no constant
        term: u = h(z) for the Koszul contraction h."""
        u = _koszul_contraction(self.ring, z)
        if self._diff_elem(u) != z:
            raise InternalInvariantViolation(
                "homotopy lift failed on the exact Koszul complex: an engine fault")
        return u

    def _apply_sigma(self, nu, elem):
        out = {}
        for S, p in elem.items():
            if not p.terms:
                continue
            for T, q in self.sigma(nu, S).items():
                _add_into(out, T, p * q)
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
        rhs = {S: self.fshift[nu.index(1)]} if order == 1 else {}
        # minus sigma_nu(d e_S), and minus the sum over proper splittings
        parts = [self._apply_sigma(nu, self._diff_elem({S: ring.one}))]
        for alpha in _multi_indices_below(nu):
            beta = tuple(a - b for a, b in zip(nu, alpha))
            parts.append(self._apply_sigma(alpha, self.sigma(beta, S)))
        for part in parts:
            for T, p in part.items():
                _add_into(rhs, T, -p)
        out = self._solve_boundary(rhs)
        self.sigma_cache[key] = out
        return out

    def basis(self, t):
        """Basis of F_t: pairs (S, nu) with |S| + 2|nu| = t, sorted."""
        return sorted((S, nu) for w in range(t // 2 + 1)
                      for nu in _multi_indices_upto((w,) * self.m) if sum(nu) == w
                      for S in combinations(range(self.n), t - 2 * w))

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


def _koszul_contraction(ring, elem):
    """The contraction h of the Koszul complex on x_1..x_n over O[x], with
    dh + hd = 1 - (evaluation at 0 on K_0).  A term c x^a e_S, with i the
    least index such that a_i > 0 or i is in S, goes to c x^(a - e_i)
    e_((i,) + S) when i is not in S (i precedes S, so no sign), and to 0
    otherwise.  The map is injective on terms, so nothing is summed."""
    out = {}
    for S, p in elem.items():
        for e, c in p.terms.items():
            i = next((j for j, a in enumerate(e) if a), len(e))
            if i < len(e) and not (S and S[0] <= i):
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                out.setdefault((i,) + S, {})[ne] = c
    return {T: Poly(ring, terms) for T, terms in out.items()}


def _add_into(elem, key, q):
    """elem[key] += q in a {basis element: poly} map, keeping no zeros."""
    nv = elem.get(key)
    nv = q if nv is None else nv + q
    if nv.terms:
        elem[key] = nv
    else:
        elem.pop(key, None)


def _multi_indices_upto(nu):
    out = [()]
    for v in nu:
        out = [t + (k,) for t in out for k in range(v + 1)]
    return out


def _multi_indices_below(nu):
    """Proper nonzero alpha <= nu componentwise (alpha != 0, alpha != nu)."""
    return [a for a in _multi_indices_upto(nu) if 0 < sum(a) < sum(nu)]


def _shamash_resolution(A):
    """The step builder of the Shamash complex: d_t from the homotopies in
    one shared sigma cache, shifted back and put in normal form."""
    sh = _Shamash(A)
    shift_back = [A.ring.var(i) - A.ring.const(a)
                  for i, a in enumerate(A.augmentation)]

    def step(res, t):
        return [tuple(A.nf(p.substitute(A.ring, shift_back)) for p in col)
                for col in sh.differential(t)]
    return step


def _regular_sequence_check(A):
    """Bounded Koszul-H1 corroboration: the solver of the trivial syzygies
    of the relations over the ambient ring keeps none of their bounded
    syzygies.  Both kernels are over O[x], not A, so _syzygies does not
    serve here."""
    fs = A.relations
    m = len(fs)
    bound = A.config.search_degree
    free = StdBasis(A.ring, GLOBAL, [], [], A.config)  # the zero ideal of O[x]
    syz = SpanSolver(A.ring, free, [(f,) for f in fs], bound).kernel_forms(range(m))
    trivial = []
    for i in range(m):
        for j in range(i + 1, m):
            vec = [A.ring.zero] * m
            vec[i] = fs[j]
            vec[j] = -fs[i]
            trivial.append(tuple(vec))
    solver = SpanSolver(A.ring, free, trivial,
                        bound + max(f.degree() for f in fs))
    return not solver.grow(syz, 0)


# ---------------------------------------------------------------------------
# syzygy strategy

def _syzygies(A, columns, heads=None):
    """The one kernel over A with pruned A-generators: in normal form, the
    vectors a with sum a_j columns_j = 0 in A, searched at the algebra's
    bound (so as certain as A.cert), for the syzygy strategy,
    syzygy_module and deformation_step's annihilator search on a free
    module.  The kernel heads (heads, else a fresh solver's) are pruned by
    prune_generators, and its solver comes back as it gives it, with the
    vectors kept: the solver for their kernel where its echelon is a fresh
    solver's, None otherwise.  Only the vectors kept become polynomials,
    in normal form (StdBasis.nf_polys); none is zero in A, since pruning
    keeps no vector zero in A."""
    n = len(columns)
    gb = A.gb_global
    if heads is None:
        heads = A.span_solver(columns).kernel_forms(range(n))
    kept, solver = prune_generators(gb, heads, n, A._search_bound)
    return [gb.nf_polys(rows, den, n) for _, rows, den in kept], solver


def _syzygy_resolution(A):
    """The step builder of the syzygy resolution: d_1 holds the generators
    x_i - a_i, and d_t the pruned syzygies of d_(t-1), from its kernel
    heads (FreeResolution._top_kernel); res keeps the pruning solver
    _syzygies gives, or None."""
    def step(res, t):
        if t == 1:
            return [(g,) for g in A.p_gens()]
        if not res._diffs[-1]:
            return []
        out, res._pruner = _syzygies(A, res._diffs[-1], res._top_kernel())
        return out
    return step


# ---------------------------------------------------------------------------

def resolve_O(A: AugmentedAlgebra, length=None, strategy="auto",
              user_matrices=None) -> FreeResolution:
    """The resolution of O over A by one strategy, shared by every caller
    (and racing thread) while one holds it: A keeps it weakly.  length asks
    for at least that many steps and builds them now; without it the whole
    complex runs to c + 2, built as it is read.  A file resolution is built
    and verified on each call: A's cache cannot tell matrices apart."""
    with A._lock:
        if strategy == "auto":
            strategy = _pick_strategy(A)
        if strategy == "file":
            res = _new_resolution(A, strategy, user_matrices)
        else:
            res = A._resolutions.get(strategy)
            if res is None:
                res = A._resolutions[strategy] = _new_resolution(A, strategy, user_matrices)
            res.length = max(res.length, A.codim + 2 if length is None else length)
        if length is not None:
            res._build_through(length)
    return res


def _pick_strategy(A):
    """The strategy auto stands for: the Shamash family wherever it
    applies, syzygies otherwise."""
    if not A.relations:
        return "koszul"
    if len(A.relations) == 1:
        return "matrix_factorization"
    if A.claimed_ci and _complete_intersection(A):
        return "shamash"
    return "syzygy"


def _complete_intersection(A):
    """The certificate that the relations are a regular sequence in
    O[x]_(pi, x - a), or None when the bounded check refutes it; decided
    once per algebra.  That ring is a domain and every relation lies in its
    maximal ideal, so at most one relation is a regular sequence by theory."""
    with A._lock:
        if A._ci_cert is _NOTSET:
            if len(A.relations) <= 1:
                A._ci_cert = CERTIFIED
            elif _regular_sequence_check(A):
                A._ci_cert = bounded(A.config.search_degree)
            else:
                A._ci_cert = None
        return A._ci_cert


_SHAMASH_FAMILY = ("koszul", "matrix_factorization", "shamash")


def _new_resolution(A, strategy, user_matrices):
    """A resolution of one named strategy with no step built yet.  User
    matrices are all built and verified here."""
    m = len(A.relations)
    if strategy == "koszul" and m:
        raise StrategyInapplicable(
            "koszul strategy needs the augmentation generators to be a "
            "regular sequence, i.e. no relations")
    if strategy == "matrix_factorization" and m != 1:
        raise StrategyInapplicable(
            "matrix_factorization needs exactly one relation")
    if strategy == "shamash":
        if not m:
            raise StrategyInapplicable("no relations; use koszul")
        if not A.claimed_ci:
            raise StrategyInapplicable(
                "shamash requires the complete-intersection assertion")
    if strategy in _SHAMASH_FAMILY:
        cert = _complete_intersection(A)
        if cert is None:
            raise StrategyInapplicable(
                "relations fail the bounded regular-sequence check")
        return FreeResolution(A, strategy, cert, _shamash_resolution(A))
    if strategy == "syzygy":
        return FreeResolution(A, strategy, A.cert, _syzygy_resolution(A))
    if strategy != "file":
        raise StrategyInapplicable(f"unknown strategy {strategy!r}")
    if user_matrices is None:
        raise StrategyInapplicable("file strategy needs user matrices")
    res = FreeResolution(A, strategy, USER_VERIFIED,
                         _file_resolution(A, user_matrices), len(user_matrices))
    res._build_through(res.length)
    verify_resolution(res)
    return res


def _file_resolution(A, matrices):
    """The step builder of user differentials: d_t is the t-th matrix in
    normal form, and there is none past the last."""
    def step(res, t):
        if t > len(matrices):
            raise ResolutionTooShort(
                f"resolution of length {len(matrices)} has no differential d_{t}")
        cols = [tuple(A.nf(p) for p in col) for col in matrices[t - 1]]
        for col in cols:
            if len(col) != res._ranks[-1]:
                raise VerificationFailed(
                    f"differential d_{t} has columns of length {len(col)}, "
                    f"expected {res._ranks[-1]}")
        return cols
    return step


def verify_resolution(res: FreeResolution) -> Cert:
    """d_1 generates the augmentation ideal, d^2 = 0 holds on every step
    through res.length (checked as each step is built), and exactness is
    witnessed through degree codim+1: the solver of d_(i+1) keeps none of
    the kernel of d_i, and gives the kernel at step i+1, so each
    differential has one solver, and d_1's kernel is read only when there
    is a d_2 to test it against.  The Shamash family is exact by theory
    once its relations are a regular sequence, so its certificate stands;
    any other resolution is then as certain as the searches over A."""
    A = res.algebra
    ranks = res.ranks  # every step through res.length, each d^2-checked
    top = min(len(ranks) - 2, A.codim + 1)
    d1 = res.differential(1)
    for col in d1:
        if A.lam(col[0]):
            raise VerificationFailed("a column of d_1 is not in the augmentation ideal")
    solver = A.span_solver(d1)
    if top >= 1:
        # read before the membership queries, which may add absorbers, so
        # that the bounded kernel is the one a fresh solver gives
        heads = solver.kernel_forms(range(ranks[1]))
    if not all(solver.contains((g,)) for g in A.p_gens()):
        raise VerificationFailed(
            "image of d_1 does not generate the augmentation ideal")
    for i in range(1, top + 1):
        solver = A.span_solver(res.differential(i + 1))
        if solver.grow(heads, 0):
            raise VerificationFailed(f"exactness fails at homological degree {i}")
        if i < top:
            heads = solver.kernel_forms(range(ranks[i + 1]))
    if res.strategy not in _SHAMASH_FAMILY:
        res.cert = res.cert.merge(A.cert)
    return res.cert


def syzygy_module(A: AugmentedAlgebra, columns):
    """Generators of the syzygies over A of columns of one length, pruned
    and exactly verified, with the certificate of the search (A.cert)."""
    out, _ = _syzygies(A, columns)
    _check_d_squared(A, columns, out, 1)
    return out, A.cert
