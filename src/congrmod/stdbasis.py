"""Strong standard bases over the base DVR.

Leading coefficients participate in divisibility: a term c*x^b is reducible
by g only when LM(g) | x^b and val(lc(g)) <= val(c).  Over a DVR the
coefficient divisibility order is total, so Buchberger with coefficient-lcm
s-pairs (no gcd-polynomials) already yields a strong basis for global
orders.  Local orders go through Lazard homogenization for the basis and
Mora's weak normal form for reduction; weak means reduction may multiply by
a unit of the local ring, which is invisible to ideal membership.

Leading-term convention for local orders: the leading term is the
order-maximal one under 1 > x_i, i.e. the lowest total degree part.

An element's leading term is found once, when the element enters a basis
(or Mora's set of reducers), and read from then on.  Both orders keep a
minimal basis by one rule (_minimal): an element goes when another's lead
divides its own with a coefficient of no larger valuation.
"""

from __future__ import annotations

import heapq
from operator import add

from .config import DEFAULT_CONFIG
from .errors import DegreeBoundExceeded, NonIntegralEntry
from .poly import (MonomialOrder, Poly, PolyRing, monomial_div,
                   monomial_divides, monomial_lcm, monomials_up_to)


def _check_caps(poly: Poly, config):
    if poly.degree() > config.degree_cap:
        raise DegreeBoundExceeded(
            f"monomial degree cap {config.degree_cap} exceeded")
    _check_valuations(poly.ring.dvr, poly.terms.values(), config)


def _check_valuations(dvr, values, config, den_val=0):
    """The valuation cap on values in K, or on numerators over a
    denominator of valuation den_val."""
    if dvr.val_above(values, config.valuation_cap + den_val):
        raise DegreeBoundExceeded(
            f"coefficient valuation cap {config.valuation_cap} exceeded")


def _normalize_lead(poly: Poly, lead):
    """Scale by a unit so the leading coefficient is exactly pi^v: the
    scaled poly and its lead, given poly's lead."""
    e, c = lead
    dvr = poly.ring.dvr
    u = dvr.unit_part(c)
    if u == dvr.one:
        return poly, lead
    poly = poly.scale(dvr.one / u)
    return poly, (e, poly.terms[e])


class StdBasis:
    """A strong standard basis together with its order, and the one owner of
    normal forms modulo it.  Bases here are always coefficient-strong:
    s-pairs match leading coefficients through pi-divisions, and
    reducibility requires coefficient divisibility.

    When every leading coefficient is a unit (``linear``), whether a term
    reduces depends on its monomial alone, so the global normal form is
    O-linear: the basis keeps the normal form of each monomial in one table,
    filled by reduce_strong on the first request.  An entry is in the
    integer form of the O-echelon, which dvr.Dvr defines for both bases
    alike: its terms in descending order as (exps, numerator) pairs over
    one denominator.  expand reads it for every monomial multiple of a
    column of O[x]^r: nf on one row, the span solver on its columns.  The basis with no generators is the basis
    of O[x] itself, whose table holds each monomial as its own entry.  The
    leading terms of the generators (leads), which the basis is built with,
    are kept for reduce_strong and mora_normal_form."""

    def __init__(self, ring: PolyRing, order: MonomialOrder, gens, leads,
                 config=DEFAULT_CONFIG):
        self.ring = ring
        self.order = order
        self.gens = list(gens)
        self.config = config
        self.leads = list(leads)
        self.unit_leads = [e for e, c in self.leads if ring.dvr.val(c) == 0]
        self.linear = len(self.unit_leads) == len(self.leads)
        self._table = {}
        self._multipliers = {}

    def nf(self, f: Poly) -> Poly:
        """Irreducible remainder of f: the strong normal form for a global
        order, Mora's weak normal form (zero exactly on local-ideal members)
        for a local one.  A global normal form lists its terms in descending
        order, as reduce_strong finds them."""
        if self.order.is_local:
            return mora_normal_form(f, self.gens, self.order, self.config,
                                    self.leads)
        if not self.linear:
            return reduce_strong(f, self.gens, self.order, self.config, self.leads)
        return self.polys(*self.expand(self.int_form((f,))), 1)[0]

    def int_form(self, col):
        """A column (a tuple of polynomials, one per row) in the integer
        form of the O-echelon, once for all its monomial multiples (see
        form)."""
        num, den = self.ring.dvr.split(
            {(i, e): c for i, p in enumerate(col) for e, c in p.terms.items()})
        rows = {}
        for (i, e), n in num.items():
            rows.setdefault(i, {})[e] = n
        return self.form(list(rows.items()), den)

    def form(self, rows, den):
        """The int_form of a column given as [(row, {exps: numerator})],
        nonzero rows in order, over one denominator in lowest terms:
        (rows, den, the valuation of den).  The valuation cap on the
        coefficients is checked here, since a monomial multiplier leaves
        them as they are."""
        dvr = self.ring.dvr
        val = dvr.int_val(den) if den != 1 else 0
        _check_valuations(dvr, (n for _, terms in rows for n in terms.values()),
                          self.config, val)
        return rows, den, val

    def polys(self, rows, den, size):
        """The column of size polynomials whose rows are given as (row,
        {exps: numerator}) pairs over one denominator, as int_form and
        expand give them: the inverse of int_form."""
        ring = self.ring
        out = [ring.zero] * size
        for i, terms in rows:
            out[i] = Poly(ring, ring.dvr.join(terms, den))
        return tuple(out)

    def nf_polys(self, rows, den, size):
        """The normal form of the column an expansion by the basis gives
        (expand), as size polynomials: over a linear basis the expansion is
        its normal form already, and over any other basis each row is
        reduced by nf."""
        col = self.polys(rows, den, size)
        return col if self.linear else tuple(self.nf(p) for p in col)

    def expand(self, form, u=None):
        """u * col (col itself when u is None) from col's int_form, as
        [(row, {exps: numerator})] over one denominator.  For a
        linear global basis this is the normal form: each term n * x^e adds
        n times the table entry of x^e * u, the table's denominators join
        the common one, and every entry is held to the valuation cap.
        Otherwise it is the multiple itself, to be reduced by absorber
        columns.  Rows come in order, and the terms of a row in the order
        they are found: a one-term row in its table order, a multi-term row
        in the basis order, descending."""
        entries, cden, cval = form
        dvr = self.ring.dvr
        if not self.linear:
            if u is None:
                return entries, cden
            return [(i, {tuple(map(add, e, u)): n for e, n in terms.items()})
                    for i, terms in entries], cden
        table = self._table
        out, den = [], dvr.int_one  # den: the lcm of the table denominators met
        for i, row_terms in entries:
            acc = {}
            for e, n in row_terms.items():
                if u is not None:
                    e = tuple(map(add, e, u))
                nf, d = table.get(e) or self.monomial_nf(e)
                if d != den:
                    if den % d:
                        m = d // dvr.gcd(den, d)
                        den *= m
                        for _, part in out + [(i, acc)]:
                            for k in part:
                                part[k] *= m
                    if d != den:
                        n = n * (den // d)
                for e2, n2 in nf:
                    prev = acc.get(e2)
                    acc[e2] = n * n2 if prev is None else prev + n * n2
            _check_valuations(dvr, acc.values(), self.config, cval)
            if len(row_terms) > 1:
                acc = {e: acc[e] for e in
                       sorted(acc, key=self.order.key, reverse=True) if acc[e]}
            out.append((i, acc))
        return out, den * cden

    def monomial_nf(self, e):
        """The table entry of x^e, for a linear global basis: its normal
        form's terms in descending order as (exps, numerator) pairs, and
        their one denominator."""
        r = self._table.get(e)
        if r is None:
            nf = reduce_strong(Poly(self.ring, {e: self.ring.dvr.one}),
                               self.gens, self.order, self.config, self.leads)
            num, den = self.ring.dvr.split(nf.terms)
            # a racing thread stores an equal entry
            r = self._table[e] = (tuple(num.items()), den)
        return r

    def multipliers(self, bound):
        """The monomial multipliers of degree <= bound by which a span
        solver expands a column, in degree order, one list per bound.  For a
        linear global basis they are the standard monomials, those no lead
        divides: when a lead divides x^u, x^u = nf(x^u) = sum c_v x^v modulo
        I with every v standard, c_v in O and deg v <= deg u (the order is
        degree-compatible), so u * col is an O-combination of the multiples
        kept and adds nothing to their span.  For any other basis they are
        all the monomials of degree <= bound."""
        r = self._multipliers.get(bound)
        if r is None:
            r = monomials_up_to(self.ring.nvars, bound)
            if self.linear:
                leads = self.unit_leads
                r = [u for u in r if not any(monomial_divides(e, u) for e in leads)]
            # a racing thread stores an equal list
            self._multipliers[bound] = r
        return r

    def contains(self, f: Poly) -> bool:
        """Membership in the ideal (the localized ideal for a local order)."""
        return not self.nf(f).terms

    def __repr__(self):
        return f"StdBasis({self.order!r}, {[str(g) for g in self.gens]})"


def _find_reducer(term, leads, dvr):
    e, c = term
    vc = dvr.val(c)
    for idx, (le, lc) in enumerate(leads):
        if monomial_divides(le, e) and dvr.val(lc) <= vc:
            return idx
    return None


def reduce_strong(f: Poly, gens, order, config, leads) -> Poly:
    """Full strong normal form for a global (well-) order; leads are the
    leading terms of gens, as a StdBasis keeps them."""
    ring = f.ring
    dvr = ring.dvr
    out = ring.zero
    h = f
    _check_caps(h, config)
    while h.terms:
        e, c = order.leading(h)
        idx = _find_reducer((e, c), leads, dvr)
        if idx is None:
            t = Poly(ring, {e: c})
            out = out + t
            h = h - t
        else:
            le, lc = leads[idx]
            factor = Poly(ring, {monomial_div(e, le): c / lc})
            h = h - factor * gens[idx]
            _check_caps(h, config)
    return out


def mora_normal_form(f: Poly, gens, order, config, leads) -> Poly:
    """Mora's weak normal form: u*f - result lies in the ideal for some unit
    u of the local ring.  Reduction touches leading terms only.  leads are
    the leading terms of gens; a reducer's lead, the lead's valuation and
    the reducer's ecart (its degree minus its lead's) are found once, when
    it enters T."""
    ring = f.ring
    dvr = ring.dvr
    T = [(g, e, c, dvr.val(c), g.degree() - sum(e))
         for g, (e, c) in zip(gens, leads)]
    h = f
    steps = 0
    while h.terms:
        e, c = order.leading(h)
        vc = dvr.val(c)
        best = min(((ecart, idx) for idx, (_, le, _, v, ecart) in enumerate(T)
                    if v <= vc and monomial_divides(le, e)), default=None)
        if best is None:
            return h
        g, le, lc, _, ecart = T[best[1]]
        eh = h.degree() - sum(e)
        if ecart > eh:
            T.append((h, e, c, vc, eh))
        h = h - Poly(ring, {monomial_div(e, le): c / lc}) * g
        _check_caps(h, config)
        steps += 1
        if steps > 10000:
            raise DegreeBoundExceeded("local normal form did not stabilize")
    return h


def _spoly(f: Poly, g: Poly, lf, lg):
    """The s-polynomial of f and g, whose leads are lf and lg."""
    ring = f.ring
    dvr = ring.dvr
    (ef, cf), (eg, cg) = lf, lg
    m = monomial_lcm(ef, eg)
    c = dvr.pi_pow(max(dvr.val(cf), dvr.val(cg)))
    uf = Poly(ring, {monomial_div(m, ef): c / cf})
    ug = Poly(ring, {monomial_div(m, eg): c / cg})
    return uf * f - ug * g


def _buchberger(gens, order, config):
    """A strong basis of the ideal of gens, and its leads: each lead is found
    once, when its element is appended with its leading coefficient made
    pi^v.  Pairs are processed by the degree of their lead lcm, then by
    index."""
    dvr = gens[0].ring.dvr
    G, leads, heap = [], [], []

    def append(g):
        _check_caps(g, config)
        g, lg = _normalize_lead(g, order.leading(g))
        for i, li in enumerate(leads):
            heapq.heappush(heap, (sum(monomial_lcm(li[0], lg[0])), i, len(G)))
        G.append(g)
        leads.append(lg)

    for g in gens:
        append(g)
    while heap:
        _, i, j = heapq.heappop(heap)
        (ei, ci), (ej, cj) = leads[i], leads[j]
        coprime = all(a == 0 or b == 0 for a, b in zip(ei, ej))
        if coprime and dvr.val(ci) == 0 and dvr.val(cj) == 0:
            continue
        r = reduce_strong(_spoly(G[i], G[j], leads[i], leads[j]), G, order,
                          config, leads)
        if r.terms:
            append(r)
    return G, leads


def _minimal(leads, order, dvr):
    """The indices, in lead order, of the elements with these leads that a
    minimal strong basis keeps: an element is dropped when another
    element's lead divides its lead with a coefficient of no larger
    valuation, and of equal leads the one of lower index is kept."""
    vals = [(e, dvr.val(c)) for e, c in leads]
    kept = [i for i, (ei, vi) in enumerate(vals)
            if not any(monomial_divides(ej, ei) and vj <= vi
                       and ((ej, vj) != (ei, vi) or j < i)
                       for j, (ej, vj) in enumerate(vals))]
    return sorted(kept, key=lambda i: order.key(leads[i][0]))


def _interreduce(G, leads, order, config):
    """The minimal elements of a strong basis G with leading coefficients
    pi^v, each with its tail reduced by the others, sorted by lead, and
    their leads (a reduced tail stays below its lead)."""
    kept = _minimal(leads, order, G[0].ring.dvr)
    out = []
    for i in kept:
        others = [k for k in kept if k != i]
        g = G[i]
        if others:
            head = Poly(g.ring, {leads[i][0]: leads[i][1]})
            g = head + reduce_strong(g - head, [G[k] for k in others], order,
                                     config, [leads[k] for k in others])
        out.append(g)
    return out, [leads[i] for i in kept]


class _HomogenizedOrder:
    """Global order used by Lazard's method: total degree first, ties by the
    base local order on the original variables (the homogenizing variable is
    the last one)."""

    is_local = False

    def __init__(self, base: MonomialOrder):
        self.base = base

    def key(self, exps):
        return (sum(exps), self.base.key(exps[:-1]))

    leading = MonomialOrder.leading


def _homogenize(poly: Poly, target: PolyRing) -> Poly:
    d = poly.degree()
    return Poly(target, {e + (d - sum(e),): c for e, c in poly.terms.items()})


def _dehomogenize(poly: Poly, target: PolyRing) -> Poly:
    out = {}
    for e, c in poly.terms.items():
        key = e[:-1]
        nv = out.get(key)
        nv = c if nv is None else nv + c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return Poly(target, out)


def std_basis(gens, order: MonomialOrder, config=DEFAULT_CONFIG) -> StdBasis:
    """Strong standard basis of the ideal generated by gens."""
    gens = [g for g in gens if g.terms]
    if not gens:
        raise NonIntegralEntry("empty generating set")
    ring = gens[0].ring
    for g in gens:
        if g.min_coeff_val() < 0:
            raise NonIntegralEntry(f"coefficients of {g} are not all in O")
    if not order.is_local:
        return StdBasis(ring, order, *_interreduce(*_buchberger(gens, order, config),
                                                   order, config), config)
    hring = PolyRing(ring.dvr, ring.names + ("_h",))
    horder = _HomogenizedOrder(order)
    hgens = [_homogenize(g, hring) for g in gens]
    hbasis, _ = _interreduce(*_buchberger(hgens, horder, config), horder, config)
    basis = [g for g in (_dehomogenize(h, ring) for h in hbasis) if g.terms]
    leads = [order.leading(g) for g in basis]
    kept = [_normalize_lead(basis[i], leads[i]) for i in _minimal(leads, order, ring.dvr)]
    return StdBasis(ring, order, [g for g, _ in kept], [lg for _, lg in kept], config)
