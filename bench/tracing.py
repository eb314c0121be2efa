"""Per-layer tracing from outside the program.

Entering a `Tracer` replaces each traced function of congrmod with a wrapper
at every module attribute that holds it: the modules bind their imports at
import time (`from .stdbasis import reduce_strong`), so patching only the
defining module would miss most calls.  Each wrapper records a span; spans
nest on one stack, and a span's self time is its duration minus the time
its child spans cover.  Spans are aggregated in memory per layer name.

Some wrappers also read their arguments or result to count exact work
(distinct inputs, columns expanded, Smith entries, resolution ranks).  The
time those counters take is charged to no layer.

The `dvr` and `poly` primitives run millions of times per problem and are
not wrapped: their cost stays in their callers' self time.  `lattice` is not
traced because no workload reaches it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from math import comb
from time import perf_counter

# Modules whose public module-level functions are traced.
LAYER_MODULES = ("cli", "probfile", "algebra", "stdbasis", "finite",
                 "linsolve", "omodule", "resolution", "congruence")

# Methods traced besides the module-level functions: (module, class, method).
METHODS = (("linsolve", "SpanSolver", "__init__"),
           ("linsolve", "SpanSolver", "solve"),
           ("finite", "FiniteStructure", "try_build"))


class Tracer:
    def __init__(self):
        self.stats = {}        # span name -> [calls, self_s, total_s]
        self.counts = {}       # counter name -> int
        self._stack = []       # child time accumulated by each open span
        self._depth = {}       # open spans per name, to keep total_s flat
        self._plan = []        # (owner, attribute, original, wrapper)
        self._problem = None
        self.begin_problem()

    # -- counters ---------------------------------------------------------
    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_problem(self):
        """Distinct-input counters are per problem: later memos are per
        problem or per algebra, so a repeat across problems is not a hit."""
        self._problem = {"keep": [], "basis": {}, "reduce": set(), "ext": set()}

    def _basis_key(self, gens):
        """Content hash of a generator list, cached on the identities of its
        elements (the list itself may grow in place, as Buchberger's does).
        The elements are kept so their ids cannot be reused in the problem."""
        known = self._problem["basis"]
        ids = tuple(map(id, gens))
        entry = known.get(ids)
        if entry is None:
            key = hash(tuple(frozenset(g.terms.items()) for g in gens))
            entry = known[ids] = (tuple(gens), key)
        return entry[1]

    def _count_reduce(self, args, result):
        f, gens, order = args["f"], args["gens"], args["order"]
        self._problem["keep"].append(order)
        key = hash((frozenset(f.terms.items()), self._basis_key(gens), id(order)))
        seen = self._problem["reduce"]
        if key not in seen:
            seen.add(key)
            self.add("stdbasis.reduce_strong.distinct")

    def _count_ext(self, args, result):
        M, res = args["M"], args["res"]
        self._problem["keep"].append(res)
        if M is None or M.is_O:
            mkey = "O"
        else:
            mkey = (M.gens, tuple(tuple(tuple(sorted(p.terms.items())) for p in col)
                                  for col in M.columns))
        key = (id(res), args["i"], mkey)
        seen = self._problem["ext"]
        if key not in seen:
            seen.add(key)
            self.add("congruence.ext_module.distinct")

    def _count_columns(self, args, result):
        columns = args["columns"]
        bounds = args.get("per_bounds")
        if bounds is None:
            bounds = [args["deg_bound"]] * len(columns)
        n = args["ring"].nvars
        self.add("linsolve.columns_expanded",
                 sum(comb(n + d, n) for d in bounds[:len(columns)]))

    def _count_smith(self, args, result):
        m = args["matrix"]
        self.add("omodule.smith_form.entries", len(m) * (len(m[0]) if m else 0))

    def _count_ranks(self, args, result):
        self.add("resolution.ranks_sum", sum(result.ranks))

    # -- spans ------------------------------------------------------------
    def wrap(self, name, fn, counter=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth = self._stack, self._depth
        depth[name] = 0
        sig = inspect.signature(fn)  # counters read arguments by name
        params = list(sig.parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[1] += dt - frame[0]
                if not depth[name]:
                    stats[2] += dt
                if stack:
                    stack[-1][0] += dt
            if counter is not None:
                c0 = perf_counter()
                if kwargs:
                    named = sig.bind(*args, **kwargs).arguments
                else:
                    named = dict(zip(params, args))
                counter(named, result)
                if stack:
                    stack[-1][0] += perf_counter() - c0
            return result

        return traced

    def _targets(self):
        """(span name, owner, attribute, counter) for every traced callable."""
        counters = {
            "stdbasis.reduce_strong": self._count_reduce,
            "congruence.ext_module": self._count_ext,
            "linsolve.poly_kernel": self._count_columns,
            "linsolve.poly_solve": self._count_columns,
            "linsolve.SpanSolver.__init__": self._count_columns,
            "omodule.smith_form": self._count_smith,
            "resolution.resolve_O": self._count_ranks,
        }
        out = []
        for short in LAYER_MODULES:
            mod = sys.modules[f"congrmod.{short}"]
            for attr, value in sorted(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    out.append((name, mod, attr, counters.get(name)))
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"congrmod.{short}"], cls_name)
            name = f"{short}.{cls_name}.{attr}"
            out.append((name, cls, attr, counters.get(name)))
        return out

    def _make_plan(self):
        """(owner, attribute, original, wrapper) for every attribute that
        holds a traced callable."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "congrmod" or k.startswith("congrmod."))]
        plan = []
        for name, owner, attr, counter in self._targets():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, counter))
            else:
                wrapped = self.wrap(name, raw, counter)
            if inspect.isclass(owner):
                plan.append((owner, attr, raw, wrapped))
            else:
                plan.extend((mod, key, raw, wrapped) for mod in modules
                            for key, value in vars(mod).items() if value is raw)
        return plan

    def __enter__(self):
        """Install the wrappers; the plan is made once and reused."""
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)
        return False
