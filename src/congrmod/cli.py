"""File-driven front end.

Exit codes: 0 computed, 1 a verdict fails, 2 input error (or an internal
error, reported as one `error: internal:` line), 3 a degree or valuation
bound was exceeded.  Structured output is a single JSON record;
the text rendering prints exactly the same data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .algebra import build_algebra, cotangent_invariants, regularity_at_lambda
from .config import DEFAULT_CONFIG, EngineConfig
from .congruence import (_plain, analyze, deformation_step, eta_raw,
                         numerical_criterion, psi_raw, require_cotangent_rank,
                         serre_check)
from .dvr import Dvr
from .errors import DegreeBoundExceeded, EngineError, InputError
from .fpmodule import FpModule
from .lattice import LatticeSplit, split_and_congruence, split_discriminant
from .poly import PolyRing, parse_poly
from .probfile import load_problem
from .resolution import resolve_O


def _config_from_args(args) -> EngineConfig:
    if getattr(args, "degree_bound", None) is not None:
        return EngineConfig(search_degree=args.degree_bound)
    return DEFAULT_CONFIG


def _at_least_one(text):
    """An int N >= 1, for --degree-bound (constant multipliers miss linear
    syzygies), --length and --count."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _load(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_problem(text, config=_config_from_args(args))


def _resolution(problem, args):
    return resolve_O(problem.algebra, length=args.length, strategy=args.strategy,
                     user_matrices=problem.resolution_matrices)


def to_text(record, indent=0):
    lines = []
    pad = "  " * indent
    for key in record if isinstance(record, dict) else []:
        value = record[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(to_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(record, args):
    if args.format == "structured":
        print(json.dumps(record, sort_keys=True), flush=True)
    else:
        print("\n".join(to_text(record)), flush=True)


def _require_algebra(problem):
    if problem.algebra is None:
        raise InputError("this command needs [ring] and [augmentation] sections")


def _module_for(problem, args):
    name = args.module
    if name is None or name == "ring":
        return None
    if name == "O":
        return FpModule.o_module(problem.algebra)
    if name not in problem.modules:
        raise InputError(f"no module named {name} in the problem file")
    return problem.modules[name]


def cmd_analyze(args):
    problem = _load(args)
    _require_algebra(problem)
    res = _resolution(problem, args)
    report = analyze(problem.algebra, problem.modules, res=res)
    return report.to_dict(), 0


def cmd_single_invariant(args, which):
    problem = _load(args)
    _require_algebra(problem)
    A = problem.algebra
    record = {"command": which, "algebra": repr(A), "codim": A.codim}
    if which == "phi":
        cot = cotangent_invariants(A)
        record["phi"] = str(cot.phi)
        record["phi_length"] = cot.phi.torsion_length
        record["fitt_c"] = str(cot.fitt_c)
        return record, 0
    if which == "psi":
        require_cotangent_rank(A)
    res = _resolution(problem, args)
    M = _module_for(problem, args)
    regularity_at_lambda(A, res)
    if which == "eta":
        value, cert = eta_raw(A, M, A.codim, res)
        record["eta"] = str(value)
        record["certification"] = cert.label()
    else:
        value, cert, mu = psi_raw(A, M, A.codim, res)
        record["psi"] = str(value)
        record["psi_length"] = _plain(value.torsion_length)
        record["mu"] = mu
        record["certification"] = cert.label()
    return record, 0


def cmd_criterion(args):
    problem = _load(args)
    _require_algebra(problem)
    A = problem.algebra
    M = _module_for(problem, args)
    surjection = None
    if args.mode in ("iso", "cotangent_iso"):
        if problem.surjection is None:
            raise InputError(f"mode {args.mode} needs a [surjection] section")
        surjection = (problem.surjection["target"], problem.surjection["images"])
    res = _resolution(problem, args)
    out = numerical_criterion(A, M, mode=args.mode, surjection=surjection, res=res)
    record = {"command": "criterion", "algebra": repr(A)}
    record.update(_plain(out))
    return record, 0 if out["verdict"] == "holds" else 1


def cmd_deform(args):
    problem = _load(args)
    _require_algebra(problem)
    A = problem.algebra
    f = parse_poly(A.ring, args.element, A.config)
    M = _module_for(problem, args)
    out = deformation_step(A, M, f)
    record = {
        "command": "deform",
        "algebra": repr(A),
        "element": args.element,
        "quotient": repr(out["B"]),
        "lhs": _plain(out["lhs"]),
        "rhs": _plain(out["rhs"]),
        "ord_f": str(out["ord_f"]),
        "eta_A": str(out["eta_A"]),
        "eta_B": str(out["eta_B"]),
        "exact_sequence_holds": out["exact_sequence_holds"],
        "certification": out["certification"],
    }
    return record, 0 if out["exact_sequence_holds"] else 1


def cmd_lattice(args):
    problem = _load(args)
    if problem.lattice is None:
        raise InputError("this command needs a [lattice] section")
    data = problem.lattice
    split = LatticeSplit(problem.dvr, data["basis"], data["v1"], data["v2"])
    out = split_and_congruence(split)
    disc = split_discriminant(split, out, data["pairing"])
    record = {
        "command": "lattice",
        "congruence_module": str(out["cong"]),
        "congruence_length": _plain(out["cong"].torsion_length),
        "discriminant": str(disc),
        "fitt0_matches_discriminant":
            disc.exponent == out["cong"].torsion_length,
    }
    return record, 0 if record["fitt0_matches_discriminant"] else 1


def cmd_serre(args):
    problem = _load(args)
    _require_algebra(problem)
    res = _resolution(problem, args)
    out = serre_check(problem.algebra, res=res, with_products=args.products)
    record = {"command": "serre", "algebra": repr(problem.algebra)}
    record.update(_plain(out))
    return record, 0 if out["verdict"] == "holds" else 1


def random_grammar_algebra(dvr, rng, config=DEFAULT_CONFIG, finite_only=False):
    """A random member of C_O(c) in one to three variables, by
    construction: every variable is either cut out at the augmentation (a
    unit times x_i survives localization) or left free; mixed monomials
    always touch a cut variable.  With finite_only every variable is cut,
    so the result is module-finite over the base and its codimension is
    zero."""
    n = rng.randint(1, 3)
    ring = PolyRing(dvr, tuple(f"x{i + 1}" for i in range(n)))
    relations = []
    killed = set()
    for i in range(n):
        roll = rng.random()
        if roll < 0.65 or (finite_only and roll < 0.85):
            k = rng.randint(1, 3)
            relations.append(ring.var(i) * (ring.var(i) - ring.const(dvr.pi_pow(k))))
            killed.add(i)
        elif roll < 0.8 or finite_only:
            k = rng.randint(1, 2)
            relations.append(ring.var(i).scale(dvr.pi_pow(k)))
            if finite_only:
                m = rng.randint(1, 2)
                relations.append(
                    ring.var(i) * (ring.var(i) - ring.const(dvr.pi_pow(m))))
            killed.add(i)
    for i in range(n):
        for j in range(i + 1, n):
            if (i in killed or j in killed) and rng.random() < 0.35:
                relations.append(ring.var(i) * ring.var(j))
    codim = n - len(killed)
    return build_algebra(ring, relations, [dvr.zero] * n, codim, config=config)


def cmd_probe(args):
    dvr = Dvr.p_adic(args.p)
    rng = random.Random(args.seed)
    config = _config_from_args(args)
    violations = []
    checked = 0
    for _ in range(args.count):
        A = random_grammar_algebra(dvr, rng, config=config)
        cot = cotangent_invariants(A)
        res = resolve_O(A)
        eta, _ = eta_raw(A, None, A.codim, res)
        checked += 1
        contained = eta.exponent <= cot.fitt_c.exponent
        if not contained:
            violations.append({
                "relations": [str(r) for r in A.relations],
                "vars": list(A.ring.names),
                "codim": A.codim,
                "fitt_c": str(cot.fitt_c),
                "eta": str(eta),
            })
    record = {
        "command": "probe-fitting-question",
        "count": checked,
        "seed": args.seed,
        "p": args.p,
        "containment_holds_everywhere": not violations,
        "violations": violations,
    }
    return record, 0 if not violations else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="congrmod",
        description="Exact congruence modules, congruence ideals and "
                    "numerical criteria over a discrete valuation ring.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--strategy": dict(default="auto",
                           choices=("auto", "koszul", "matrix_factorization",
                                    "shamash", "syzygy", "file")),
        "--degree-bound": dict(type=_at_least_one, default=None,
                               help="search degree for bounded syzygy-type "
                                    "computations"),
        "--length": dict(type=_at_least_one, default=None,
                         help="build at least N steps (default codim + 2)"),
        "--module": dict(default=None),
    }
    resolved = ("--strategy", "--degree-bound", "--length")

    def command(name, help, *names, with_file=True):
        """A subcommand with the flags its handler reads."""
        p = sub.add_parser(name, help=help)
        if with_file:
            p.add_argument("file", help="problem description file")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    command("analyze", "full congruence report", *resolved)
    command("eta", "congruence ideal", *resolved, "--module")
    command("psi", "congruence module", *resolved, "--module")
    command("phi", "cotangent torsion and Fitting ideal")
    p = command("criterion", "numerical criterion", *resolved, "--module")
    p.add_argument("--mode", required=True,
                   choices=("defect0", "wld", "iso", "cotangent_iso"))
    p = command("deform", "cut by a regular element", "--degree-bound", "--module")
    p.add_argument("--element", required=True)
    command("lattice", "lattice congruence module")
    p = command("serre", "torsion-free Ext ranks", *resolved)
    p.add_argument("--products", action="store_true")
    p = command("probe-fitting-question",
                "random search for Fitt_c not contained in eta",
                "--degree-bound", with_file=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least_one, default=20)
    p.add_argument("--p", type=int, default=5)
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "eta": lambda a: cmd_single_invariant(a, "eta"),
        "psi": lambda a: cmd_single_invariant(a, "psi"),
        "phi": lambda a: cmd_single_invariant(a, "phi"),
        "criterion": cmd_criterion,
        "deform": cmd_deform,
        "lattice": cmd_lattice,
        "serre": cmd_serre,
        "probe-fitting-question": cmd_probe,
    }
    try:
        record, code = handlers[args.command](args)
        _emit(record, args)
    except DegreeBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader has gone: devnull takes the interpreter's last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, still reported as one line, not a traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
