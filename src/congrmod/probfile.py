"""Problem-file parsing: sectioned key = value text.

Sections: [dvr], [ring] with [augmentation], zero or more [module.NAME],
optional [resolution], [lattice], [surjection], each at most once.  Unknown
sections and keys are rejected, and an error in a field names its section
and key.  Polynomials use the shared grammar (pi, + - * ^, integers);
lattice entries are K-scalars and also admit '/'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AugmentedAlgebra, build_algebra
from .config import DEFAULT_CONFIG
from .dvr import Dvr
from .errors import (AugmentationNotWellDefined, InputError, NonIntegralEntry,
                     NonLocalAugmentation)
from .fpmodule import FpModule
from .poly import PolyRing, _tokenize, parse_poly, parse_scalar


def _split_top_level(text, sep=","):
    """Split on separators not nested in brackets or parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise InputError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InputError(f"unbalanced brackets in {text!r}")
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return parts


def _parse_matrix(text, entry_parser):
    """[[a, b], [c, d]] -> list of rows."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"expected a bracketed matrix, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows = []
    for chunk in _split_top_level(inner):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise InputError(f"expected a bracketed row, got {chunk!r}")
        body = chunk[1:-1].strip()
        row = [entry_parser(e) for e in _split_top_level(body)] if body else []
        rows.append(row)
    width = {len(r) for r in rows}
    if len(width) > 1:
        raise InputError("matrix rows have unequal lengths")
    return rows


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise InputError(f"expected a boolean, got {text!r}")


def parse_sections(text):
    """{section name: {key: value text}} in file order; a section or a key
    given twice is an error."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InputError(f"line {lineno}: malformed section header")
            name = line[1:-1].strip()
            if name in sections:
                raise InputError(f"line {lineno}: duplicate section [{name}]")
            current = sections[name] = {}
        else:
            if current is None:
                raise InputError(f"line {lineno}: key outside any section")
            if "=" not in line:
                raise InputError(f"line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in current:
                raise InputError(f"line {lineno}: duplicate key {key!r}")
            current[key] = value.strip()
    return sections


@dataclass
class ProblemFile:
    dvr: Dvr
    ring: PolyRing = None
    algebra: AugmentedAlgebra = None
    modules: dict = field(default_factory=dict)
    resolution_matrices: list = None
    lattice: dict = None
    surjection: dict = None


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected an integer, got {text!r}") from None


def _parse_in(section, key, parser, text):
    """Run a field parser, attaching section and key to any complaint."""
    try:
        return parser(text)
    except InputError as exc:
        raise InputError(f"[{section}] {key}: {exc}") from None


def _required(section, data, key):
    if key not in data:
        raise InputError(f"[{section}] missing key {key!r}")
    return data[key]


def _int_in(section, data, key):
    """A required integer field."""
    return _parse_in(section, key, _parse_int, _required(section, data, key))


def _variable_names(section, data):
    """The comma-separated names of [section] vars: each one name of the
    polynomial grammar, none of them pi (the uniformizer), none twice, and
    in [ring] none a key of [augmentation], where each variable is a key."""
    names = [v.strip() for v in data.get("vars", "").split(",") if v.strip()]
    for i, name in enumerate(names):
        try:
            whole = [t[:2] for t in _tokenize(name)[:-1]] == [("name", name)]
        except InputError:
            whole = False
        if not whole:
            raise InputError(f"[{section}] vars: {name!r} is not a variable name")
        if name == "pi":
            raise InputError(f"[{section}] vars: 'pi' names the uniformizer, not a variable")
        if name in names[:i]:
            raise InputError(f"[{section}] vars: {name!r} is listed twice")
        if section == "ring" and name in _RESERVED:
            raise InputError(f"[ring] vars: {name!r} clashes with the "
                             f"[augmentation] key {name}")
    return names


# The assertions a section may make about its algebra or module, each with
# its parser, in reading order.
_ASSERTIONS = {"ci": _parse_bool, "depth": _parse_int, "mcm": _parse_bool,
               "gorenstein": _parse_bool, "dim": _parse_int}
_BASES = {"p_adic": ("p", Dvr.p_adic), "power_series": ("q", Dvr.power_series)}
_RESERVED = ("codim", *_ASSERTIONS)  # [augmentation] keys that are not variables
_SECTIONS = ("dvr", "ring", "augmentation", "resolution", "lattice", "surjection")


def _check_keys(section, data, allowed):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"unknown keys in [{section}]: {unknown}")


def _assertions(section, data, prefix):
    """The assertions [section] makes, parsed, as keyword arguments."""
    return {prefix + key: _parse_in(section, key, parse, data[key])
            for key, parse in _ASSERTIONS.items() if key in data}


def _matrix(section, key, text, entry):
    return _parse_in(section, key, lambda s: _parse_matrix(s, entry), text)


def _columns(section, key, text, ring, caps):
    """A matrix of polynomials given by rows: its row count and columns."""
    rows = _matrix(section, key, text, lambda t: parse_poly(ring, t, caps))
    return len(rows), list(zip(*rows))


def _named(text):
    """'name: value, ...' -> {name: value text}."""
    out = {}
    for item in _split_top_level(text):
        name, colon, value = item.partition(":")
        if not colon:
            raise InputError(f"expected name: value, got {item!r}")
        out[name.strip()] = value
    return out


def _values(section, key, parse, texts, names):
    """Parse texts[n] for each variable name n, in order.  `key` is the
    field that lists them, where a name that is no variable is an error, or
    None where each value is a field of its own (and the caller checks the
    section's keys)."""
    values = []
    for n in names:
        if n not in texts:
            where = f"[{section}] {key}" if key else f"[{section}]"
            raise InputError(f"{where} missing a value for {n}")
        values.append(_parse_in(section, key or n, parse, texts[n]))
    unknown = [n for n in texts if n not in names] if key else []
    if unknown:
        raise InputError(f"[{section}] {key}: {unknown[0]!r} is not a variable")
    return values


def _algebra(dvr, caps, section, data, where, settings, values, key, name):
    """The augmented algebra on the vars and relations of [section] (fields
    `data`), with codim and assertions from [where] (fields `settings`) and
    each variable's value from `values`, the texts keyed by variable name
    (see _values for `key`).  The algebra's own checks of the augmentation
    name that field."""
    ring = PolyRing(dvr, _variable_names(section, data))
    relations = _parse_in(
        section, "relations",
        lambda s: [parse_poly(ring, t, caps) for t in _split_top_level(s)],
        data.get("relations", ""))
    codim = _int_in(where, settings, "codim")
    if codim < 0:
        raise InputError(f"[{where}] codim: expected a nonnegative integer, got {codim}")
    flags = _assertions(where, settings, "claimed_")
    aug = _values(where, key, lambda s: parse_scalar(dvr, s, caps), values, ring.names)
    try:
        return build_algebra(ring, relations, aug, codim, config=caps, name=name,
                             **flags)
    except (AugmentationNotWellDefined, NonIntegralEntry,
            NonLocalAugmentation) as exc:
        loc = f"[{where}] {key}" if key else f"[{where}]"
        raise type(exc)(f"{loc}: {exc}") from None


def _module(A, section, data, caps):
    name = section[len("module."):]
    if not name:
        raise InputError(f"[{section}]: a module section needs a name")
    if name in ("ring", "O"):  # the names of A and O in every command
        raise InputError(f"[{section}]: the module name {name!r} is reserved")
    _check_keys(section, data, ("presentation", "depth", "mcm"))
    flags = _assertions(section, data, "asserted_")
    pres = data.get("presentation", "ring")
    if pres == "ring":
        return FpModule.ring_module(A, name=name, **flags)
    if pres == "O":
        return FpModule.o_module(A, name=name)
    gens, cols = _columns(section, "presentation", pres, A.ring, caps)
    return FpModule(A, gens, cols, name=name, **flags)


def load_problem(text, config=None) -> ProblemFile:
    caps = config or DEFAULT_CONFIG
    sections = parse_sections(text)
    for name in sections:
        if name not in _SECTIONS and not name.startswith("module."):
            raise InputError(f"unknown section [{name}]")

    if "dvr" not in sections:
        raise InputError("missing [dvr] section")
    data = sections["dvr"]
    if data.get("kind") not in _BASES:
        raise InputError("[dvr] kind must be p_adic or power_series")
    key, base = _BASES[data["kind"]]
    _check_keys("dvr", data, ("kind", key))
    dvr = base(_int_in("dvr", data, key))
    out = ProblemFile(dvr=dvr)

    # every section but [dvr] and [lattice] reads the algebra
    missing = [s for s in ("ring", "augmentation") if s not in sections]
    needy = [s for s in sections if s not in ("dvr", "lattice")]
    if missing and needy:
        raise InputError(f"[{needy[0]}] needs the [{missing[0]}] section")

    if "ring" in sections:
        aug = sections["augmentation"]
        _check_keys("ring", sections["ring"], ("vars", "relations"))
        values = {k: v for k, v in aug.items()
                  if k != "codim" and k not in _ASSERTIONS}
        out.algebra = _algebra(dvr, caps, "ring", sections["ring"],
                               "augmentation", aug, values, None, "A")
        out.ring = out.algebra.ring
        _check_keys("augmentation", aug, ("codim", *_ASSERTIONS, *out.ring.names))

    for name, data in sections.items():
        if name.startswith("module."):
            out.modules[name[len("module."):]] = _module(out.algebra, name, data, caps)

    if "resolution" in sections:
        data = sections["resolution"]
        keys = [f"d{i}" for i in range(1, len(data) + 1)]
        if set(data) != set(keys):
            raise InputError("[resolution] keys must be d1, d2, ... without gaps")
        out.resolution_matrices = [
            _columns("resolution", k, data[k], out.ring, caps)[1] for k in keys]

    if "lattice" in sections:
        data = sections["lattice"]
        _check_keys("lattice", data, ("basis", "v1", "v2", "pairing"))
        out.lattice = {"pairing": None}
        for key in ("basis", "v1", "v2", "pairing"):
            if key != "pairing" or key in data:
                out.lattice[key] = _matrix("lattice", key,
                                           _required("lattice", data, key),
                                           lambda s: parse_scalar(dvr, s, caps))

    if "surjection" in sections:
        data = sections["surjection"]
        _check_keys("surjection", data, ("vars", "relations", "codim", "augmentation",
                                         "images", "ci", "mcm", "gorenstein"))
        values = _parse_in("surjection", "augmentation", _named,
                           data.get("augmentation", ""))
        B = _algebra(dvr, caps, "surjection", data, "surjection", data,
                     values, "augmentation", "B")
        images = _parse_in("surjection", "images", _named, data.get("images", ""))
        out.surjection = {"target": B, "images": _values(
            "surjection", "images", lambda s: parse_poly(B.ring, s, caps),
            images, out.ring.names)}
    return out
