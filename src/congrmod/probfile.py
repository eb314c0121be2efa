"""Problem-file parsing: sectioned key = value text.

Sections: [dvr], [ring], [augmentation], zero or more [module.NAME],
optional [resolution], [lattice], [surjection].  Unknown keys are rejected.
Polynomials use the shared grammar (pi, + - * ^, integers); lattice entries
are K-scalars and also admit '/'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AugmentedAlgebra, build_algebra
from .config import DEFAULT_CONFIG
from .dvr import Dvr
from .errors import InputError
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
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise InputError(f"line {lineno}: malformed section header")
            current = (name[1:-1].strip(), {})
            sections.append(current)
        else:
            if current is None:
                raise InputError(f"line {lineno}: key outside any section")
            if "=" not in line:
                raise InputError(f"line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in current[1]:
                raise InputError(f"line {lineno}: duplicate key {key!r}")
            current[1][key] = value.strip()
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
    polynomial grammar, none of them pi (the uniformizer), none twice."""
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
    return names


def load_problem(text, config=None) -> ProblemFile:
    caps = config or DEFAULT_CONFIG

    def poly(ring, t):
        return parse_poly(ring, t, caps)

    def scalar(t):
        return parse_scalar(dvr, t, caps)

    sections = parse_sections(text)
    by_name = {}
    for name, data in sections:
        if name in by_name and not name.startswith("module."):
            raise InputError(f"duplicate section [{name}]")
        by_name.setdefault(name, []).append(data)

    if "dvr" not in by_name:
        raise InputError("missing [dvr] section")
    dvr_data = by_name["dvr"][0]
    kind = dvr_data.get("kind")
    if kind == "p_adic":
        if set(dvr_data) - {"kind", "p"}:
            raise InputError("unknown keys in [dvr]")
        dvr = Dvr.p_adic(_int_in("dvr", dvr_data, "p"))
    elif kind == "power_series":
        if set(dvr_data) - {"kind", "q"}:
            raise InputError("unknown keys in [dvr]")
        dvr = Dvr.power_series(_int_in("dvr", dvr_data, "q"))
    else:
        raise InputError("dvr kind must be p_adic or power_series")

    out = ProblemFile(dvr=dvr)

    if "ring" in by_name:
        ring_data = by_name["ring"][0]
        if set(ring_data) - {"vars", "relations"}:
            raise InputError("unknown keys in [ring]")
        names = _variable_names("ring", ring_data)
        ring = PolyRing(dvr, names)
        out.ring = ring
        rel_text = ring_data.get("relations", "").strip()
        relations = [_parse_in("ring", "relations", lambda s: poly(ring, s), t)
                     for t in _split_top_level(rel_text)] if rel_text else []

        if "augmentation" not in by_name:
            raise InputError("a [ring] section needs an [augmentation] section")
        aug_data = dict(by_name["augmentation"][0])
        flags = {}
        kwargs = {}
        codim = _int_in("augmentation", aug_data, "codim")
        del aug_data["codim"]
        if "ci" in aug_data:
            kwargs["claimed_ci"] = _parse_bool(aug_data.pop("ci"))
        if "depth" in aug_data:
            kwargs["claimed_depth"] = _parse_in("augmentation", "depth", _parse_int,
                                                aug_data.pop("depth"))
        if "mcm" in aug_data:
            kwargs["claimed_mcm"] = _parse_bool(aug_data.pop("mcm"))
        if "gorenstein" in aug_data:
            kwargs["claimed_gorenstein"] = _parse_bool(aug_data.pop("gorenstein"))
        if "dim" in aug_data:
            kwargs["claimed_dim"] = _parse_in("augmentation", "dim", _parse_int,
                                              aug_data.pop("dim"))
        values = []
        for name in names:
            if name not in aug_data:
                raise InputError(f"[augmentation] missing a value for {name}")
            values.append(_parse_in("augmentation", name, scalar,
                                    aug_data.pop(name)))
        if aug_data:
            raise InputError(f"unknown keys in [augmentation]: {sorted(aug_data)}")
        if config is not None:
            kwargs["config"] = config
        out.algebra = build_algebra(ring, relations, values, codim, **kwargs)
    elif "augmentation" in by_name:
        raise InputError("an [augmentation] section needs a [ring] section")

    for name, datas in by_name.items():
        if not name.startswith("module."):
            continue
        mod_name = name[len("module."):]
        if not mod_name:
            raise InputError(f"[{name}]: a module section needs a name")
        if mod_name in ("ring", "O"):  # the names of A and O in every command
            raise InputError(f"[{name}]: the module name {mod_name!r} is reserved")
        for data in datas:
            if set(data) - {"presentation", "depth", "mcm"}:
                raise InputError(f"unknown keys in [{name}]")
            if out.algebra is None:
                raise InputError("module sections need a [ring] section")
            depth = _int_in(name, data, "depth") if "depth" in data else None
            mcm = _parse_bool(data["mcm"]) if "mcm" in data else False
            pres = data.get("presentation", "ring").strip()
            if pres == "ring":
                M = FpModule.ring_module(out.algebra, name=mod_name,
                                         asserted_depth=depth, asserted_mcm=mcm)
            elif pres == "O":
                M = FpModule.o_module(out.algebra, name=mod_name)
            else:
                rows = _parse_in(name, "presentation",
                                 lambda s: _parse_matrix(
                                     s, lambda t: poly(out.ring, t)),
                                 pres)
                gens = len(rows)
                cols = [tuple(rows[i][j] for i in range(gens))
                        for j in range(len(rows[0]) if rows else 0)]
                M = FpModule(out.algebra, gens, cols, asserted_depth=depth,
                             asserted_mcm=mcm, name=mod_name)
            out.modules[mod_name] = M

    if "resolution" in by_name:
        data = by_name["resolution"][0]
        if out.algebra is None:
            raise InputError("a [resolution] section needs a [ring] section")
        mats = []
        for i in range(1, len(data) + 1):
            key = f"d{i}"
            if key not in data:
                raise InputError("[resolution] keys must be d1, d2, ... without gaps")
            rows = _parse_in("resolution", key,
                             lambda s: _parse_matrix(
                                 s, lambda t: poly(out.ring, t)),
                             data[key])
            nrows = len(rows)
            cols = [tuple(rows[r][j] for r in range(nrows))
                    for j in range(len(rows[0]) if rows else 0)]
            mats.append(cols)
        out.resolution_matrices = mats

    if "lattice" in by_name:
        data = by_name["lattice"][0]
        if set(data) - {"basis", "v1", "v2", "pairing"}:
            raise InputError("unknown keys in [lattice]")
        out.lattice = {
            "basis": _parse_matrix(_required("lattice", data, "basis"), scalar),
            "v1": _parse_matrix(_required("lattice", data, "v1"), scalar),
            "v2": _parse_matrix(_required("lattice", data, "v2"), scalar),
            "pairing": _parse_matrix(data["pairing"], scalar) if "pairing" in data else None,
        }

    if "surjection" in by_name:
        data = dict(by_name["surjection"][0])
        if out.algebra is None:
            raise InputError("a [surjection] section needs a [ring] section")
        allowed = {"vars", "relations", "codim", "augmentation", "images",
                   "ci", "mcm", "gorenstein"}
        if set(data) - allowed:
            raise InputError("unknown keys in [surjection]")
        names = _variable_names("surjection", data)
        bring = PolyRing(dvr, names)
        rel_text = data.get("relations", "").strip()
        rels = [_parse_in("surjection", "relations", lambda s: poly(bring, s), t)
                for t in _split_top_level(rel_text)] if rel_text else []
        aug_map = {}
        for item in _split_top_level(data.get("augmentation", "")):
            if ":" not in item:
                raise InputError("surjection augmentation entries are var: value")
            k, v = item.split(":", 1)
            aug_map[k.strip()] = _parse_in("surjection", "augmentation", scalar, v)
        for n in names:
            if n not in aug_map:
                raise InputError(f"[surjection] augmentation missing a value for {n}")
        values = [aug_map[n] for n in names]
        kwargs = {}
        if "ci" in data:
            kwargs["claimed_ci"] = _parse_bool(data["ci"])
        if "mcm" in data:
            kwargs["claimed_mcm"] = _parse_bool(data["mcm"])
        if "gorenstein" in data:
            kwargs["claimed_gorenstein"] = _parse_bool(data["gorenstein"])
        if config is not None:
            kwargs["config"] = config
        B = build_algebra(bring, rels, values,
                          _int_in("surjection", data, "codim"),
                          name="B", **kwargs)
        image_map = {}
        for item in _split_top_level(data.get("images", "")):
            if ":" not in item:
                raise InputError("surjection images entries are var: poly")
            k, v = item.split(":", 1)
            image_map[k.strip()] = _parse_in("surjection", "images",
                                             lambda s: poly(bring, s), v)
        images = []
        for n in out.ring.names:
            if n not in image_map:
                raise InputError(f"surjection images missing source variable {n}")
            images.append(image_map[n])
        out.surjection = {"target": B, "images": images}

    known = {"dvr", "ring", "augmentation", "resolution", "lattice", "surjection"}
    for name in by_name:
        if name not in known and not name.startswith("module."):
            raise InputError(f"unknown section [{name}]")
    return out
