"""Source hygiene of the congrmod package, read with the standard library's
ast: no module imports a name it never uses, no function imports from the
standard library in its body, no private top-level function or class, and
no private method, is left without a reference, no public method is
either unless API_AND_ORACLES names it, no function takes a parameter
it never reads, no class stores an attribute that nothing reads, no
docstring or comment names a call or a class attribute the package does
not define, and no module but dvr.py asks which base ring it computes
over."""

import ast
import builtins
import io
import re
import sys
import tokenize
from pathlib import Path

import congrmod

SRC = Path(congrmod.__file__).resolve().parent
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(SRC.glob("*.py"))}

# The public methods that nothing in the package reads, and why each stays.
API_AND_ORACLES = {
    "FpModule.direct_sum": "the module constructor of the additivity checks",
    "FpModule.torsion_submodule": "the M[J] oracle that Ext^0(O, A) is compared against",
    "FiniteModule.as_module": "the O-structure that test_o_torsion_in_module checks",
    "FreeResolution.diffs": "the differentials that the benchmark's syzygy "
                            "workload and the tests read",
}


def _used_names(tree, bare=True):
    """Every identifier a module reads: names (unless bare is false),
    attribute names, and the strings of __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if bare:
                used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    return used


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # re-exports
            continue
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_no_standard_library_imports_in_function_bodies():
    """A function body runs its imports on every call; the standard library
    is imported once, at the top of the module.  Imports from inside the
    package, which break import cycles, stay allowed."""
    nested = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                nested.extend(f"{name}: {func.name} imports {m}" for m in modules
                              if m.split(".")[0] in sys.stdlib_module_names)
    assert not nested


def test_private_top_level_definitions_are_referenced():
    """A private function or class is read somewhere outside its own body."""
    uses = []  # (module, top-level node, names it reads or imports)
    for name, tree in MODULES.items():
        for node in tree.body:
            names = _used_names(node)
            names.update(alias.name for sub in ast.walk(node)
                         if isinstance(sub, ast.ImportFrom) for alias in sub.names)
            uses.append((name, node, names))
    orphans = [f"{name}: {node.name}" for name, node, _ in uses
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and not any(node.name in names for _, other, names in uses
                           if other is not node)]
    assert not orphans


def _unread_methods(public):
    """The public methods, or the private ones (a _name, not a dunder), of
    the top-level classes that nothing outside their own body reads: neither
    another member of their class nor anything else in the package.  A
    method is read through an attribute (x.name) or __all__; a bare name is
    a local variable or a function that happens to share its name."""
    units = []  # (class name or None, statement, names it reads)
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units.extend((node.name, member, _used_names(member, bare=False))
                             for member in node.body)
                units.extend((None, sub, _used_names(sub, bare=False))
                             for sub in node.bases + node.decorator_list)
            else:
                units.append((None, node, _used_names(node, bare=False)))
    return [f"{cls}.{node.name}" for cls, node, _ in units
            if cls and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__")
            and node.name.startswith("_") != public
            and not any(node.name in names for _, other, names in units
                        if other is not node)]


def test_private_methods_are_referenced():
    assert not _unread_methods(public=False)


def test_public_methods_are_referenced_or_listed():
    """A public method is read somewhere in the package, or API_AND_ORACLES
    says why it stays; an entry whose method is now read, or gone, is
    dropped from the list."""
    assert sorted(_unread_methods(public=True)) == sorted(API_AND_ORACLES)


def test_parameters_are_read():
    """Every parameter of a top-level function or of a method of a
    top-level class, other than self and cls, is read in its body.  Nested
    functions are not checked: the resolution step builders share the
    signature step(res, t) whether or not each reads both."""
    unread = []
    for name, tree in MODULES.items():
        funcs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                funcs.extend((f"{node.name}.", m) for m in node.body)
            else:
                funcs.append(("", node))
        for prefix, func in funcs:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            read = {n.id for stmt in func.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{name}: {prefix}{func.name}({p})" for p in params
                          if p not in ("self", "cls") and p not in read)
    assert not unread


def test_instance_attributes_are_read():
    """Every attribute a top-level class stores on self (self.name = ...,
    in any of its methods) is read somewhere in the package through an
    attribute access (x.name)."""
    read = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for tree in MODULES.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            unread.update(f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name) and node.value.id == "self"
                          and node.attr not in read)
    assert sorted(unread) == []


def test_exports_exist_once():
    """Every name in congrmod.__all__ is an attribute of the package, and
    none is listed twice."""
    names = congrmod.__all__
    assert [n for n in names if not hasattr(congrmod, n)] == []
    assert len(set(names)) == len(names)


BASE_KINDS = {"p_adic", "power_series"}


def test_only_dvr_asks_for_the_base():
    """No module other than dvr.py compares a value with a base kind
    ("p_adic" or "power_series", alone or in a tuple, list or set): each
    base's arithmetic lives in dvr.Dvr, so that no second path forks on
    the base elsewhere."""
    forks = []
    for name, tree in MODULES.items():
        if name == "dvr.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + node.comparators
            operands += [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set))
                         for e in o.elts]
            if any(isinstance(o, ast.Constant) and o.value in BASE_KINDS for o in operands):
                forks.append(f"{name}:{node.lineno}")
    assert not forks


def _prose():
    """(module, text) for every docstring and comment of the package."""
    out = []
    for name, tree in MODULES.items():
        out.extend((name, doc) for node in ast.walk(tree)
                   if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                   and (doc := ast.get_docstring(node, clean=False)))
        source = io.StringIO((SRC / name).read_text()).readline
        out.extend((name, tok.string) for tok in tokenize.generate_tokens(source)
                   if tok.type == tokenize.COMMENT)
    return out


def _members():
    """{class name: the names it defines}: its methods, class-level
    assignments and the attributes it stores on self, with those of its
    bases in the package."""
    own, bases = {}, {}
    for tree in MODULES.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            names = own[cls.name] = set()
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            names.update(node.attr for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self")

    def members(name):
        return own[name].union(*(members(b) for b in bases[name] if b in own))
    return {name: members(name) for name in own}


def test_prose_names_what_the_package_defines():
    """Every call written as name() (or x.name()) and every Class.attr in a
    docstring or comment names something the package defines: a function,
    method or class of it, a builtin or a str method for a call, and a
    member of a class of the package (or of object) for Class.attr.  A
    one-letter capital (A.nf) is a variable, not a class, and is not read
    as one.  So a mention of a method that is gone fails here."""
    members = _members()
    defined = set(members).union(*members.values())
    defined |= {node.name for tree in MODULES.values() for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    callable_names = defined | set(dir(builtins)) | set(dir(str))
    stale = []
    for name, text in _prose():
        for m in re.finditer(r"(?<![\w.])(?:\w+\.)*(\w+)\(\)", text):
            if m.group(1) not in callable_names:
                stale.append(f"{name}: {m.group()}")
        for m in re.finditer(r"\b([A-Z]\w+)\.(\w+)", text):
            cls, attr = m.groups()
            if attr not in members.get(cls, ()) and not hasattr(object, attr):
                stale.append(f"{name}: {m.group()}")
    assert not stale
