"""T-series: engine tier parity.

Three engine tiers must agree on the same event vocabulary, and every
vectorized kernel must have a pure-python twin so ``REPRO_SIM_NO_NUMPY``
runs are bit-identical. These contracts live in several files at once,
which is exactly what a runtime test struggles to pin:

* T301 — a dispatch chain (an ``if``/``elif`` ladder testing ``kind is
  EventKind.X`` over two or more members, with no catch-all branch)
  that misses an :class:`EventKind` member. A missed member is a
  silently dropped event.
* T302 — a ``*_many`` vectorized function with no scalar twin (the
  same name minus ``_many``) in the same class or module.
* T303 — a ``*_many`` function without an ``np=None`` parameter or
  without an ``np is (not) None`` branch: the pure-python fallback
  path is the contract that makes no-numpy runs possible.
* T304 — a ``*_many`` whose data-parameter count differs from its
  twin's (excluding ``self`` and ``np``): the batched call site and
  the scalar call site have drifted apart.
* T305 — engine code accessing an attribute on an SoA store object
  (``store``/``scratch`` locals, ``self._soa``) that is not in the
  store class's ``__slots__`` or methods. ``__slots__`` makes this a
  runtime AttributeError, but only on the code path that hits it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.project import ParsedFile, Project, dotted_name


@dataclass(frozen=True)
class TierParityConfig:
    events_file: str = "sim/events.py"
    events_class: str = "EventKind"
    engine_files: Tuple[str, ...] = ("sim/engine.py",)
    many_files: Tuple[str, ...] = ("sim/rates.py", "hw/power.py", "sim/soa.py")
    soa_file: str = "sim/soa.py"
    #: local-variable name -> SoA class whose columns it must respect.
    soa_locals: Tuple[Tuple[str, str], ...] = (
        ("store", "SoAStore"),
        ("scratch", "CohortScratch"),
    )
    soa_self_attrs: Tuple[Tuple[str, str], ...] = (("_soa", "SoAStore"),)


DEFAULT_CONFIG = TierParityConfig()


# -- EventKind extraction ---------------------------------------------


def _enum_members(pf: ParsedFile, class_name: str) -> List[str]:
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            members = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members.append(target.id)
            return members
    return []


def _module_aliases(pf: ParsedFile, class_name: str) -> Dict[str, str]:
    """``_TASK_FINISH = EventKind.TASK_FINISH`` style module aliases."""
    aliases: Dict[str, str] = {}
    for stmt in pf.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            name = dotted_name(stmt.value)
            if (
                isinstance(target, ast.Name)
                and name is not None
                and name.startswith(class_name + ".")
            ):
                aliases[target.id] = name.split(".", 1)[1]
    return aliases


# -- T301: dispatch-chain coverage ------------------------------------


def _test_members(
    test: ast.AST, members: Set[str], aliases: Dict[str, str], class_name: str
) -> Optional[Set[str]]:
    """Members a branch test selects; None if it is not a kind test."""
    if isinstance(test, ast.BoolOp):
        covered: Set[str] = set()
        for value in test.values:
            sub = _test_members(value, members, aliases, class_name)
            if sub is None:
                return None
            covered |= sub
        return covered
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.Eq))
    ):
        for side in (test.left, test.comparators[0]):
            name = dotted_name(side)
            if name is None:
                continue
            if name.startswith(class_name + "."):
                member = name.split(".", 1)[1]
                if member in members:
                    return {member}
            if name in aliases and aliases[name] in members:
                return {aliases[name]}
    return None


def _check_chain(
    node: ast.If,
    members: Set[str],
    aliases: Dict[str, str],
    class_name: str,
    pf: ParsedFile,
    func_name: str,
) -> Iterator[Finding]:
    covered: Set[str] = set()
    kind_tests = 0
    catch_all = False
    current: ast.stmt = node
    while isinstance(current, ast.If):
        branch = _test_members(current.test, members, aliases, class_name)
        if branch is None:
            # A non-kind test inside the ladder handles "everything
            # else" on some other criterion: treat as a catch-all.
            catch_all = True
        else:
            covered |= branch
            kind_tests += 1
        orelse = current.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
        else:
            if orelse:
                catch_all = True
            break
    if kind_tests < 2 or catch_all:
        return
    for member in sorted(members - covered):
        yield Finding(
            code="T301",
            message=(
                f"dispatch chain in {func_name}() never handles "
                f"{class_name}.{member} and has no catch-all branch"
            ),
            file=pf.relpath,
            line=node.lineno,
            col=node.col_offset,
        )


def _check_dispatch(
    project: Project, config: TierParityConfig
) -> Iterator[Finding]:
    events = project.get(config.events_file)
    if events is None:
        return
    members = set(_enum_members(events, config.events_class))
    if not members:
        return
    for relpath in config.engine_files:
        pf = project.get(relpath)
        if pf is None:
            continue
        aliases = _module_aliases(pf, config.events_class)
        for func in ast.walk(pf.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            elif_heads: Set[int] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.If):
                    orelse = node.orelse
                    if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                        elif_heads.add(id(orelse[0]))
            for node in ast.walk(func):
                if isinstance(node, ast.If) and id(node) not in elif_heads:
                    yield from _check_chain(
                        node, members, aliases, config.events_class, pf,
                        func.name,
                    )


# -- T302/T303/T304: *_many twins -------------------------------------


def _data_params(func: ast.FunctionDef, drop_np: bool) -> List[str]:
    names = [a.arg for a in func.args.posonlyargs + func.args.args]
    names = [n for n in names if n not in ("self", "cls")]
    if drop_np:
        names = [n for n in names if n != "np"]
    return names


def _has_np_fallback(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            test = node.test
            if (
                len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                and isinstance(test.left, ast.Name)
                and test.left.id == "np"
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                return True
    return False


def _check_many_twins(
    project: Project, config: TierParityConfig
) -> Iterator[Finding]:
    for relpath in config.many_files:
        pf = project.get(relpath)
        if pf is None:
            continue
        # Scope -> {function name -> def}, where scope is a class body
        # or the module body.
        scopes: List[Dict[str, ast.FunctionDef]] = []
        module_scope = {
            stmt.name: stmt
            for stmt in pf.tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        scopes.append(module_scope)
        for node in ast.walk(pf.tree):
            if isinstance(node, ast.ClassDef):
                scopes.append(
                    {
                        stmt.name: stmt
                        for stmt in node.body
                        if isinstance(stmt, ast.FunctionDef)
                    }
                )
        for scope in scopes:
            for name, func in scope.items():
                if not name.endswith("_many") or name.startswith("_"):
                    continue
                twin_name = name[: -len("_many")]
                twin = scope.get(twin_name)
                if twin is None:
                    yield Finding(
                        code="T302",
                        message=(
                            f"{name}() has no scalar twin {twin_name}() "
                            f"in the same scope"
                        ),
                        file=pf.relpath,
                        line=func.lineno,
                        col=func.col_offset,
                    )
                    continue
                params = _data_params(func, drop_np=True)
                if "np" not in _data_params(func, drop_np=False):
                    yield Finding(
                        code="T303",
                        message=f"{name}() lacks an np=None parameter",
                        file=pf.relpath,
                        line=func.lineno,
                        col=func.col_offset,
                    )
                elif not _has_np_fallback(func):
                    yield Finding(
                        code="T303",
                        message=(
                            f"{name}() never branches on np is None; "
                            f"the pure-python fallback is unreachable "
                            f"or missing"
                        ),
                        file=pf.relpath,
                        line=func.lineno,
                        col=func.col_offset,
                    )
                twin_params = _data_params(twin, drop_np=True)
                if len(params) != len(twin_params):
                    yield Finding(
                        code="T304",
                        message=(
                            f"{name}() takes {len(params)} data "
                            f"parameters but {twin_name}() takes "
                            f"{len(twin_params)}; the signatures have "
                            f"drifted"
                        ),
                        file=pf.relpath,
                        line=func.lineno,
                        col=func.col_offset,
                    )


# -- T305: SoA column consistency -------------------------------------


def _class_vocabulary(pf: ParsedFile, class_name: str) -> Optional[Set[str]]:
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            vocab: Set[str] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    vocab.add(stmt.name)
                if isinstance(stmt, ast.Assign):
                    targets = [
                        t.id
                        for t in stmt.targets
                        if isinstance(t, ast.Name)
                    ]
                    if "__slots__" in targets and isinstance(
                        stmt.value, (ast.Tuple, ast.List)
                    ):
                        for element in stmt.value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                vocab.add(element.value)
            return vocab
    return None


def _check_soa_columns(
    project: Project, config: TierParityConfig
) -> Iterator[Finding]:
    soa = project.get(config.soa_file)
    if soa is None:
        return
    local_vocab: Dict[str, Tuple[str, Set[str]]] = {}
    for local, class_name in config.soa_locals:
        vocab = _class_vocabulary(soa, class_name)
        if vocab is not None:
            local_vocab[local] = (class_name, vocab)
    self_vocab: Dict[str, Tuple[str, Set[str]]] = {}
    for attr, class_name in config.soa_self_attrs:
        vocab = _class_vocabulary(soa, class_name)
        if vocab is not None:
            self_vocab[attr] = (class_name, vocab)
    if not local_vocab and not self_vocab:
        return
    for relpath in config.engine_files:
        pf = project.get(relpath)
        if pf is None:
            continue
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            entry: Optional[Tuple[str, Set[str]]] = None
            if isinstance(base, ast.Name) and base.id in local_vocab:
                entry = local_vocab[base.id]
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in self_vocab
            ):
                entry = self_vocab[base.attr]
            if entry is None:
                continue
            class_name, vocab = entry
            if node.attr not in vocab:
                yield Finding(
                    code="T305",
                    message=(
                        f"access to .{node.attr} is not a column or "
                        f"method of {class_name} (__slots__ drift)"
                    ),
                    file=pf.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                )


def check_tierparity(
    project: Project, config: TierParityConfig = DEFAULT_CONFIG
) -> Iterator[Finding]:
    yield from _check_dispatch(project, config)
    yield from _check_many_twins(project, config)
    yield from _check_soa_columns(project, config)
