"""The substitution algebra that derives kernels from the python tier.

:mod:`repro.core.kernel_gen` builds each specialized run loop by
taking the stage bodies of :class:`~repro.core.pipeline.SMTPipeline`
as ASTs and applying a declared list of operations to them.  The stage
bodies are written in the kernel's shape, so the operations only
splice and respell: nothing here restructures control flow beyond a
helper's ``return`` statements.  This module is that engine: helper
inlining with return-flow handling, loop unrolling, tree-equal
expression rewriting, and the normalizer that folds the constant
branches the key literals leave behind.

Operations (applied in declared order by :func:`apply_ops`):

``("inline", (relpath, qualname), call, opts)``
    Replace the statement ``call`` (matched as a tree: an expression
    statement, an assignment of the call, or an ``if`` testing it) with
    the helper's current body.  ``opts["bind"]`` maps a parameter to
    the argument name it takes, or to ``(local, expr)`` for an argument
    that is bound to a local first; each ``return`` is handled by the
    positional ``opts["returns"]`` spec (``"continue"``, ``"delete"``,
    ``"else-rest"``: the rest of the block becomes the ``else`` branch,
    or ``"stmts:<code>"``).
``("unroll", var, iterations)``
    Unroll the ``for <var> in ...`` loop; each iteration dict maps
    names to replacement expressions for that copy.
``("expr", old, new)``
    Replace every read of the expression ``old`` with ``new``.
``("drop", stmt)``
    Delete every occurrence of the statement ``stmt``.

Every operation must apply at least once; one that matches nothing (a
stale call site or pattern) raises :class:`SubstitutionError`.  There
is no silent path through: an edit to the python tier either flows into
the derived kernel or stops the derivation.

Sources come from a ``source_of(relpath) -> ast.Module | None``
callable, so the same engine derives from the installed package at
run time and from a linted tree under ``repro lint``.
"""

from __future__ import annotations

import ast
import textwrap
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SourceOf = Callable[[str], Optional[ast.Module]]


class SubstitutionError(Exception):
    """A declared substitution failed to apply (python-tier drift).

    ``path``/``line`` locate the python-tier code the failing operation
    was applied to, when known.
    """

    def __init__(self, message: str, path: Optional[str] = None,
                 line: Optional[int] = None) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


# ------------------------------------------------------------------ parsing

def parse_stmts(code: str) -> List[ast.stmt]:
    return ast.parse(textwrap.dedent(code)).body


def parse_expr(code: str) -> ast.expr:
    return ast.parse(code, mode="eval").body


_SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop,
           ast.cmpop)


def clone(node):
    """Deep copy of an AST (or list of ASTs), about 5x faster than
    :func:`copy.deepcopy`: AST fields are nodes, lists or immutables.
    Context and operator nodes are shared, as the parser shares them."""
    if isinstance(node, list):
        return [clone(item) for item in node]
    if not isinstance(node, ast.AST) or isinstance(node, _SHARED):
        return node
    new = node.__class__.__new__(node.__class__)
    for name, value in node.__dict__.items():
        if isinstance(value, list):
            value = [clone(item) if isinstance(item, ast.AST) else item
                     for item in value]
        elif isinstance(value, ast.AST):
            value = clone(value)
        new.__dict__[name] = value
    return new


def dump(node) -> str:
    if isinstance(node, list):
        return "; ".join(dump(item) for item in node)
    return ast.dump(node, annotate_fields=False, include_attributes=False)


def find_function(tree: ast.Module, qualname: str):
    """The ``def`` node for a dotted ``Class.method`` qualname, or None."""
    scope = tree.body
    parts = qualname.split(".")
    for depth, part in enumerate(parts):
        last = depth == len(parts) - 1
        for node in scope:
            if last and isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)) \
                    and node.name == part:
                return node
            if not last and isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                              ast.AsyncFunctionDef)) \
                    and node.name == part:
                scope = node.body
                break
        else:
            return None
    return None


def function_body(source_of: SourceOf, relpath: str,
                  qualname: str) -> List[ast.stmt]:
    """A fresh copy of a function's body, docstring stripped.

    Its prologue, the leading statements that bind a local to a
    ``self`` attribute chain, is marked: each such statement carries
    ``prologue = relpath`` for the caller to check.
    """
    tree = source_of(relpath)
    if tree is None:
        raise SubstitutionError(f"source module {relpath!r} not found")
    node = find_function(tree, qualname)
    if node is None:
        raise SubstitutionError(
            f"function {qualname!r} not found in {relpath}", path=relpath,
            line=1)
    body = node.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    body = clone(body)
    for stmt in body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _chain_root(stmt.value) == "self"):
            break
        stmt.prologue = relpath
    return body


def _chain_root(node: ast.expr) -> Optional[str]:
    """The root name of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# ------------------------------------------------------------- rewriting

_STMT_LIST_FIELDS = ("body", "orelse", "finalbody")


def walk_stmt_lists(stmts: List[ast.stmt], fn) -> None:
    """Call ``fn`` on every statement list reachable from ``stmts``."""
    fn(stmts)
    for stmt in stmts:
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                walk_stmt_lists(sub, fn)
        for handler in getattr(stmt, "handlers", None) or []:
            walk_stmt_lists(handler.body, fn)


def _head(node: ast.AST) -> Tuple:
    """What a node must carry to equal a pattern with the same head:
    its type and, for names and attributes, the identifier."""
    cls = type(node)
    if cls is ast.Name:
        return cls, node.id
    if cls is ast.Attribute:
        return cls, node.attr
    return cls, None


def rewrite(stmts: List[ast.stmt],
            table: Sequence[Tuple[ast.expr, ast.expr]],
            stores: bool = False) -> List[int]:
    """Replace every expression equal (as a tree) to a pattern in
    ``table`` with a copy of its replacement; per-entry counts.

    One top-down walk: the first entry that matches a node replaces it,
    and a replacement is not walked again.  Write targets are left
    alone unless ``stores`` (renaming a name in every context).
    """
    counts = [0] * len(table)
    by_head: Dict[Tuple, List[Tuple[Optional[str], int]]] = {}
    for index, (pattern, _replacement) in enumerate(table):
        # A name is equal to a name pattern by its head alone, in any
        # context; other patterns are compared as whole (read) trees.
        text = None if isinstance(pattern, ast.Name) else dump(pattern)
        by_head.setdefault(_head(pattern), []).append((text, index))

    def replaced(value: ast.expr):
        candidates = by_head.get(_head(value))
        if not candidates:
            return None
        ctx = getattr(value, "ctx", None)
        if ctx is not None and not isinstance(ctx, ast.Load) and not stores:
            return None
        text = None if isinstance(value, ast.Name) else dump(value)
        for pattern_text, index in candidates:
            if pattern_text == text:
                new = clone(table[index][1])
                if ctx is not None and hasattr(new, "ctx"):
                    new.ctx = ctx
                counts[index] += 1
                return new
        return None

    def visit(node: ast.AST) -> None:
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, ast.AST):
                if isinstance(value, ast.expr):
                    new = replaced(value)
                    if new is not None:
                        setattr(node, field, new)
                        continue
                visit(value)
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    if not isinstance(item, ast.AST):
                        continue
                    if isinstance(item, ast.expr):
                        new = replaced(item)
                        if new is not None:
                            value[index] = new
                            continue
                    visit(item)

    for stmt in stmts:
        visit(stmt)
    return counts


def _renames(names: Dict[str, str]) -> List[Tuple[ast.expr, ast.expr]]:
    return [(ast.Name(id=name, ctx=ast.Load()), parse_expr(code))
            for name, code in names.items()]


def _matcher(pattern: ast.stmt):
    """A test for statements equal (as trees) to ``pattern``, cheap on
    the many that are not: the type first, then a compound statement's
    header, and only then the whole tree."""
    cls = type(pattern)
    text = dump(pattern)
    test = getattr(pattern, "test", None)
    test_text = dump(test) if test is not None else None

    def equal(stmt: ast.stmt) -> bool:
        return type(stmt) is cls \
            and (test_text is None or dump(stmt.test) == test_text) \
            and dump(stmt) == text

    return equal


def drop(stmts: List[ast.stmt], pattern: ast.stmt) -> int:
    """Delete every statement equal (as a tree) to ``pattern``."""
    equal = _matcher(pattern)
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        kept = [stmt for stmt in block if not equal(stmt)]
        count += len(block) - len(kept)
        block[:] = kept

    walk_stmt_lists(stmts, scan)
    return count


# -------------------------------------------------------------- inline op

def _collect_returns(stmts: Sequence[ast.stmt],
                     out: List[ast.Return]) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            out.append(stmt)
            continue
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                _collect_returns(sub, out)
        for handler in getattr(stmt, "handlers", None) or []:
            _collect_returns(handler.body, out)


def _return_stmts(spec: str) -> List[ast.stmt]:
    if spec == "continue":
        return [ast.Continue()]
    if spec == "delete":
        return []
    if spec.startswith("stmts:"):
        return parse_stmts(spec[len("stmts:"):])
    raise SubstitutionError(f"unknown return spec {spec!r}")


def _apply_return_specs(stmts: List[ast.stmt],
                        specs: Dict[ast.Return, str]) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if isinstance(stmt, ast.Return):
            out.extend(_return_stmts(specs[stmt]))
            index += 1
            continue
        tail = None
        if isinstance(stmt, ast.If) and stmt.body \
                and isinstance(stmt.body[-1], ast.Return) \
                and specs.get(stmt.body[-1]) == "else-rest":
            # ``return`` at the tail of an if body: drop it before the
            # recursion below sees it; the rest of this block becomes
            # the else branch (guard nesting).
            tail = stmt.body[-1]
            stmt.body = stmt.body[:-1] or [ast.Pass()]
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                setattr(stmt, field, _apply_return_specs(sub, specs))
        if tail is not None:
            if stmt.orelse:
                raise SubstitutionError(
                    "else-rest return spec needs an empty else branch")
            stmt.orelse = _apply_return_specs(list(stmts[index + 1:]), specs)
            out.append(stmt)
            return out
        out.append(stmt)
        index += 1
    return out


def apply_inline(source_of: SourceOf, stmts: List[ast.stmt],
                 target: Tuple[str, str], call: str, opts: Dict) -> int:
    relpath, qualname = target
    body = function_body(source_of, relpath, qualname)

    prelude: List[ast.stmt] = []
    names: Dict[str, str] = {}
    for param, spec in (opts.get("bind") or {}).items():
        if isinstance(spec, tuple):
            local, expr_code = spec
            prelude.append(ast.parse(f"{local} = {expr_code}").body[0])
            spec = local
        if spec != param:
            names[param] = spec
    rewrite(body, _renames(names), stores=True)

    returns: List[ast.Return] = []
    _collect_returns(body, returns)
    specs = list(opts.get("returns") or ())
    if len(returns) != len(specs):
        node = find_function(source_of(relpath), qualname)
        raise SubstitutionError(
            f"inline of {qualname!r}: helper has {len(returns)} return "
            f"statements but {len(specs)} specs are declared — the helper "
            "body changed; update the fragment declaration",
            path=relpath, line=node.lineno)
    body = prelude + _apply_return_specs(body, dict(zip(returns, specs)))

    (site,) = parse_stmts(call)
    equal = _matcher(site)
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        index = 0
        while index < len(block):
            if equal(block[index]):
                spliced = body if count == 0 else clone(body)
                block[index:index + 1] = spliced
                count += 1
                index += len(spliced)
            else:
                index += 1

    walk_stmt_lists(stmts, scan)
    return count


def apply_unroll(stmts: List[ast.stmt], var: str,
                 iterations: Sequence[Dict[str, str]]) -> int:
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        for index, stmt in enumerate(block):
            if isinstance(stmt, ast.For) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == var:
                copies: List[ast.stmt] = []
                for number, names in enumerate(iterations, 1):
                    body = (stmt.body if number == len(iterations)
                            else clone(stmt.body))
                    rewrite(body, _renames(names), stores=True)
                    copies.extend(body)
                block[index:index + 1] = copies
                count += 1
                return

    walk_stmt_lists(stmts, scan)
    return count


# ---------------------------------------------------------- normalization

def _fold_expr(node: ast.AST) -> ast.AST:
    cls = type(node)
    if cls is ast.UnaryOp:
        if isinstance(node.op, ast.Not) \
                and isinstance(node.operand, ast.Constant) \
                and isinstance(node.operand.value, bool):
            return ast.Constant(value=not node.operand.value)
    elif cls is ast.BoolOp:
        is_and = isinstance(node.op, ast.And)
        values: List[ast.expr] = []
        for value in node.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, bool):
                if value.value is is_and:
                    continue            # neutral element: drop
                return ast.Constant(value=not is_and)
            values.append(value)
        if not values:
            return ast.Constant(value=is_and)
        if len(values) == 1:
            return values[0]
        node.values = values
    return node


def _normalized(node: ast.AST):
    """``node`` normalized (children first): a node, or for a statement
    a list to splice (a folded ``if``) or None (dropped)."""
    for field in node._fields:
        value = getattr(node, field, None)
        if isinstance(value, list):
            items = []
            for item in value:
                if isinstance(item, ast.AST):
                    item = _normalized(item)
                    if isinstance(item, list):
                        items.extend(item)
                        continue
                    if item is None:
                        continue
                items.append(item)
            value[:] = items
        elif isinstance(value, ast.AST):
            setattr(node, field, _normalized(value))
    cls = type(node)
    if cls is ast.Expr:
        if isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            return None
    elif cls is ast.AnnAssign:
        if node.value is None:
            return None
        return ast.Assign(targets=[node.target], value=node.value,
                          lineno=node.lineno)
    elif cls is ast.If:
        if isinstance(node.test, ast.Constant) \
                and isinstance(node.test.value, bool):
            return node.body if node.test.value else node.orelse
        if not node.body:
            node.body = [ast.Pass()]
    elif isinstance(node, ast.expr):
        return _fold_expr(node)
    return node


def normalize(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """Strip docstring-like statements, decay ``AnnAssign``, fold
    constant boolean tests and the branches they decide (in place)."""
    module = ast.Module(body=stmts, type_ignores=[])
    return _normalized(module).body


def unparse(stmts: Sequence[ast.stmt]) -> str:
    return ast.unparse(ast.Module(body=list(stmts), type_ignores=[]))


# ------------------------------------------------------------------ driver

def _op_summary(op: Tuple) -> str:
    kind = op[0]
    if kind == "expr":
        return f"expr {op[1]!r} -> {op[2]!r}"
    if kind == "drop":
        head = textwrap.dedent(op[1]).strip().splitlines()[0]
        return f"drop of the statement starting {head!r}"
    if kind == "inline":
        return f"inline of {op[1][1]} at {op[2].splitlines()[0]!r}"
    if kind == "unroll":
        return f"unroll over {op[1]!r}"
    return kind


def apply_ops(source_of: SourceOf, ops: Sequence[Tuple],
              stmts: List[ast.stmt]) -> None:
    """Apply ``ops`` to ``stmts`` in place; raise on any stale op."""
    index = 0
    while index < len(ops):
        op = ops[index]
        kind = op[0]
        if kind == "expr":
            # A run of expression rewrites shares one walk.
            end = index
            while end < len(ops) and ops[end][0] == "expr":
                end += 1
            counts = rewrite(stmts, [(parse_expr(old), parse_expr(new))
                                     for _kind, old, new in ops[index:end]])
            for offset, count in enumerate(counts):
                if count == 0:
                    _stale(index + offset, ops[index + offset])
            index = end
            continue
        if kind == "drop":
            (pattern,) = parse_stmts(op[1])
            count = drop(stmts, pattern)
        elif kind == "inline":
            count = apply_inline(source_of, stmts, op[1], op[2], op[3])
        elif kind == "unroll":
            count = apply_unroll(stmts, op[1], op[2])
        else:
            raise SubstitutionError(f"unknown substitution kind {kind!r}")
        if count == 0:
            _stale(index, op)
        index += 1


def _stale(index: int, op: Tuple) -> None:
    raise SubstitutionError(
        f"declared substitution #{index} ({_op_summary(op)}) no longer "
        "matches the python tier; update the declaration for the edit")
