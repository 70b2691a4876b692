"""The substitution algebra that derives kernels from the python tier.

:mod:`repro.core.kernel_gen` builds each specialized run loop by
taking the stage bodies of :class:`~repro.core.pipeline.SMTPipeline`
as ASTs and applying a declared list of operations to them.  This
module is that engine: structural matching with metavariables,
substitution, helper inlining with return-flow handling, loop
unrolling, guards, and the normalizer that folds the constant branches
the key literals leave behind.

Operations (applied in declared order by :func:`apply_ops`):

``("rename", old, new)``
    Rename every ``Name`` occurrence.
``("expr", old, new)``
    Structural expression rewrite; ``__X__`` metavariables match any
    expression and bind by structure.
``("stmt", pattern, replacement)``
    Consecutive-statement rewrite; ``__REST__``/``__BODY__`` bind
    statement runs.  An empty replacement deletes (hoist elision).
``("inline", (relpath, qualname), pattern, template, opts)``
    Replace the matched call site with ``template``, whose
    ``__INLINE__`` marker becomes the helper's current body with
    ``opts["bind"]`` parameter bindings applied and each ``return``
    handled by the positional ``opts["returns"]`` spec (``"break"``,
    ``"continue"``, ``"delete"``, ``"else-rest"``, or
    ``"stmts:<code>"`` with ``__RET__`` bound to the returned value).
``("unroll", var, iterations)``
    Unroll the ``for <var> in ...`` loop; each iteration dict maps
    names to replacement expressions for that copy.
``("guard", relpath, qualname, expected)``
    Pin a helper's normalized body text: the license for a concrete
    ``stmt`` rewrite that absorbed the helper.

Every operation must apply at least once; one that matches nothing
(a stale pattern) and a guard whose helper drifted both raise
:class:`SubstitutionError`.  There is no silent path through: an edit
to the python tier either flows into the derived kernel or stops the
derivation.

Sources come from a ``source_of(relpath) -> ast.Module | None``
callable, so the same engine derives from the installed package at
run time and from a linted tree under ``repro lint``.
"""

from __future__ import annotations

import ast
import re
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


_METAVAR = re.compile(r"^__[A-Z][A-Z0-9_]*__$")
_WILDCARD_PREFIXES = ("__REST", "__BODY", "__STMTS")


def _is_metavar(name: str) -> bool:
    return bool(_METAVAR.match(name)) \
        and not name.startswith(_WILDCARD_PREFIXES)


def _stmt_wildcard(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Name) \
            and stmt.value.id.startswith(_WILDCARD_PREFIXES):
        return stmt.value.id
    return None


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


# ----------------------------------------------------------------- matching

_SKIP_FIELDS = ("ctx", "type_comment", "type_ignores")
_STMT_LIST_FIELDS = ("body", "orelse", "finalbody")


def _match(pattern, node, bindings: Dict) -> bool:
    if isinstance(pattern, ast.Name) and _is_metavar(pattern.id):
        if not isinstance(node, ast.AST):
            return False
        seen = bindings.get(pattern.id)
        if seen is not None:
            return dump(seen) == dump(node)
        bindings[pattern.id] = node
        return True
    if type(pattern) is not type(node):
        return False
    if isinstance(pattern, ast.Constant):
        return pattern.value == node.value \
            and type(pattern.value) is type(node.value)
    for field in pattern._fields:
        if field in _SKIP_FIELDS:
            continue
        pv = getattr(pattern, field, None)
        nv = getattr(node, field, None)
        if isinstance(pv, list):
            if not isinstance(nv, list):
                return False
            if field in _STMT_LIST_FIELDS and \
                    (not pv or isinstance(pv[0], ast.stmt)):
                if not _match_seq(pv, nv, bindings):
                    return False
            else:
                if len(pv) != len(nv):
                    return False
                for p, n in zip(pv, nv):
                    if isinstance(p, ast.AST):
                        if not _match(p, n, bindings):
                            return False
                    elif p != n:
                        return False
        elif isinstance(pv, ast.AST):
            if not isinstance(nv, ast.AST) or not _match(pv, nv, bindings):
                return False
        elif pv != nv:
            return False
    return True


def _match_seq(patterns: Sequence[ast.stmt], stmts: Sequence[ast.stmt],
               bindings: Dict) -> bool:
    consumed = _match_seq_prefix(patterns, stmts, bindings)
    return consumed is not None and consumed == len(stmts)


def _match_seq_prefix(patterns: Sequence[ast.stmt],
                      stmts: Sequence[ast.stmt],
                      bindings: Dict) -> Optional[int]:
    """Match ``patterns`` against a prefix of ``stmts``; consumed count."""
    if not patterns:
        return 0
    head = patterns[0]
    wildcard = _stmt_wildcard(head)
    if wildcard is not None:
        prior = bindings.get(wildcard)
        if prior is not None:
            n = len(prior)
            if len(stmts) >= n and dump(list(stmts[:n])) == dump(prior):
                rest = _match_seq_prefix(patterns[1:], stmts[n:], bindings)
                if rest is not None:
                    return n + rest
            return None
        for n in range(len(stmts), -1, -1):     # greedy first
            trial = dict(bindings)
            trial[wildcard] = list(stmts[:n])
            rest = _match_seq_prefix(patterns[1:], stmts[n:], trial)
            if rest is not None:
                bindings.clear()
                bindings.update(trial)
                return n + rest
        return None
    if not stmts or type(head) is not type(stmts[0]):
        return None
    trial = dict(bindings)
    if _match(head, stmts[0], trial):
        rest = _match_seq_prefix(patterns[1:], stmts[1:], trial)
        if rest is not None:
            bindings.clear()
            bindings.update(trial)
            return 1 + rest
    return None


# ------------------------------------------------------------- substitution

def _substitute(node, bindings: Dict, moved: set):
    """Copy of ``node`` with metavariables replaced from ``bindings``.

    A bound node is spliced in as is the first time (its match is being
    replaced, so nothing else refers to it) and copied after that;
    ``moved`` records which bindings were spent.
    """
    if isinstance(node, ast.Name) and node.id in bindings:
        replacement = bindings[node.id]
        if isinstance(replacement, list):
            raise SubstitutionError(
                f"statement wildcard {node.id!r} used in expression position")
        return _spend(node.id, replacement, moved)
    fields = {}
    for field, value in ast.iter_fields(node):
        if isinstance(value, list):
            if field in _STMT_LIST_FIELDS and \
                    (not value or isinstance(value[0], ast.stmt)):
                fields[field] = _substitute_stmts(value, bindings, moved)
            else:
                fields[field] = [
                    _substitute(item, bindings, moved)
                    if isinstance(item, ast.AST) else item
                    for item in value]
        elif isinstance(value, ast.AST):
            fields[field] = _substitute(value, bindings, moved)
        else:
            fields[field] = value
    new = type(node)(**fields)
    if isinstance(node, ast.stmt):
        new.lineno = node.lineno        # ast.unparse reads it
    return new


def _spend(name: str, bound, moved: set):
    if name in moved:
        return clone(bound)
    moved.add(name)
    return bound


def _substitute_stmts(stmts: Sequence[ast.stmt], bindings: Dict,
                      moved: set) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    for stmt in stmts:
        wildcard = _stmt_wildcard(stmt)
        if wildcard is not None and wildcard in bindings:
            out.extend(_spend(wildcard, bindings[wildcard], moved))
        else:
            out.append(_substitute(stmt, bindings, moved))
    return out


def _walk_stmt_lists(stmts: List[ast.stmt], fn) -> None:
    """Call ``fn`` on every statement list reachable from ``stmts``."""
    fn(stmts)
    for stmt in stmts:
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                _walk_stmt_lists(sub, fn)
        for handler in getattr(stmt, "handlers", None) or []:
            _walk_stmt_lists(handler.body, fn)


def _head(node: ast.AST) -> Tuple:
    """What a node must carry to match a pattern with the same head:
    its type and, for names and attributes, the identifier."""
    cls = type(node)
    if cls is ast.Name:
        return cls, node.id
    if cls is ast.Attribute:
        return cls, node.attr
    return cls, None


def _has_metavar(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Name) and _is_metavar(sub.id)
               for sub in ast.walk(node))


def _subtrees(node: ast.AST) -> set:
    return {dump(sub) for sub in ast.walk(node) if isinstance(sub, ast.expr)}


def apply_expr_rewrites(stmts: List[ast.stmt],
                        rewrites: Sequence[Tuple[ast.expr, ast.expr]]
                        ) -> List[int]:
    """Apply expression rewrites in one top-down walk; per-rewrite counts.

    At each node the first rewrite (in declared order) that matches
    replaces it, and a replacement is not walked again.  For a batch
    that :func:`_rewrite_batches` formed this equals applying the
    rewrites one after another.
    """
    counts = [0] * len(rewrites)
    by_head: Dict[Tuple, List[int]] = {}
    anywhere: List[int] = []
    for index, (pattern, _replacement) in enumerate(rewrites):
        if isinstance(pattern, ast.Name) and _is_metavar(pattern.id):
            anywhere.append(index)
        else:
            by_head.setdefault(_head(pattern), []).append(index)

    def rewrite(value):
        for index in anywhere or by_head.get(_head(value), ()):
            pattern, replacement = rewrites[index]
            bindings: Dict = {}
            if _match(pattern, value, bindings):
                new = _substitute(replacement, bindings, set())
                if hasattr(value, "ctx") and hasattr(new, "ctx"):
                    new.ctx = value.ctx
                counts[index] += 1
                return new
        return None

    def visit(node: ast.AST) -> None:
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, ast.AST):
                if isinstance(value, ast.expr):
                    new = rewrite(value)
                    if new is not None:
                        setattr(node, field, new)
                        continue
                visit(value)
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    if not isinstance(item, ast.AST):
                        continue
                    if isinstance(item, ast.expr):
                        new = rewrite(item)
                        if new is not None:
                            value[index] = new
                            continue
                    visit(item)

    for stmt in stmts:
        visit(stmt)
    return counts


def _rewrite_batches(rewrites: Sequence[Tuple[ast.expr, ast.expr]]
                     ) -> List[List[int]]:
    """Split a run of rewrites into batches one walk may apply at once.

    A metavariable-free rewrite joins the current batch unless an
    earlier member could interact with it: the earlier pattern occurs
    inside its pattern (sequential order would rewrite the inside
    first), or the earlier replacement occurs inside its pattern or its
    pattern inside the earlier replacement (sequential order would let
    it match what the earlier one produced).
    """
    batches: List[List[int]] = []
    facts = []
    for index, (pattern, replacement) in enumerate(rewrites):
        if _has_metavar(pattern):
            batches.append([index])
            facts = None
            continue
        pattern_dump = dump(pattern)
        inside = _subtrees(pattern)
        mine = (pattern_dump, dump(replacement), _subtrees(replacement))
        if facts is not None and batches and all(
                earlier_pattern not in inside
                and earlier_replacement not in inside
                and pattern_dump not in earlier_inside
                for earlier_pattern, earlier_replacement, earlier_inside
                in facts):
            batches[-1].append(index)
            facts.append(mine)
        else:
            batches.append([index])
            facts = [mine]
    return batches


def _rewrite_all(stmts: List[ast.stmt],
                 rewrites: Sequence[Tuple[ast.expr, ast.expr]]) -> List[int]:
    counts = [0] * len(rewrites)
    for batch in _rewrite_batches(rewrites):
        found = apply_expr_rewrites(stmts, [rewrites[i] for i in batch])
        for index, count in zip(batch, found):
            counts[index] = count
    return counts


def apply_rename(stmts: List[ast.stmt], old: str, new: str) -> int:
    return apply_expr_rewrite(stmts, ast.Name(id=old, ctx=ast.Load()),
                              ast.Name(id=new, ctx=ast.Load()))


def apply_expr_rewrite(stmts: List[ast.stmt], pattern: ast.expr,
                       replacement: ast.expr) -> int:
    return apply_expr_rewrites(stmts, [(pattern, replacement)])[0]


def apply_stmt_rewrite(stmts: List[ast.stmt],
                       pattern: Sequence[ast.stmt],
                       replacement: Sequence[ast.stmt]) -> int:
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        index = 0
        while index < len(block):
            bindings: Dict = {}
            consumed = _match_seq_prefix(pattern, block[index:], bindings)
            if consumed is not None and consumed > 0:
                new = _substitute_stmts(replacement, bindings, set())
                block[index:index + consumed] = new
                count += 1
                index += len(new)
            else:
                index += 1

    _walk_stmt_lists(stmts, scan)
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


def _return_stmts(spec: str, value: Optional[ast.expr]) -> List[ast.stmt]:
    if spec == "break":
        return [ast.Break()]
    if spec == "continue":
        return [ast.Continue()]
    if spec == "delete":
        return []
    if spec.startswith("stmts:"):
        bindings = {"__RET__": value} if value is not None else {}
        return _substitute_stmts(parse_stmts(spec[len("stmts:"):]),
                                 bindings, set())
    raise SubstitutionError(f"unknown return spec {spec!r}")


def _apply_return_specs(stmts: List[ast.stmt],
                        specs: Dict[ast.Return, str]) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if isinstance(stmt, ast.Return):
            spec = specs.get(stmt)
            if spec is None:
                raise SubstitutionError(
                    "inline return without a declared spec")
            out.extend(_return_stmts(spec, stmt.value))
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


def function_body(source_of: SourceOf, relpath: str,
                  qualname: str) -> List[ast.stmt]:
    """A fresh copy of a function's body, docstring stripped."""
    return clone(_body(source_of, relpath, qualname))


def _body(source_of: SourceOf, relpath: str,
          qualname: str) -> List[ast.stmt]:
    """A function's body as it stands in the tree, docstring stripped."""
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
    return body


def apply_inline(source_of: SourceOf, stmts: List[ast.stmt],
                 target: Tuple[str, str], pattern_code: str,
                 template_code: str, opts: Dict) -> int:
    relpath, qualname = target
    body = function_body(source_of, relpath, qualname)

    prelude: List[ast.stmt] = []
    for param, spec in (opts.get("bind") or {}).items():
        if isinstance(spec, tuple):
            local, expr_code = spec
            prelude.append(ast.parse(f"{local} = {expr_code}").body[0])
            if local != param:
                apply_rename(body, param, local)
        elif spec != param:
            apply_expr_rewrite(body, ast.Name(id=param, ctx=ast.Load()),
                               parse_expr(spec))

    returns: List[ast.Return] = []
    _collect_returns(body, returns)
    specs = list(opts.get("returns") or ())
    if len(returns) != len(specs):
        raise SubstitutionError(
            f"inline of {qualname!r}: helper has {len(returns)} return "
            f"statements but {len(specs)} specs are declared — the helper "
            "body changed; update the fragment declaration")
    body = prelude + _apply_return_specs(body, dict(zip(returns, specs)))

    pattern = parse_stmts(pattern_code)
    template = parse_stmts(template_code)
    count = 0

    def expand(seq: List[ast.stmt], spliced: List[ast.stmt],
               moved: set) -> List[ast.stmt]:
        result: List[ast.stmt] = []
        for stmt in seq:
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Name) \
                    and stmt.value.id == "__INLINE__":
                result.extend(_spend("__INLINE__", spliced, moved))
                continue
            for field in _STMT_LIST_FIELDS:
                sub = getattr(stmt, field, None)
                if sub:
                    setattr(stmt, field, expand(sub, spliced, moved))
            result.append(stmt)
        return result

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        index = 0
        while index < len(block):
            bindings: Dict = {}
            consumed = _match_seq_prefix(pattern, block[index:], bindings)
            if consumed is not None and consumed > 0:
                moved: set = set()
                new = expand(_substitute_stmts(template, bindings, moved),
                             body if count == 0 else clone(body), moved)
                block[index:index + consumed] = new
                count += 1
                index += len(new)
            else:
                index += 1

    _walk_stmt_lists(stmts, scan)
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
                for number, subs in enumerate(iterations, 1):
                    body = (stmt.body if number == len(iterations)
                            else clone(stmt.body))
                    _rewrite_all(body, [
                        (ast.Name(id=name, ctx=ast.Load()),
                         parse_expr(expr_code))
                        for name, expr_code in subs.items()])
                    copies.extend(body)
                block[index:index + 1] = copies
                count += 1
                return

    _walk_stmt_lists(stmts, scan)
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

def check_guard(source_of: SourceOf, relpath: str, qualname: str,
                expected: str) -> None:
    """Raise unless the helper's body (docstring aside) parses to the
    same tree as ``expected`` (compared as trees, so the check does not
    depend on how a Python version spells its ``ast.unparse`` output)."""
    body = _body(source_of, relpath, qualname)
    if dump(body) != dump(parse_stmts(expected)):
        node = find_function(source_of(relpath), qualname)
        raise SubstitutionError(
            f"guarded helper {qualname} drifted from the body a concrete "
            "rewrite transcribes; restate the rewrite and its guard for "
            f"the new body:\n{unparse(body).strip()}",
            path=relpath, line=node.lineno)


def _op_summary(op: Tuple) -> str:
    kind = op[0]
    if kind in ("rename", "expr"):
        return f"{kind} {op[1]!r} -> {op[2]!r}"
    if kind == "stmt":
        snippet = textwrap.dedent(op[1]).strip().splitlines()
        head = snippet[0] if snippet else ""
        return f"{kind} rewrite starting {head!r}"
    if kind == "inline":
        return f"inline {op[1][1]}"
    if kind == "unroll":
        return f"unroll over {op[1]!r}"
    if kind == "guard":
        return f"guard on {op[2]}"
    return kind


def apply_ops(source_of: SourceOf, ops: Sequence[Tuple],
              stmts: List[ast.stmt]) -> None:
    """Apply ``ops`` to ``stmts`` in place; raise on any stale op."""
    index = 0
    while index < len(ops):
        op = ops[index]
        kind = op[0]
        if kind in ("rename", "expr"):
            # A run of renames and expression rewrites shares walks.
            end = index
            while end < len(ops) and ops[end][0] in ("rename", "expr"):
                end += 1
            run = [(parse_expr(op[1]), parse_expr(op[2]))
                   for op in ops[index:end]]
            for offset, count in enumerate(_rewrite_all(stmts, run)):
                if count == 0:
                    _stale(index + offset, ops[index + offset])
            index = end
            continue
        count = 1
        if kind == "stmt":
            count = apply_stmt_rewrite(stmts, parse_stmts(op[1]),
                                       parse_stmts(op[2]))
        elif kind == "inline":
            count = apply_inline(source_of, stmts, op[1], op[2], op[3],
                                 op[4] if len(op) > 4 else {})
        elif kind == "unroll":
            count = apply_unroll(stmts, op[1], op[2])
        elif kind == "guard":
            check_guard(source_of, op[1], op[2], op[3])
        else:
            raise SubstitutionError(f"unknown substitution kind {kind!r}")
        if count == 0:
            _stale(index, op)
        index += 1


def _stale(index: int, op: Tuple) -> None:
    raise SubstitutionError(
        f"declared substitution #{index} ({_op_summary(op)}) no longer "
        "matches the python tier; update the declaration for the edit")
