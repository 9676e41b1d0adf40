"""Recursive-descent parser for the access layer's SQL dialect.

The CondorJ2 services issue a small, closed SQL dialect: parameterized
single-table DML, SELECTs with inner/left/cross joins, correlated EXISTS
anti-joins, IN (list | subquery), aggregates with GROUP BY,
``ROW_NUMBER() OVER (ORDER BY ...)`` window numbering, ``LIMIT ...
OFFSET``, ``CASE WHEN``, ``CAST``, ``COALESCE``, string concatenation,
the ``json_each`` table function, and ``INSERT ... SELECT``.  HAVING,
DISTINCT and LIKE are outside it: no statement of the services uses
them.  This module turns that dialect into a small
AST that the memory engine compiles (:mod:`.compiler`,
:mod:`.expressions`); SQLite parses the same text natively.  Keeping the grammar explicit is what makes the
engine contract falsifiable — an engine supports exactly what parses.

The parser is deliberately strict: SQL outside the dialect raises
:class:`SqlSyntaxError` rather than being half-interpreted.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SqlSyntaxError(Exception):
    """The statement is outside the supported dialect."""


# ----------------------------------------------------------------------
# lexer
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<named>:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<qmark>\?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||<>|<=|>=|==|!=|<|>|=|\(|\)|,|\.|\*|\+|-|/|%)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'string' | 'named' | 'qmark' | 'ident' | 'op' | 'end'
    value: str
    upper: str


_END = Token("end", "", "")


def tokenize(sql: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN.match(sql, pos)
        if match is None:
            raise SqlSyntaxError(f"cannot lex SQL at {sql[pos:pos + 20]!r}")
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        tokens.append(Token(kind, value, value.upper()))
    return tokens


# ----------------------------------------------------------------------
# AST nodes
# ----------------------------------------------------------------------

@dataclass
class Lit:
    value: Any


@dataclass
class Param:
    """A positional (index) or named (name) bind parameter."""

    index: Optional[int] = None
    name: Optional[str] = None


@dataclass
class Col:
    table: Optional[str]  # alias qualifier, None when unqualified
    name: str


@dataclass
class Star:
    table: Optional[str] = None  # `alias.*` when set


@dataclass
class Bin:
    op: str
    left: Any
    right: Any


@dataclass
class Un:
    op: str  # 'NOT' | '-' | '+'
    operand: Any


@dataclass
class InList:
    needle: Any
    items: List[Any]
    negated: bool = False


@dataclass
class InSelect:
    needle: Any
    select: "Select"
    negated: bool = False


@dataclass
class Exists:
    select: "Select"
    negated: bool = False


@dataclass
class IsNull:
    operand: Any
    negated: bool = False


@dataclass
class Case:
    whens: List[Tuple[Any, Any]]
    default: Any = None


@dataclass
class Cast:
    operand: Any
    to_type: str  # 'INTEGER' | 'REAL' | 'TEXT' | 'NUMERIC'


@dataclass
class Func:
    """Aggregate or scalar function call."""

    name: str
    args: List[Any]
    star: bool = False  # COUNT(*)


@dataclass
class WindowFunc:
    """``name() OVER (ORDER BY ...)`` — ROW_NUMBER in this dialect."""

    name: str
    order_by: List[Tuple[Any, bool]] = field(default_factory=list)  # (expr, desc)


@dataclass
class ScalarSelect:
    select: "Select"


@dataclass
class SelectItem:
    expr: Any  # expression or Star
    alias: Optional[str]
    text: str  # source text, used as the output column name fallback


@dataclass
class Source:
    """One FROM-clause source joined into the row stream."""

    kind: str  # 'table' | 'subquery' | 'json_each'
    name: Optional[str]  # table name for 'table'
    subquery: Optional["Select"]  # for 'subquery'
    arg: Any  # json_each argument expression
    alias: str
    join: str  # 'first' | 'inner' | 'left' | 'cross'
    on: Any  # join condition or None


@dataclass
class Select:
    items: List[SelectItem]
    sources: List[Source]
    where: Any = None
    group_by: List[Any] = field(default_factory=list)
    order_by: List[Tuple[Any, bool]] = field(default_factory=list)  # (expr, desc)
    limit: Any = None
    offset: Any = None


@dataclass
class Insert:
    table: str
    columns: List[str]
    values: Optional[List[Any]] = None  # one row of expressions
    select: Optional[Select] = None
    or_ignore: bool = False


@dataclass
class Update:
    table: str
    sets: List[Tuple[str, Any]] = field(default_factory=list)
    where: Any = None


@dataclass
class Delete:
    table: str
    where: Any = None


AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG", "TOTAL")


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_index = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else _END

    def next(self) -> Token:
        token = self.peek()
        self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        return self.peek().kind == "ident" and self.peek().upper in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word} at {self.peek().value!r} in {self.sql!r}"
            )

    def accept_op(self, op: str) -> bool:
        if self.peek().kind == "op" and self.peek().value == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SqlSyntaxError(
                f"expected {op!r} at {self.peek().value!r} in {self.sql!r}"
            )

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise SqlSyntaxError(f"expected identifier, got {token.value!r}")
        return token.value

    # -- statements -----------------------------------------------------
    def parse_statement(self) -> Any:
        if self.at_keyword("SELECT"):
            stmt = self.parse_select()
        elif self.at_keyword("INSERT"):
            stmt = self.parse_insert()
        elif self.at_keyword("UPDATE"):
            stmt = self.parse_update()
        elif self.at_keyword("DELETE"):
            stmt = self.parse_delete()
        else:
            raise SqlSyntaxError(f"unsupported statement: {self.sql!r}")
        if self.peek() is not _END and self.pos < len(self.tokens):
            raise SqlSyntaxError(
                f"trailing tokens at {self.peek().value!r} in {self.sql!r}"
            )
        return stmt

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        or_ignore = False
        if self.accept_keyword("OR"):
            self.expect_keyword("IGNORE")
            or_ignore = True
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: List[str] = []
        if self.accept_op("("):
            while True:
                columns.append(self.expect_ident())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        if self.accept_keyword("VALUES"):
            self.expect_op("(")
            values: List[Any] = []
            while True:
                values.append(self.parse_expr())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
            return Insert(table, columns, values=values, or_ignore=or_ignore)
        if self.at_keyword("SELECT"):
            return Insert(
                table, columns, select=self.parse_select(), or_ignore=or_ignore
            )
        raise SqlSyntaxError(f"INSERT needs VALUES or SELECT: {self.sql!r}")

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        sets: List[Tuple[str, Any]] = []
        while True:
            column = self.expect_ident()
            self.expect_op("=")
            sets.append((column, self.parse_expr()))
            if not self.accept_op(","):
                break
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Update(table, sets, where)

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return Delete(table, where)

    # -- SELECT ---------------------------------------------------------
    _CLAUSE_STOPS = (
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS",
    )

    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        if self.at_keyword("DISTINCT"):
            raise SqlSyntaxError("DISTINCT is outside the dialect")
        self.accept_keyword("ALL")
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        sources: List[Source] = []
        if self.accept_keyword("FROM"):
            sources = self.parse_sources()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: List[Any] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        order_by = self.parse_order_by() if self.accept_keyword("ORDER") else []
        limit = offset = None
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expr()
            if self.accept_keyword("OFFSET"):
                offset = self.parse_expr()
        return Select(
            items=items,
            sources=sources,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def parse_order_by(self) -> List[Tuple[Any, bool]]:
        self.expect_keyword("BY")
        keys: List[Tuple[Any, bool]] = []
        while True:
            expr = self.parse_expr()
            desc = False
            if self.accept_keyword("DESC"):
                desc = True
            else:
                self.accept_keyword("ASC")
            keys.append((expr, desc))
            if not self.accept_op(","):
                break
        return keys

    def parse_select_item(self) -> SelectItem:
        start = self.pos
        if self.peek().kind == "op" and self.peek().value == "*":
            self.next()
            return SelectItem(Star(), None, "*")
        # `alias.*`
        if (
            self.peek().kind == "ident"
            and self.peek(1).value == "."
            and self.peek(2).value == "*"
        ):
            alias = self.next().value
            self.next()
            self.next()
            return SelectItem(Star(alias), None, f"{alias}.*")
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif (
            self.peek().kind == "ident"
            and self.peek().upper not in self._CLAUSE_STOPS
            and self.peek().upper not in ("JOIN", "LEFT", "ON", "DESC", "ASC")
        ):
            alias = self.next().value
        text = self._source_text(start)
        return SelectItem(expr, alias, text)

    def _source_text(self, start: int) -> str:
        end = self.pos
        # Reconstruct a readable name from tokens (good enough for the
        # sqlite-compatible "expression text" column naming).
        parts = []
        for token in self.tokens[start:end]:
            parts.append(token.value)
        text = ""
        for part in parts:
            if text and text[-1].isalnum() and (part[0].isalnum() or part[0] == "_"):
                text += " " + part
            else:
                text += part
        # Strip a trailing alias if one was consumed.
        return text

    def parse_sources(self) -> List[Source]:
        sources = [self.parse_source("first", None)]
        while True:
            if self.accept_op(","):
                source = self.parse_source("cross", None)
                sources.append(source)
                continue
            join = None
            if self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                join = "left"
            elif self.accept_keyword("INNER"):
                self.expect_keyword("JOIN")
                join = "inner"
            elif self.accept_keyword("JOIN"):
                join = "inner"
            elif self.accept_keyword("CROSS"):
                # An inner join whose source order SQLite keeps as
                # written; with ON, the condition filters the product.
                self.expect_keyword("JOIN")
                join = "cross"
            if join is None:
                break
            source = self.parse_source(join, None)
            if self.accept_keyword("ON"):
                source.on = self.parse_expr()
            sources.append(source)
        return sources

    def parse_source(self, join: str, on: Any) -> Source:
        if self.accept_op("("):
            subquery = self.parse_select()
            self.expect_op(")")
            alias = self._parse_alias()
            if alias is None:
                raise SqlSyntaxError("subquery in FROM requires an alias")
            return Source("subquery", None, subquery, None, alias, join, on)
        name = self.expect_ident()
        if name.lower() == "json_each" and self.peek().value == "(":
            self.expect_op("(")
            arg = self.parse_expr()
            self.expect_op(")")
            alias = self._parse_alias() or "json_each"
            return Source("json_each", None, None, arg, alias, join, on)
        alias = self._parse_alias() or name
        return Source("table", name, None, None, alias, join, on)

    def _parse_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.expect_ident()
        token = self.peek()
        if token.kind == "ident" and token.upper not in (
            "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "LEFT",
            "INNER", "CROSS", "ON", "AS", "SELECT",
        ):
            return self.next().value
        return None

    # -- expressions ----------------------------------------------------
    def parse_expr(self) -> Any:
        return self.parse_or()

    def parse_or(self) -> Any:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = Bin("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Any:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = Bin("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Any:
        if self.at_keyword("NOT") and self.peek(1).upper == "EXISTS":
            self.next()
            return self.parse_exists(negated=True)
        if self.accept_keyword("NOT"):
            return Un("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_exists(self, negated: bool) -> Exists:
        self.expect_keyword("EXISTS")
        self.expect_op("(")
        select = self.parse_select()
        self.expect_op(")")
        return Exists(select, negated)

    def parse_comparison(self) -> Any:
        left = self.parse_additive()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in (
                "=", "==", "!=", "<>", "<", "<=", ">", ">=",
            ):
                self.next()
                op = {"==": "=", "<>": "!="}.get(token.value, token.value)
                left = Bin(op, left, self.parse_additive())
                continue
            if token.kind == "ident" and token.upper == "IS":
                self.next()
                negated = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                left = IsNull(left, negated)
                continue
            if token.kind == "ident" and (
                    token.upper == "IN"
                    or token.upper == "NOT" and self.peek(1).upper == "IN"):
                negated = self.accept_keyword("NOT")
                self.expect_keyword("IN")
                left = self.parse_in(left, negated)
                continue
            break
        return left

    def parse_in(self, needle: Any, negated: bool) -> Any:
        self.expect_op("(")
        if self.at_keyword("SELECT"):
            select = self.parse_select()
            self.expect_op(")")
            return InSelect(needle, select, negated)
        items: List[Any] = []
        if not self.accept_op(")"):
            while True:
                items.append(self.parse_expr())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        return InList(needle, items, negated)

    def parse_additive(self) -> Any:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self.next()
                left = Bin(token.value, left, self.parse_multiplicative())
                continue
            break
        return left

    def parse_multiplicative(self) -> Any:
        left = self.parse_concat()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                self.next()
                left = Bin(token.value, left, self.parse_concat())
                continue
            break
        return left

    def parse_concat(self) -> Any:
        left = self.parse_unary()
        while self.accept_op("||"):
            left = Bin("||", left, self.parse_unary())
        return left

    def parse_unary(self) -> Any:
        if self.accept_op("-"):
            return Un("-", self.parse_unary())
        if self.accept_op("+"):
            return Un("+", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Any:
        token = self.peek()
        if token.kind == "number":
            self.next()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Lit(float(text))
            return Lit(int(text))
        if token.kind == "string":
            self.next()
            return Lit(token.value[1:-1].replace("''", "'"))
        if token.kind == "qmark":
            self.next()
            param = Param(index=self.param_index)
            self.param_index += 1
            return param
        if token.kind == "named":
            self.next()
            return Param(name=token.value[1:])
        if token.kind == "op" and token.value == "(":
            self.next()
            if self.at_keyword("SELECT"):
                select = self.parse_select()
                self.expect_op(")")
                return ScalarSelect(select)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind != "ident":
            raise SqlSyntaxError(
                f"unexpected token {token.value!r} in {self.sql!r}"
            )
        upper = token.upper
        if upper == "NULL":
            self.next()
            return Lit(None)
        if upper == "EXISTS":
            return self.parse_exists(negated=False)
        if upper == "CASE":
            return self.parse_case()
        if upper == "CAST":
            self.next()
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_keyword("AS")
            to_type = self.expect_ident().upper()
            self.expect_op(")")
            return Cast(operand, to_type)
        # function call?
        if self.peek(1).value == "(":
            name = self.next().value
            self.expect_op("(")
            if self.accept_op("*"):
                self.expect_op(")")
                call: Any = Func(name.upper(), [], star=True)
            else:
                args: List[Any] = []
                if not self.accept_op(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept_op(","):
                            break
                    self.expect_op(")")
                call = Func(name.upper(), args)
            if self.at_keyword("OVER"):
                self.next()
                self.expect_op("(")
                order_by: List[Tuple[Any, bool]] = []
                if self.accept_keyword("ORDER"):
                    order_by = self.parse_order_by()
                if self.accept_keyword("PARTITION"):
                    raise SqlSyntaxError("PARTITION BY is outside the dialect")
                self.expect_op(")")
                return WindowFunc(call.name, order_by)
            return call
        # column reference, possibly qualified
        name = self.next().value
        if self.accept_op("."):
            return Col(name, self.expect_ident())
        return Col(None, name)

    def parse_case(self) -> Case:
        self.expect_keyword("CASE")
        whens: List[Tuple[Any, Any]] = []
        default = None
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        if not whens:
            raise SqlSyntaxError("CASE without WHEN")
        return Case(whens, default)


def parse(sql: str) -> Any:
    """Parse one statement; raises :class:`SqlSyntaxError` when outside
    the dialect."""
    return _Parser(sql).parse_statement()


# ----------------------------------------------------------------------
# the AST's shape, stated once
# ----------------------------------------------------------------------
# Which fields of a node hold sub-expressions is read off the dataclass
# declarations above, here and nowhere else: the planner, the compiler
# and the static analyzer (:mod:`repro.condorj2.analysis`) all traverse,
# rewrite and split statements through these four functions, so a new
# node kind is covered everywhere the day it is declared.

_NODE_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _node_fields(cls: type) -> Tuple[str, ...]:
    """Field names of node class ``cls`` (none for a non-node)."""
    names = _NODE_FIELDS.get(cls)
    if names is None:
        names = _NODE_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls)
        ) if dataclasses.is_dataclass(cls) else ()
    return names


def children(node: Any, nested: bool = True) -> List[Any]:
    """The nodes directly below ``node``, in declaration order.

    Lists and tuples inside a field (``Case.whens``, ``order_by`` pairs)
    are flattened; scalars are dropped.  With ``nested=False`` a child
    that is a :class:`Select` is left out, so a traversal stays inside
    one query's own expressions — subquery boundaries are where name
    scopes change, and the caller says whether to cross them.
    """
    found: List[Any] = []

    def collect(value: Any) -> None:
        if isinstance(value, (list, tuple)):
            for item in value:
                collect(item)
        elif dataclasses.is_dataclass(value) and (
                nested or not isinstance(value, Select)):
            found.append(value)

    for name in _node_fields(type(node)):
        collect(getattr(node, name))
    return found


def walk(node: Any, nested: bool = True) -> Iterator[Any]:
    """Depth-first traversal of the nodes at and below ``node``;
    ``nested`` as for :func:`children`."""
    stack = [node] if dataclasses.is_dataclass(node) else []
    while stack:
        current = stack.pop()
        yield current
        stack.extend(children(current, nested))


def rewrite(node: Any, fn: Callable[[Any], Any]) -> Any:
    """A copy of the expression at ``node`` with ``fn`` applied top-down.

    Where ``fn(node)`` returns a node, that replaces the subtree as is;
    where it returns None the node is rebuilt over its rewritten
    children.  Nested selects keep their own name scopes and are shared
    with the original, not rewritten.
    """
    if isinstance(node, (list, tuple)):
        return type(node)(rewrite(item, fn) for item in node)
    if not dataclasses.is_dataclass(node) or isinstance(node, Select):
        return node
    replacement = fn(node)
    if replacement is not None:
        return replacement
    return dataclasses.replace(node, **{
        name: rewrite(getattr(node, name), fn)
        for name in _node_fields(type(node))})


def split_conjuncts(node: Any) -> List[Any]:
    """Flatten a WHERE/ON tree over AND into its conjunct list."""
    if isinstance(node, Bin) and node.op == "AND":
        return split_conjuncts(node.left) + split_conjuncts(node.right)
    return [node] if node is not None else []


# ----------------------------------------------------------------------
# parse-only API
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedStatement:
    """The parse-only view of one statement: its AST plus the bind
    surface the access layer must satisfy at execution time."""

    sql: str
    ast: Any
    #: Number of positional ``?`` placeholders.
    placeholder_count: int
    #: Names of ``:name`` placeholders, in first-appearance order.
    named_params: Tuple[str, ...]


def parse_info(sql: str) -> ParsedStatement:
    """Parse ``sql`` and report its placeholder surface.

    Raises :class:`SqlSyntaxError` when outside the dialect — the same
    strictness as :func:`parse`, which is what makes the static checker
    honest: a statement the analyzer accepts is one the engines execute.
    """
    parser = _Parser(sql)
    ast = parser.parse_statement()
    named: List[str] = []
    for node in walk(ast):
        if isinstance(node, Param) and node.name is not None:
            if node.name not in named:
                named.append(node.name)
    return ParsedStatement(
        sql=sql,
        ast=ast,
        placeholder_count=parser.param_index,
        named_params=tuple(named),
    )
