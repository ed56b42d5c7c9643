"""Recursive-descent SQL parser for the supported SELECT subset.

Grammar (roughly):

    select    := SELECT [DISTINCT] items FROM tables [WHERE expr]
                 [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT n]
    items     := item ("," item)*        item := expr [AS? alias]
    tables    := table ("," table | [INNER] JOIN table ON expr)*
    expr      := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | predicate
    predicate := additive [cmp additive | BETWEEN a AND b | IN (list)]
    additive  := term (("+"|"-") term)*
    term      := factor (("*"|"/") factor)*
    factor    := "-" factor | primary
    primary   := literal | DATE 'iso' | func "(" expr|"*" ")"
               | column | "(" expr ")"

Explicit JOIN ... ON is normalized into the comma-join + WHERE form the
planner consumes.
"""

from __future__ import annotations

from functools import lru_cache

from repro.db.errors import SqlSyntaxError
from repro.db.sql.ast import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    DateLiteral,
    Expr,
    FuncCall,
    InList,
    Literal,
    Negate,
    Not,
    Or,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    and_all,
)
from repro.db.sql.lexer import Token, TokenType, tokenize

_CMP_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_FUNC_NAMES = {"sum", "count", "avg", "min", "max", "abs"}

#: Distinct statement texts :func:`parse` keeps parsed (least recently
#: used evicted first).  A constant, not a setting: text -> AST is a pure
#: function, so an entry can never go stale and eviction only costs a
#: re-parse.
PARSE_MEMO_SIZE = 1024


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse(sql: str) -> Select:
    """Parse a SELECT statement (memoized on the SQL text).

    Every AST node is a frozen dataclass over tuples, so all callers of
    one text safely share one ``Select``.  Only successful parses are
    kept: bad text raises its :class:`SqlSyntaxError` afresh on every
    call.  ``parse.__wrapped__`` is the unmemoized parser.
    """
    return _Parser(tokenize(sql)).parse_select_statement()


def parse_expression(sql: str) -> Expr:
    """Parse a standalone scalar/boolean expression (used in tests)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(
                f"expected {word.upper()}, found {self.current.value!r}",
                self.current.position,
            )

    def accept_punct(self, ch: str) -> bool:
        token = self.current
        if token.type is TokenType.PUNCT and token.value == ch:
            self.advance()
            return True
        return False

    def expect_punct(self, ch: str) -> None:
        if not self.accept_punct(ch):
            raise SqlSyntaxError(
                f"expected {ch!r}, found {self.current.value!r}",
                self.current.position,
            )

    def expect_eof(self) -> None:
        if self.current.type is not TokenType.EOF:
            raise SqlSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                self.current.position,
            )

    # -- statement ----------------------------------------------------

    def parse_select_statement(self) -> Select:
        select = self.parse_select()
        self.expect_eof()
        return select

    def parse_select(self) -> Select:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self._parse_select_items()
        self.expect_keyword("from")
        tables, join_predicates = self._parse_table_refs()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        where = and_all(join_predicates + ([where] if where else []))
        group_by: tuple = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = tuple(self._parse_expr_list())
        having = None
        if self.accept_keyword("having"):
            having = self.parse_expr()
        order_by: tuple = ()
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = tuple(self._parse_order_items())
        limit = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.type is not TokenType.NUMBER:
                raise SqlSyntaxError("LIMIT expects a number", token.position)
            limit = int(token.value)
        return Select(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if (
            self.current.type is TokenType.OPERATOR
            and self.current.value == "*"
        ):
            self.advance()
            return SelectItem(ColumnRef("*"))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self._expect_identifier("alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _parse_table_refs(self) -> tuple[list[TableRef], list[Expr]]:
        tables = [self._parse_table_ref()]
        predicates: list[Expr] = []
        while True:
            if self.accept_punct(","):
                tables.append(self._parse_table_ref())
                continue
            if self.current.is_keyword("inner") or self.current.is_keyword(
                "join"
            ):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                tables.append(self._parse_table_ref())
                self.expect_keyword("on")
                predicates.append(self.parse_expr())
                continue
            break
        return tables, predicates

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier("table name")
        alias = None
        if self.accept_keyword("as"):
            alias = self._expect_identifier("table alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableRef(name, alias)

    def _parse_order_items(self) -> list[OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            descending = False
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
            items.append(OrderItem(expr, descending))
            if not self.accept_punct(","):
                break
        return items

    def _parse_expr_list(self) -> list[Expr]:
        exprs = [self.parse_expr()]
        while self.accept_punct(","):
            exprs.append(self.parse_expr())
        return exprs

    def _expect_identifier(self, what: str) -> str:
        token = self.advance()
        if token.type is not TokenType.IDENTIFIER:
            raise SqlSyntaxError(
                f"expected {what}, found {token.value!r}", token.position
            )
        return token.value

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self.current
        if token.type is TokenType.OPERATOR and token.value in _CMP_OPS:
            self.advance()
            right = self._parse_additive()
            op = "<>" if token.value == "!=" else token.value
            return Comparison(op, left, right)
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high)
        negated = False
        if self.current.is_keyword("not"):
            # lookahead for NOT IN
            if self.tokens[self.pos + 1].is_keyword("in"):
                self.advance()
                negated = True
        if self.accept_keyword("in"):
            self.expect_punct("(")
            items = tuple(self._parse_expr_list())
            self.expect_punct(")")
            expr: Expr = InList(left, items)
            return Not(expr) if negated else expr
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_term()
        while (
            self.current.type is TokenType.OPERATOR
            and self.current.value in ("+", "-")
        ):
            op = self.advance().value
            left = Arithmetic(op, left, self._parse_term())
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while (
            self.current.type is TokenType.OPERATOR
            and self.current.value in ("*", "/")
        ):
            op = self.advance().value
            left = Arithmetic(op, left, self._parse_factor())
        return left

    def _parse_factor(self) -> Expr:
        if (
            self.current.type is TokenType.OPERATOR
            and self.current.value == "-"
        ):
            self.advance()
            return Negate(self._parse_factor())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("date"):
            self.advance()
            value = self.advance()
            if value.type is not TokenType.STRING:
                raise SqlSyntaxError(
                    "DATE expects a quoted ISO date", value.position
                )
            return DateLiteral(value.value)
        if token.type is TokenType.PUNCT and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER:
            name = self.advance().value
            if name in _FUNC_NAMES and self.accept_punct("("):
                if (
                    self.current.type is TokenType.OPERATOR
                    and self.current.value == "*"
                ):
                    self.advance()
                    self.expect_punct(")")
                    return FuncCall(name, None)
                distinct = self.accept_keyword("distinct")
                if distinct and name != "count":
                    raise SqlSyntaxError(
                        f"DISTINCT is only supported in COUNT, not "
                        f"{name.upper()}",
                        self.current.position,
                    )
                arg = self.parse_expr()
                self.expect_punct(")")
                return FuncCall(name, arg, distinct=distinct)
            if self.accept_punct("."):
                column = self._expect_identifier("column name")
                return ColumnRef(column, table=name)
            return ColumnRef(name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )
