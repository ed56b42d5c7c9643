"""SQL lexer and parser, including hypothesis round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.db.engine import Database
from repro.db.errors import DatabaseError, SqlSyntaxError
from repro.db.schema import ColumnDef, TableSchema
from repro.db.sql import ast
from repro.db.sql.lexer import TokenType, tokenize
from repro.db.sql import parser as parser_module
from repro.db.sql.parser import PARSE_MEMO_SIZE, parse, parse_expression
from repro.db.types import DataType
from repro.workloads.tpch.queries import q1, q6

#: Malformed SQL, and SQL outside the dialect (LIKE and CASE are not
#: supported): each must fail with a named database error.
INVALID_SQL = [
    "SELECT a FROM t extra! tokens",
    "SELECT a",
    "SELECT k FROM t WHERE s LIKE 'a%'",
    "SELECT k FROM t WHERE s NOT LIKE 'a%'",
    "SELECT SUM(CASE WHEN k = 1 THEN 1 ELSE 0 END) FROM t",
]


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, b FROM t WHERE a >= 1.5")
        kinds = [t.type for t in tokens]
        assert kinds[-1] is TokenType.EOF
        values = [t.value for t in tokens[:-1]]
        assert values == [
            "select", "a", ",", "b", "from", "t", "where", "a", ">=", "1.5",
        ]

    def test_string_escaping(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_line_comment(self):
        tokens = tokenize("SELECT a -- comment\nFROM t")
        assert [t.value for t in tokens[:-1]] == ["select", "a", "from", "t"]

    def test_qualified_name_not_a_float(self):
        tokens = tokenize("t1.col")
        assert [t.value for t in tokens[:-1]] == ["t1", ".", "col"]

    def test_scientific_notation(self):
        tokens = tokenize("1e3 2.5e-2")
        assert tokens[0].value == "1e3"
        assert tokens[1].value == "2.5e-2"

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT #")


class TestParser:
    def test_simple_select(self):
        select = parse("SELECT a, b AS bee FROM t WHERE a = 1")
        assert len(select.items) == 2
        assert select.items[1].alias == "bee"
        assert isinstance(select.where, ast.Comparison)

    def test_operator_precedence(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.Arithmetic) and expr.op == "+"
        assert isinstance(expr.right, ast.Arithmetic)
        assert expr.right.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.Or)
        assert isinstance(expr.right, ast.And)

    def test_not_in(self):
        expr = parse_expression("k NOT IN (1, 2)")
        assert expr == ast.Not(ast.InList(
            ast.ColumnRef("k"), (ast.Literal(1), ast.Literal(2))
        ))

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, ast.Between)

    def test_date_literal(self):
        expr = parse_expression("d >= DATE '1994-01-01'")
        assert isinstance(expr.right, ast.DateLiteral)
        assert expr.right.iso == "1994-01-01"

    def test_count_star_and_aggregates(self):
        select = parse(
            "SELECT COUNT(*), SUM(x), AVG(y) FROM t GROUP BY g"
        )
        funcs = [item.expr.name for item in select.items]
        assert funcs == ["count", "sum", "avg"]
        assert select.items[0].expr.arg is None

    def test_join_normalized_to_where(self):
        select = parse(
            "SELECT a FROM t1 JOIN t2 ON t1.k = t2.k WHERE t1.a > 0"
        )
        conjuncts = ast.conjuncts(select.where)
        assert len(conjuncts) == 2

    def test_order_limit_distinct(self):
        select = parse(
            "SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 7"
        )
        assert select.distinct
        assert select.order_by[0].descending
        assert not select.order_by[1].descending
        assert select.limit == 7

    def test_table_aliases(self):
        select = parse("SELECT e.a FROM emp e, dept AS d")
        assert select.tables[0].binding == "e"
        assert select.tables[1].binding == "d"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert isinstance(expr.left, ast.Negate)

    @pytest.mark.parametrize("sql", INVALID_SQL)
    def test_invalid_sql_rejected(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    @pytest.mark.parametrize("sql", INVALID_SQL)
    def test_invalid_sql_rejected_by_execute(self, sql):
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnDef("k", DataType.INT64),
                              ColumnDef("s", DataType.STRING)]),
            {"k": [1, 2], "s": ["ab", "b"]},
        )
        with pytest.raises(DatabaseError):
            db.execute(sql)

    def test_star(self):
        select = parse("SELECT * FROM t")
        assert select.items[0].expr == ast.ColumnRef("*")


class TestParseMemo:
    def test_same_text_returns_the_same_object(self):
        sql = "SELECT a, b FROM t WHERE a = 17"
        assert parse(sql) is parse(sql)
        assert parse(sql) == parse.__wrapped__(sql)

    def test_known_text_is_lexed_once(self, monkeypatch):
        lexed = []

        def counting_tokenize(sql):
            lexed.append(sql)
            return tokenize(sql)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        sql = "SELECT a FROM t WHERE a = 4711"
        for _ in range(5):
            parse(sql)
        assert lexed == [sql]

    def test_syntax_error_raised_on_every_call(self):
        bad = "SELECT a FROM t WHERE"
        errors = []
        for _ in range(3):
            with pytest.raises(SqlSyntaxError) as excinfo:
                parse(bad)
            errors.append(excinfo.value)
        assert len({id(e) for e in errors}) == 3  # raised afresh
        assert len({str(e) for e in errors}) == 1
        assert {e.position for e in errors} == {len(bad)}

    def test_parse_expression_is_not_memoized(self):
        first = parse_expression("a + 1")
        second = parse_expression("a + 1")
        assert first == second
        assert first is not second

    def test_memo_stays_within_its_bound(self):
        for i in range(10 * PARSE_MEMO_SIZE):
            parse(f"SELECT a FROM t WHERE a = {i}")
        info = parse.cache_info()
        assert info.maxsize == PARSE_MEMO_SIZE
        assert info.currsize <= PARSE_MEMO_SIZE


# -- hypothesis round-trips ------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "col1", "val"])
# Non-negative numbers only: "-1" round-trips as Negate(Literal(1)).
_literals = st.one_of(
    st.integers(min_value=0, max_value=1000).map(ast.Literal),
    st.sampled_from([0.5, 1.25, 3.75]).map(ast.Literal),
    st.sampled_from(["x", "asia", "it's"]).map(ast.Literal),
)


def _exprs(depth: int = 2) -> st.SearchStrategy[ast.Expr]:
    base = st.one_of(
        _names.map(ast.ColumnRef),
        _literals,
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["=", "<", ">=", "<>"]),
                  _names.map(ast.ColumnRef), _literals).map(
            lambda t: ast.Comparison(*t)
        ),
        st.tuples(sub, sub).map(lambda t: _bool_pair(ast.And, t)),
        st.tuples(sub, sub).map(lambda t: _bool_pair(ast.Or, t)),
    )


def _bool_pair(node, pair):
    left = _as_bool(pair[0])
    right = _as_bool(pair[1])
    return node(left, right)


def _as_bool(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, (ast.And, ast.Or, ast.Comparison, ast.Not)):
        return expr
    return ast.Comparison("=", ast.ColumnRef("a"), ast.Literal(1))


class TestRoundTrip:
    @given(expr=_exprs())
    def test_expression_round_trip(self, expr):
        """parse(expr.to_sql()) == expr for boolean/scalar trees."""
        sql = expr.to_sql()
        reparsed = parse_expression(sql)
        assert reparsed == expr

    @given(
        cols=st.lists(_names, min_size=1, max_size=3, unique=True),
        table=st.sampled_from(["t", "lineitem"]),
        limit=st.one_of(st.none(), st.integers(1, 99)),
    )
    def test_select_round_trip(self, cols, table, limit):
        select = ast.Select(
            items=tuple(ast.SelectItem(ast.ColumnRef(c)) for c in cols),
            tables=(ast.TableRef(table),),
            where=ast.Comparison("=", ast.ColumnRef(cols[0]),
                                 ast.Literal(1)),
            limit=limit,
        )
        assert parse(select.to_sql()) == select

    @pytest.mark.parametrize("sql", [q1(), q6()])
    def test_tpch_round_trip(self, sql):
        """Arithmetic, BETWEEN, DATE literals and ORDER BY print back to
        SQL that parses to the same tree."""
        select = parse(sql)
        assert parse(select.to_sql()) == select
