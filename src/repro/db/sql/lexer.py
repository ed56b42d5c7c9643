"""SQL lexer: turns query text into a token stream."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.db.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "and", "or", "not", "between", "in", "as",
    "asc", "desc", "date", "join", "inner", "on", "is", "null",
}

OPERATORS = ["<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/"]

PUNCTUATION = {"(", ")", ",", "."}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.value}, {self.value!r}@{self.position})"


def tokenize(sql: str) -> list[Token]:
    """Lex ``sql`` into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            # line comment
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            value, i = _lex_string(sql, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
            value, i = _lex_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, value, i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, lowered, start))
            continue
        matched = False
        for op in OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _lex_string(sql: str, start: int) -> tuple[str, int]:
    """Lex a single-quoted string with '' escaping."""
    i = start + 1
    out: list[str] = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise SqlSyntaxError("unterminated string literal", start)


def _lex_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # Don't swallow a trailing qualifier dot like "t1.col".
            if i + 1 < n and (sql[i + 1].isdigit()):
                seen_dot = True
                i += 1
            elif i == start:
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1] if i + 1 < n else ""
            nxt2 = sql[i + 2] if i + 2 < n else ""
            if nxt.isdigit() or (nxt in "+-" and nxt2.isdigit()):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    return sql[start:i], i
