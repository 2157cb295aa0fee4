"""SQL++ lexer: one compiled regex pass, with precise source positions.

Tokenizes the slice of SQL++ the paper's queries use (Appendix A):
keywords, identifiers, string/number literals, comparison and arithmetic
operators, path punctuation (``.``, ``[``, ``]``), and ``--`` line /
``/* */`` block comments.  Every token carries its 1-based line and column
so downstream errors (parser and binder alike) can point at the exact spot
in the query string — the :class:`~repro.errors.SqlppError` contract.

:class:`Lexed` is one ``findall`` of a master regex that splits a statement
into *lexemes* — each token's source text — and the comments and
whitespace between them, and does nothing else, so it costs a few
microseconds.
Its :attr:`Lexed.shape`, the plan cache's key (``Dataset._plan``), is the
lexemes with each literal not shaping the plan (:func:`_shape`) replaced
by its kind; :meth:`Lexed.params` are the literals' values, by slot.  Any
other lexeme is kept, so a text the lexer refuses keeps its error lexeme —
an unterminated comment or string, a stray character — and never matches a
cached plan, except a string's unknown escape, which :meth:`Lexed.params`
raises as :meth:`Lexed.tokens` does.  :meth:`Lexed.tokens` builds the
:class:`Token` list and raises the errors; only a cache miss pays for it,
and the parser reads those tokens instead of lexing again.

Unicode rule: a word starts with a letter (``str.isalpha``) or ``_`` and
goes on over ``\\w`` (``str.isalnum`` or ``_``); a number's digits are
decimal digits (``str.isdecimal``, regex ``\\d``).  A digit that is not
decimal, such as ``'²'``, starts no token: it is an unexpected character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, List, Optional, Tuple

from ..errors import SqlppError

#: Reserved words.  Matched case-insensitively; the canonical (upper-case)
#: spelling is stored as the token text.
KEYWORDS = frozenset({
    "SELECT", "VALUE", "FROM", "AS", "UNNEST", "LET", "WHERE",
    "AND", "OR", "NOT", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT",
    "SOME", "IN", "SATISFIES", "EXISTS",
    "TRUE", "FALSE", "NULL", "MISSING", "IS", "UNKNOWN",
    "CREATE", "INDEX", "ON",
})

_OPS = frozenset(("<=", ">=", "!=", "<>", *"=<>+-*/%()[],.;"))

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"',
            "/": "/", "b": "\b", "f": "\f"}

#: Whitespace and comments.  Nothing follows them in a pattern, so a greedy
#: match takes all of them and no lexeme starts inside them.
_TRIVIA = r"(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)*"
_STRING = re.compile(r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"', re.S)
#: One lexeme, then the trivia after it.  The alternatives, in order: a
#: number, a word, a string, an unterminated string or block comment (taken
#: to the end of the text: an error, and no rescan of the rest), an
#: operator, any other character (an error).
_LEXEME = re.compile(
    r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\w+|" + _STRING.pattern
    + r"""|['"].*|/\*.*|<=|>=|!=|<>|[=<>+\-*/%()\[\],.;]|.)(""" + _TRIVIA + ")", re.S)
_LEADING = re.compile(_TRIVIA, re.S)
_ESCAPE = re.compile(r"\\(.?)", re.S)
_FIRST = itemgetter(0)

#: A parameter's kind in a shape: no lexeme can be either (``<`` lexes alone).
NUMBER, STRING = "<number>", "<string>"


@dataclass
class Token:
    """One lexical token; ``value`` holds the decoded literal payload."""

    kind: str               # "keyword" | "ident" | "number" | "string" | "op" | "eof"
    text: str
    line: int
    column: int
    value: Any = None
    #: A number's or string's position in the run's parameters.
    slot: Optional[int] = None

    def matches(self, kind: str, text: Optional[str] = None) -> bool:
        return self.kind == kind and (text is None or self.text == text)

    def describe(self) -> str:
        return "end of query" if self.kind == "eof" else repr(self.text)


class Lexed:
    """One statement split into lexemes; its tokens are built on demand.

    Splitting raises nothing: errors surface from :meth:`tokens` (and a
    string's unknown escape from :meth:`params`)."""

    __slots__ = ("source", "start", "pairs", "lexemes", "shape")

    def __init__(self, source: str) -> None:
        self.source = source
        self.start = _LEADING.match(source).end()
        #: ``(lexeme, trivia after it)`` pairs, in source order.
        self.pairs: List[Tuple[str, str]] = _LEXEME.findall(source, self.start)
        #: Every token's source text, and the plan cache's key (:func:`_shape`).
        self.lexemes: Tuple[str, ...] = tuple(map(_FIRST, self.pairs))
        self.shape: Tuple[str, ...] = _shape(self.lexemes)

    def params(self) -> Tuple[Any, ...]:
        """Every number's and string's value, in order: the run's parameters.
        For a text whose shape holds no error lexeme: raises what
        :meth:`tokens` raises for the first string with an unknown escape."""
        values = []
        for lexeme in self.lexemes:
            if lexeme[0].isdecimal():
                values.append(_number(lexeme))
            elif lexeme[0] in "'\"":
                if "\\" in lexeme:  # escapes decode (or fail) where tokens() has positions
                    return tuple(token.value for token in self.tokens() if token.slot is not None)
                values.append(lexeme[1:-1])
        return tuple(values)

    def tokens(self) -> List[Token]:
        """The tokens, ``eof`` last; raises :class:`SqlppError` at the first
        lexeme that is no token."""
        source = self.source
        offset = self.start
        line = source.count("\n", 0, offset) + 1
        line_start = source.rfind("\n", 0, offset) + 1
        tokens: List[Token] = []
        append = tokens.append
        slot = 0
        for lexeme, trivia in self.pairs:
            column = offset - line_start + 1
            first = lexeme[0]
            if lexeme in _OPS:
                append(Token("op", lexeme, line, column))
            elif first.isdecimal():
                append(Token("number", lexeme, line, column, _number(lexeme), slot))
                slot += 1
            elif first.isalpha() or first == "_":
                # ``value`` keeps the original spelling: keywords may still
                # appear as field names after '.' (e.g. ``subject.value``).
                upper = lexeme.upper()
                if upper in KEYWORDS:
                    append(Token("keyword", upper, line, column, lexeme))
                else:
                    append(Token("ident", lexeme, line, column, lexeme))
            elif first in "'\"" and _STRING.fullmatch(lexeme):
                body = lexeme[1:-1]
                if "\\" in body:
                    body = _ESCAPE.sub(lambda match: self._escape(match, offset + 1), body)
                append(Token("string", first + body + first, line, column, body, slot))
                slot += 1
            else:
                self._fail(lexeme, offset)
            end = offset + len(lexeme) + len(trivia)
            if "\n" in trivia or "\n" in lexeme:  # a string literal may span lines
                line += source.count("\n", offset, end)
                line_start = source.rfind("\n", offset, end) + 1
            offset = end
        tokens.append(Token("eof", "", line, offset - line_start + 1))
        return tokens

    def _escape(self, match: "re.Match", base: int) -> str:
        """What an escape at ``base + match.start()`` stands for; raises on
        an unknown one."""
        escape = match.group(1) or "\0"  # a backslash at the very end
        if escape not in _ESCAPES:
            line, column = self._position(base + match.start())
            raise SqlppError(f"unknown escape sequence \\{escape}", line, column,
                             "\\" + escape)
        return _ESCAPES[escape]

    def _fail(self, lexeme: str, offset: int) -> None:
        """Raise the error a lexeme that is no token stands for."""
        line, column = self._position(offset)
        first = lexeme[0]
        if lexeme.startswith("/*"):
            raise SqlppError("unterminated block comment", line, column, "/*")
        if first in "'\"":
            # Unterminated: the first unknown escape on the way to the end of
            # the text is reported before the missing quote.
            for match in _ESCAPE.finditer(self.source, offset + 1):
                self._escape(match, 0)
            raise SqlppError("unterminated string literal", line, column, first)
        raise SqlppError(f"unexpected character {first!r}", line, column, first)

    def _position(self, offset: int) -> Tuple[int, int]:
        line_start = self.source.rfind("\n", 0, offset) + 1
        return self.source.count("\n", 0, offset) + 1, offset - line_start + 1


def _number(lexeme: str) -> Any:
    return int(lexeme) if lexeme.isdecimal() else float(lexeme)


def _shape(lexemes: Tuple[str, ...]) -> Tuple[str, ...]:
    """``lexemes``, each number and string literal replaced by its kind unless
    its value shapes the plan or decides whether the text binds: after
    ``LIMIT`` or ``[``; after ``-``, past ``(`` and ``+`` (the binder folds
    ``- 5`` into ``-5``); anywhere in a grouped query, whose binder matches
    items to GROUP BY keys by equality, literals included."""
    if any(lexeme.upper() == "GROUP" for lexeme in lexemes):
        return lexemes
    shape = list(lexemes)
    for position, lexeme in enumerate(lexemes):
        first = lexeme[0]
        if first.isdecimal():
            kind = NUMBER
        elif first in "'\"" and _STRING.fullmatch(lexeme):
            kind = STRING
        else:
            continue
        before = position - 1
        while before >= 0 and lexemes[before] in ("(", "+"):
            before -= 1
        if before < 0 or lexemes[before].upper() not in ("-", "[", "LIMIT"):
            shape[position] = kind
    return tuple(shape)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, raising :class:`SqlppError` on lexical errors."""
    return Lexed(source).tokens()
