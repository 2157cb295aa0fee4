"""SQL++ text front-end: lexer, parser, AST, and binder.

Compiles query strings covering the paper's SQL++ dialect (Appendix A) into
the engine's :class:`~repro.query.plan.QuerySpec`, which the optimizer
rewrites and the partitioned executor runs::

    from repro import Dataset, StorageFormat

    tweets = Dataset.create("Tweets", StorageFormat.INFERRED)
    tweets.insert({"id": 1, "user": {"name": "ann"}, "text": "hello"})
    result = tweets.query("SELECT VALUE count(*) FROM Tweets AS t")

or, staying at the compiler level::

    from repro.sqlpp import compile as compile_sqlpp

    compiled = compile_sqlpp('''
        SELECT uname, count(*) AS c
        FROM Tweets AS t
        WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs'
        GROUP BY t.user.name AS uname
        ORDER BY c DESC LIMIT 10
    ''')
    executor.execute(dataset, compiled.spec, compiled.params)

Malformed queries raise :class:`~repro.errors.SqlppError` with the 1-based
line/column (and offending token) of the failure — from the lexer, the
recursive-descent parser, and the binder alike.
"""

from ..errors import SqlppError
from . import ast
from .ast import unparse, unparse_expr
from .binder import Binder, CompiledCreateIndex, CompiledQuery, bind, bind_statement
from .lexer import Lexed, Token, tokenize
from .parser import Parser, parse, parse_expression, parse_statement


def compile(text: str, lexed: "Lexed | None" = None):  # noqa: A001 - mirrors the stdlib name
    """Compile one SQL++ statement: queries yield a :class:`CompiledQuery`,
    ``CREATE INDEX`` yields a :class:`CompiledCreateIndex`.

    ``lexed`` is ``text`` already split into lexemes, so a caller that holds
    it does not pay for the split twice.  Parsing and binding each record a
    span when tracing is on (see :mod:`repro.obs`), so a traced query shows
    its front-end cost past that split."""
    from ..obs import tracer

    with tracer.span("sqlpp.parse"):
        tokens = (lexed or Lexed(text)).tokens()
        statement = Parser(tokens).parse_statement()
    with tracer.span("sqlpp.bind"):
        compiled = bind_statement(statement)
    if isinstance(compiled, CompiledQuery):
        compiled.params = tuple(token.value for token in tokens if token.slot is not None)
    return compiled


__all__ = [
    "SqlppError",
    "Token",
    "Lexed",
    "tokenize",
    "Parser",
    "parse",
    "parse_expression",
    "parse_statement",
    "ast",
    "unparse",
    "unparse_expr",
    "Binder",
    "CompiledQuery",
    "CompiledCreateIndex",
    "bind",
    "bind_statement",
    "compile",
]
