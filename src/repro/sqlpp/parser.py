"""Recursive-descent parser for the paper's SQL++ dialect.

Grammar (clauses in SQL++ surface order)::

    statement   := query | create_index
    create_index:= CREATE INDEX ident ON ident '(' ident ('.' ident)* ')' [';']
    query       := select from let* unnest* [where] [group] [order] [limit] [';']
    select      := SELECT ( '*' | VALUE expr | item (',' item)* )
    item        := expr [AS ident]
    from        := FROM ident [[AS] ident]
    unnest      := UNNEST expr [AS] ident
    let         := LET ident '=' expr (',' ident '=' expr)*
    where       := WHERE expr
    group       := GROUP BY expr [AS ident] (',' ...)*
    order       := ORDER BY expr [ASC | DESC] (',' ...)*
    limit       := LIMIT integer

    expr        := or ;  or := and (OR and)* ;  and := not (AND not)*
    not         := NOT not | cmp
    cmp         := add [cmpop add] | add IS [NOT] (NULL | MISSING | UNKNOWN)
    add         := mul (('+' | '-') mul)*
    mul         := unary (('*' | '/' | '%') unary)*
    unary       := '-' unary | path
    path        := primary ('.' ident | '[' integer ']' | '[' '*' ']')*
    primary     := literal | ident | ident '(' args ')' | '(' expr ')'
                 | SOME ident IN expr SATISFIES expr | EXISTS unary

Errors are raised as :class:`~repro.errors.SqlppError` carrying the line and
column of the offending token.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlppError
from . import ast
from .lexer import Token, tokenize

_COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")
_IS_KINDS = ("NULL", "MISSING", "UNKNOWN")

#: Maximum recursive-descent depth inside one expression.  Keeps pathological
#: inputs (thousands of nested parens / NOTs) from escaping as a raw Python
#: RecursionError instead of a positioned SqlppError.  Each parenthesis level
#: costs ~9 interpreter frames, so this must stay well under
#: sys.getrecursionlimit()/9; 64 levels of real nesting remain available,
#: far beyond any sane query.
MAX_EXPR_DEPTH = 64


class Parser:
    """Parses one SQL++ statement, from its tokens (``eof`` last), into an
    :class:`repro.sqlpp.ast.Query` or :class:`repro.sqlpp.ast.CreateIndex`."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self._depth = 0

    # ------------------------------------------------------------------ helpers

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        return self.current.matches(kind, text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None, what: Optional[str] = None) -> Token:
        if self._check(kind, text):
            return self._advance()
        expected = what or (text if text is not None else kind)
        return self._fail(f"expected {expected}")

    def _fail(self, message: str) -> "Token":
        token = self.current
        raise SqlppError(message + f", found {token.describe()}",
                         token.line, token.column,
                         token.text if token.kind != "eof" else None)

    @staticmethod
    def _pos(token: Token) -> dict:
        return {"line": token.line, "column": token.column}

    # ------------------------------------------------------------------ statements

    def parse_statement(self) -> ast.Node:
        """Parse one statement: a query, or a CREATE INDEX DDL statement."""
        if self._check("keyword", "CREATE"):
            return self._create_index_statement()
        return self.parse_query()

    def _create_index_statement(self) -> ast.CreateIndex:
        keyword = self._expect("keyword", "CREATE")
        self._expect("keyword", "INDEX")
        name = self._expect("ident", what="an index name after CREATE INDEX").value
        self._expect("keyword", "ON")
        dataset = self._expect("ident", what="a dataset name after ON").value
        self._expect("op", "(")
        steps = [self._field_path_step()]
        while self._accept("op", "."):
            steps.append(self._field_path_step())
        self._expect("op", ")")
        self._accept("op", ";")
        if self.current.kind != "eof":
            self._fail("expected end of statement")
        return ast.CreateIndex(name=name, dataset=dataset, field_path=tuple(steps),
                               **self._pos(keyword))

    def _field_path_step(self) -> str:
        # Field names may collide with keywords, same as after '.' in paths.
        if self.current.kind not in ("ident", "keyword"):
            self._fail("expected a field name in the index field path")
        return self._advance().value

    # ------------------------------------------------------------------ query

    def parse_query(self) -> ast.Query:
        start = self.current
        select = self._select_clause()
        from_clause = self._from_clause()
        lets: List[ast.LetClause] = []
        unnests: List[ast.UnnestClause] = []
        while True:
            if self._check("keyword", "LET"):
                if unnests:
                    # The engine evaluates all LETs before all UNNESTs, so a
                    # LET referencing an unnest alias could never execute;
                    # reject it here with a clear message instead of binding
                    # it to the wrong scope.
                    self._fail("LET clauses must precede UNNEST clauses")
                lets.extend(self._let_clause())
            elif self._check("keyword", "UNNEST"):
                unnests.append(self._unnest_clause())
            else:
                break
        where = None
        if self._accept("keyword", "WHERE"):
            where = self.parse_expression()
        group_by: Tuple[ast.GroupKey, ...] = ()
        if self._check("keyword", "GROUP"):
            group_by = self._group_clause()
        order_by: Tuple[ast.OrderItem, ...] = ()
        if self._check("keyword", "ORDER"):
            order_by = self._order_clause()
        limit = None
        if self._check("keyword", "LIMIT"):
            limit = self._limit_clause()
        self._accept("op", ";")
        if self.current.kind != "eof":
            self._fail("expected end of query")
        return ast.Query(select=select, from_clause=from_clause, lets=tuple(lets),
                         unnests=tuple(unnests), where=where, group_by=group_by,
                         order_by=order_by, limit=limit, **self._pos(start))

    # ------------------------------------------------------------------ clauses

    def _select_clause(self) -> ast.SelectClause:
        keyword = self._expect("keyword", "SELECT")
        pos = self._pos(keyword)
        if self._accept("op", "*"):
            return ast.SelectClause(kind="star", **pos)
        if self._accept("keyword", "VALUE"):
            return ast.SelectClause(kind="value", value=self.parse_expression(), **pos)
        items = [self._select_item()]
        while self._accept("op", ","):
            items.append(self._select_item())
        return ast.SelectClause(kind="items", items=tuple(items), **pos)

    def _select_item(self) -> ast.SelectItem:
        start = self.current
        expr = self.parse_expression()
        alias = None
        if self._accept("keyword", "AS"):
            alias = self._expect("ident", what="an output name after AS").value
        return ast.SelectItem(expr=expr, alias=alias, **self._pos(start))

    def _from_clause(self) -> ast.FromClause:
        keyword = self._expect("keyword", "FROM")
        dataset = self._expect("ident", what="a dataset name after FROM").value
        alias = dataset
        if self._accept("keyword", "AS"):
            alias = self._expect("ident", what="an alias after AS").value
        elif self._check("ident"):
            alias = self._advance().value
        return ast.FromClause(dataset=dataset, alias=alias, **self._pos(keyword))

    def _unnest_clause(self) -> ast.UnnestClause:
        keyword = self._expect("keyword", "UNNEST")
        collection = self.parse_expression()
        if not self._accept("keyword", "AS") and not self._check("ident"):
            self._fail("expected AS <alias> after the UNNEST collection")
        alias = self._expect("ident", what="an item alias").value
        return ast.UnnestClause(collection=collection, alias=alias, **self._pos(keyword))

    def _let_clause(self) -> List[ast.LetClause]:
        keyword = self._expect("keyword", "LET")
        clauses = []
        while True:
            name = self._expect("ident", what="a variable name after LET").value
            self._expect("op", "=")
            clauses.append(ast.LetClause(name=name, expr=self.parse_expression(),
                                         **self._pos(keyword)))
            if not self._accept("op", ","):
                return clauses

    def _group_clause(self) -> Tuple[ast.GroupKey, ...]:
        self._expect("keyword", "GROUP")
        self._expect("keyword", "BY")
        keys = []
        while True:
            start = self.current
            expr = self.parse_expression()
            alias = None
            if self._accept("keyword", "AS"):
                alias = self._expect("ident", what="a key alias after AS").value
            keys.append(ast.GroupKey(expr=expr, alias=alias, **self._pos(start)))
            if not self._accept("op", ","):
                return tuple(keys)

    def _order_clause(self) -> Tuple[ast.OrderItem, ...]:
        self._expect("keyword", "ORDER")
        self._expect("keyword", "BY")
        items = []
        while True:
            start = self.current
            expr = self.parse_expression()
            descending = False
            if self._accept("keyword", "DESC"):
                descending = True
            else:
                self._accept("keyword", "ASC")
            items.append(ast.OrderItem(expr=expr, descending=descending, **self._pos(start)))
            if not self._accept("op", ","):
                return tuple(items)

    def _limit_clause(self) -> ast.NumberLit:
        self._expect("keyword", "LIMIT")
        token = self.current
        if token.kind != "number" or not isinstance(token.value, int) or token.value <= 0:
            self._fail("expected a positive integer after LIMIT")
        self._advance()
        return ast.NumberLit(value=token.value, **self._pos(token))

    # ------------------------------------------------------------------ expressions

    def parse_expression(self) -> ast.Expr:
        return self._or_expr()

    def _descend(self) -> None:
        self._depth += 1
        if self._depth > MAX_EXPR_DEPTH:
            token = self.current
            raise SqlppError("expression nesting too deep", token.line, token.column,
                             token.text if token.kind != "eof" else None)

    def _or_expr(self) -> ast.Expr:
        self._descend()
        try:
            start = self.current
            operands = [self._and_expr()]
            while self._accept("keyword", "OR"):
                operands.append(self._and_expr())
            if len(operands) == 1:
                return operands[0]
            return ast.OrExpr(operands=tuple(operands), **self._pos(start))
        finally:
            self._depth -= 1

    def _and_expr(self) -> ast.Expr:
        start = self.current
        operands = [self._not_expr()]
        while self._accept("keyword", "AND"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.AndExpr(operands=tuple(operands), **self._pos(start))

    def _not_expr(self) -> ast.Expr:
        token = self._accept("keyword", "NOT")
        if token:
            self._descend()
            try:
                return ast.NotExpr(operand=self._not_expr(), **self._pos(token))
            finally:
                self._depth -= 1
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self.current
        if token.kind == "op" and token.text in _COMPARISON_OPS:
            self._advance()
            right = self._additive()
            return ast.BinOp(op=token.text, left=left, right=right, **self._pos(token))
        while self._check("keyword", "IS"):
            is_token = self._advance()
            negated = self._accept("keyword", "NOT") is not None
            kind_token = self.current
            if not (kind_token.kind == "keyword" and kind_token.text in _IS_KINDS):
                self._fail("expected NULL, MISSING, or UNKNOWN after IS")
            self._advance()
            left = ast.IsTest(operand=left, kind=kind_token.text.lower(),
                              negated=negated, **self._pos(is_token))
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._check("op", "+") or self._check("op", "-"):
            token = self._advance()
            left = ast.BinOp(op=token.text, left=left,
                             right=self._multiplicative(), **self._pos(token))
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._check("op", "*") or self._check("op", "/") or self._check("op", "%"):
            token = self._advance()
            left = ast.BinOp(op=token.text, left=left,
                             right=self._unary(), **self._pos(token))
        return left

    def _unary(self) -> ast.Expr:
        token = self._accept("op", "-")
        if token:
            self._descend()
            try:
                return ast.NegExpr(operand=self._unary(), **self._pos(token))
            finally:
                self._depth -= 1
        self._accept("op", "+")
        return self._path_expr()

    def _path_expr(self) -> ast.Expr:
        base = self._primary()
        steps: List[ast.PathStep] = []
        while True:
            if self._accept("op", "."):
                # Field names may collide with keywords (``subject.value``).
                if self.current.kind not in ("ident", "keyword"):
                    self._fail("expected a field name after '.'")
                steps.append(self._advance().value)
            elif self._check("op", "["):
                self._advance()
                if self._accept("op", "*"):
                    steps.append("*")
                else:
                    index = self.current
                    if index.kind != "number" or not isinstance(index.value, int):
                        self._fail("expected an integer index or * inside [ ]")
                    self._advance()
                    steps.append(index.value)
                self._expect("op", "]")
            else:
                break
        if not steps:
            return base
        if isinstance(base, ast.Path):
            return ast.Path(base=base.base, steps=base.steps + tuple(steps),
                            line=base.line, column=base.column)
        return ast.Path(base=base, steps=tuple(steps), line=base.line, column=base.column)

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self._advance()
            return ast.NumberLit(value=token.value, slot=token.slot, **self._pos(token))
        if token.kind == "string":
            self._advance()
            return ast.StringLit(value=token.value, slot=token.slot, **self._pos(token))
        if token.kind == "keyword":
            if token.text in ("TRUE", "FALSE"):
                self._advance()
                return ast.BoolLit(value=token.text == "TRUE", **self._pos(token))
            if token.text == "NULL":
                self._advance()
                return ast.NullLit(**self._pos(token))
            if token.text == "MISSING":
                self._advance()
                return ast.MissingLit(**self._pos(token))
            if token.text == "SOME":
                return self._quantified()
            if token.text == "EXISTS":
                self._advance()
                return ast.ExistsExpr(operand=self._unary(), **self._pos(token))
        if token.kind == "ident":
            self._advance()
            if self._check("op", "("):
                return self._call(token)
            return ast.Ident(name=token.value, **self._pos(token))
        if self._accept("op", "("):
            expr = self.parse_expression()
            self._expect("op", ")")
            return expr
        return self._fail("expected an expression")

    def _call(self, name_token: Token) -> ast.Call:
        self._expect("op", "(")
        if self._accept("op", "*"):
            self._expect("op", ")")
            return ast.Call(name=name_token.value, star=True, **self._pos(name_token))
        if self._accept("op", ")"):
            return ast.Call(name=name_token.value, **self._pos(name_token))
        args = [self.parse_expression()]
        while self._accept("op", ","):
            args.append(self.parse_expression())
        self._expect("op", ")")
        return ast.Call(name=name_token.value, args=tuple(args), **self._pos(name_token))

    def _quantified(self) -> ast.Quantified:
        keyword = self._expect("keyword", "SOME")
        var = self._expect("ident", what="a variable name after SOME").value
        self._expect("keyword", "IN")
        collection = self._path_expr()
        self._expect("keyword", "SATISFIES")
        predicate = self.parse_expression()
        return ast.Quantified(var=var, collection=collection, predicate=predicate,
                              **self._pos(keyword))


def parse(source: str) -> ast.Query:
    """Parse a SQL++ query string into its AST (:class:`repro.sqlpp.ast.Query`)."""
    return Parser(tokenize(source)).parse_query()


def parse_statement(source: str) -> ast.Node:
    """Parse one statement: a :class:`~repro.sqlpp.ast.Query` or a
    :class:`~repro.sqlpp.ast.CreateIndex`."""
    return Parser(tokenize(source)).parse_statement()


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone SQL++ expression (used by tests and the REPL-minded)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    if parser.current.kind != "eof":
        parser._fail("expected end of expression")
    return expr
