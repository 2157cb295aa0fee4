"""Lexer and parser tests for the SQL++ front-end.

Covers token positions, the AST shapes of the dialect's constructs, the
canonical unparser, and — most importantly for usability — that malformed
queries raise :class:`SqlppError` with accurate line/column/token info.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlppError
from repro.sqlpp import Lexed, ast, parse, parse_expression, tokenize, unparse

from reference import reference_tokenize


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

class TestLexer:
    def test_token_positions_across_lines(self):
        tokens = tokenize("SELECT *\nFROM Tweets AS t")
        kinds = [(t.kind, t.text, t.line, t.column) for t in tokens]
        assert kinds == [
            ("keyword", "SELECT", 1, 1),
            ("op", "*", 1, 8),
            ("keyword", "FROM", 2, 1),
            ("ident", "Tweets", 2, 6),
            ("keyword", "AS", 2, 13),
            ("ident", "t", 2, 16),
            ("eof", "", 2, 17),
        ]

    def test_keywords_are_case_insensitive_but_keep_spelling(self):
        token = tokenize("select")[0]
        assert token.kind == "keyword" and token.text == "SELECT"
        assert token.value == "select"

    def test_string_escapes(self):
        token = tokenize(r"'it\'s \n \\ fine'")[0]
        assert token.value == "it's \n \\ fine"
        assert tokenize('"double"')[0].value == "double"

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 1e3 10.25e-2 007")[:-1]]
        assert values == [1, 2.5, 1e3, 10.25e-2, 7]
        assert isinstance(values[0], int) and isinstance(values[1], float)

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT -- line comment\n/* block\ncomment */ *")
        assert [t.text for t in tokens] == ["SELECT", "*", ""]

    def test_unexpected_character_position(self):
        with pytest.raises(SqlppError) as excinfo:
            tokenize("SELECT @")
        assert (excinfo.value.line, excinfo.value.column) == (1, 8)
        assert excinfo.value.token == "@"

    def test_unterminated_string_points_at_opening_quote(self):
        with pytest.raises(SqlppError) as excinfo:
            tokenize("WHERE t.x = 'oops")
        assert (excinfo.value.line, excinfo.value.column) == (1, 13)

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlppError) as excinfo:
            tokenize("SELECT /* never closed")
        assert (excinfo.value.line, excinfo.value.column) == (1, 8)

    @pytest.mark.parametrize("text, column", [("SELECT VALUE ²", 14), ("1²", 2), ("½", 1)])
    def test_a_digit_that_is_not_decimal_is_an_unexpected_character(self, text, column):
        # '²'.isdigit() is true, but int() cannot read it: numbers are made
        # of decimal digits only, and a word starts with a letter or '_'.
        with pytest.raises(SqlppError) as excinfo:
            tokenize(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)
        assert str(excinfo.value).endswith(f"unexpected character {text[-1]!r} (at {text[-1]!r})")

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert [t.value for t in tokenize("٣ ٣.٥ x²")[:-1]] == [3, 3.5, "x²"]

    def test_an_unterminated_comment_or_string_is_one_lexeme_to_the_end(self):
        # So a text with many of them is split in one pass, not one per opener.
        assert Lexed("a /* b 'c").lexemes == ("a", "/* b 'c")
        assert Lexed("a 'b /* c").lexemes == ("a", "'b /* c")
        assert len(Lexed("'" * 20001).lexemes) == 10001


#: Pieces of random texts: what lexing gets wrong at — quotes, escapes,
#: comment markers, newlines, number parts, non-ASCII letters and digits.
_PIECES = ["'", '"', "\\", "\\'", "--", "/*", "*/", "*", "/", "\n", "\r", "\t", " ",
           "0", "7", "e", "E", ".", "+", "-", "é", "ß", "Ω", "ı", "n", "in", "t", "_x",
           "٣", "²", "½", "<", ">", "=", "!", "@", "(", ",", "\0"]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)


def _outcome(tokenize_text, text):
    try:
        return [(t.kind, t.text, type(t.value), t.value, t.line, t.column)
                for t in tokenize_text(text)]
    except SqlppError as error:
        return (str(error), error.line, error.column, error.token)


class TestLexerParity:
    """The one-regex lexer against the character-at-a-time one it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(text=_TEXTS)
    @example(text="'\n' x\n 'a\r\n\tb' \"\n\" y")  # positions after multi-line literals
    @example(text="/* a\n */ 'b\n\\q'")  # an escape error on a literal's second line
    def test_same_tokens_or_same_error_as_the_reference(self, text):
        try:
            expected = _outcome(reference_tokenize, text)
        except ValueError:
            # The one deliberate difference: the reference reads a digit that
            # is not decimal as part of a number, and int() refuses it.
            assert "²" in text
            _outcome(tokenize, text)  # tokens or a positioned SqlppError
            return
        assert _outcome(tokenize, text) == expected

    @settings(max_examples=400, deadline=None)
    @given(text=_TEXTS)
    @example(text="'a' 7 /* 'x\\q' */ \"\\q\"")  # the first bad escape after good literals
    def test_params_are_the_literals_or_the_lexer_s_error(self, text):
        """A text that lexes has the values of its number and string tokens,
        by slot, as parameters.  A text that does not keeps a lexeme no valid
        text has in its shape, or its parameters raise the lexer's error: it
        can never run the plan of a text that lexes."""
        lexed = Lexed(text)
        expected = _outcome(tokenize, text)
        if isinstance(expected, list):
            literals = [token for token in tokenize(text) if token.slot is not None]
            assert [token.slot for token in literals] == list(range(len(literals)))
            assert lexed.params() == tuple(token.value for token in literals)
            return
        kept = [lexeme for lexeme, kept in zip(lexed.lexemes, lexed.shape) if lexeme == kept]
        if all(isinstance(_outcome(tokenize, lexeme), list) for lexeme in kept):
            with pytest.raises(SqlppError) as raised:
                lexed.params()
            error = raised.value
            assert (str(error), error.line, error.column, error.token) == expected

    @settings(max_examples=200, deadline=None)
    @given(text=_TEXTS, separators=st.lists(
        st.sampled_from([" ", "\n", "\t ", " /* * */ ", " -- c\n", "\r\n  "]), min_size=1))
    def test_lexemes_are_the_token_stream(self, text, separators):
        """Re-spacing the lexemes of a text that lexes keeps them, and the
        tokens with them: equal plan-cache keys, equal statements."""
        expected = _outcome(tokenize, text)
        assume(isinstance(expected, list))
        lexemes = Lexed(text).lexemes
        respaced = "".join(lexeme + separators[i % len(separators)]
                           for i, lexeme in enumerate(lexemes))
        assert Lexed(respaced).lexemes == lexemes
        assert [token[:4] for token in _outcome(tokenize, respaced)] == \
            [token[:4] for token in expected]


# ---------------------------------------------------------------------------
# parser: shapes
# ---------------------------------------------------------------------------

class TestParserShapes:
    def test_minimal_query(self):
        query = parse("SELECT * FROM Tweets AS t")
        assert query.select.kind == "star"
        assert query.from_clause == ast.FromClause(dataset="Tweets", alias="t")
        assert query.where is None and query.limit is None

    def test_from_alias_defaults_and_bare_alias(self):
        assert parse("SELECT * FROM Tweets").from_clause.alias == "Tweets"
        assert parse("SELECT * FROM Tweets t").from_clause.alias == "t"

    def test_select_value_count_star(self):
        query = parse("SELECT VALUE count(*) FROM T AS t")
        assert query.select.kind == "value"
        assert query.select.value == ast.Call(name="count", star=True)

    def test_select_items_with_aliases(self):
        query = parse("SELECT t.user.name AS uname, length(t.text) FROM T AS t")
        first, second = query.select.items
        assert first.alias == "uname"
        assert first.expr == ast.Path(base=ast.Ident(name="t"), steps=("user", "name"))
        assert second.alias is None
        assert second.expr == ast.Call(
            name="length", args=(ast.Path(base=ast.Ident(name="t"), steps=("text",)),))

    def test_nested_paths_indexes_and_wildcards(self):
        expr = parse_expression("t.coordinates.coordinates[0]")
        assert expr == ast.Path(base=ast.Ident(name="t"),
                                steps=("coordinates", "coordinates", 0))
        expr = parse_expression("t.addresses[*].address_spec.country")
        assert expr == ast.Path(base=ast.Ident(name="t"),
                                steps=("addresses", "*", "address_spec", "country"))

    def test_keyword_field_names_are_allowed_after_dot(self):
        expr = parse_expression("subject.value")
        assert expr == ast.Path(base=ast.Ident(name="subject"), steps=("value",))

    def test_operator_precedence(self):
        expr = parse_expression("a.x + 2 * 3 < 10 AND NOT b.y = 4 OR c.z")
        # OR at the top
        assert isinstance(expr, ast.OrExpr)
        left, right = expr.operands
        assert isinstance(left, ast.AndExpr)
        assert right == ast.Path(base=ast.Ident(name="c"), steps=("z",))
        comparison, negation = left.operands
        assert isinstance(comparison, ast.BinOp) and comparison.op == "<"
        assert isinstance(comparison.left, ast.BinOp) and comparison.left.op == "+"
        assert comparison.left.right == ast.BinOp(op="*", left=ast.NumberLit(value=2),
                                                  right=ast.NumberLit(value=3))
        assert isinstance(negation, ast.NotExpr)

    def test_and_chains_flatten(self):
        expr = parse_expression("a AND b AND c AND d")
        assert isinstance(expr, ast.AndExpr) and len(expr.operands) == 4

    def test_quantified_expression(self):
        expr = parse_expression(
            "SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs'")
        assert isinstance(expr, ast.Quantified)
        assert expr.var == "ht"
        assert expr.collection == ast.Path(base=ast.Ident(name="t"),
                                           steps=("entities", "hashtags"))
        assert isinstance(expr.predicate, ast.BinOp)

    def test_exists_and_is_tests(self):
        assert parse_expression("EXISTS t.entities.urls") == ast.ExistsExpr(
            operand=ast.Path(base=ast.Ident(name="t"), steps=("entities", "urls")))
        assert parse_expression("t.x IS MISSING") == ast.IsTest(
            operand=ast.Path(base=ast.Ident(name="t"), steps=("x",)), kind="missing")
        assert parse_expression("t.x IS NOT UNKNOWN") == ast.IsTest(
            operand=ast.Path(base=ast.Ident(name="t"), steps=("x",)),
            kind="unknown", negated=True)

    def test_literals(self):
        assert parse_expression("TRUE") == ast.BoolLit(value=True)
        assert parse_expression("NULL") == ast.NullLit()
        assert parse_expression("MISSING") == ast.MissingLit()
        assert parse_expression("-5") == ast.NegExpr(operand=ast.NumberLit(value=5))

    def test_full_clause_roster(self):
        query = parse("""
            SELECT sid, avg(r.temp) AS avg_temp
            FROM Sensors AS s
            LET threshold = 10 + 5
            UNNEST s.readings AS r
            WHERE s.report_time > 100 AND r.temp IS NOT UNKNOWN
            GROUP BY s.sensor_id AS sid
            ORDER BY avg_temp DESC, sid ASC
            LIMIT 10;
        """)
        assert [let.name for let in query.lets] == ["threshold"]
        assert [unnest.alias for unnest in query.unnests] == ["r"]
        assert query.group_by[0].alias == "sid"
        assert [item.descending for item in query.order_by] == [True, False]
        assert query.limit == ast.NumberLit(value=10)

    def test_unparse_round_trip_on_realistic_queries(self):
        from repro.datasets import sensors, twitter, wos

        for sqlpp in (*twitter.SQLPP.values(), *wos.SQLPP.values(),
                      *sensors.SQLPP.values()):
            tree = parse(sqlpp)
            assert parse(unparse(tree)) == tree


# ---------------------------------------------------------------------------
# parser: error positions
# ---------------------------------------------------------------------------

class TestParserErrors:
    @pytest.mark.parametrize("text,line,column", [
        ("SELECT", 1, 7),                                  # missing FROM
        ("SELECT FROM T", 1, 8),                           # missing select list
        ("SELECT * FROM", 1, 14),                          # missing dataset name
        ("SELECT * FROM T AS", 1, 19),                     # missing alias
        ("SELECT * FROM T WHERE", 1, 22),                  # missing predicate
        ("SELECT * FROM T AS t\nWHERE t.x ==", 2, 12),     # '==' is not an operator
        ("SELECT * FROM T AS t WHERE (t.x = 1", 1, 36),    # unclosed paren
        ("SELECT * FROM T AS t LIMIT 0", 1, 28),           # LIMIT must be positive
        ("SELECT * FROM T AS t LIMIT -3", 1, 28),          # negative LIMIT
        ("SELECT * FROM T AS t trailing", 1, 22),          # garbage after query
        ("SELECT * FROM T AS t WHERE t.", 1, 30),          # dangling dot
        ("SELECT * FROM T AS t WHERE t.x IS BROKEN", 1, 35),
        ("SELECT * FROM T AS t WHERE t.a[x]", 1, 32),      # non-integer index
    ])
    def test_error_positions(self, text, line, column):
        with pytest.raises(SqlppError) as excinfo:
            parse(text)
        error = excinfo.value
        assert (error.line, error.column) == (line, column), str(error)

    def test_let_after_unnest_is_rejected_with_clear_message(self):
        # The engine evaluates LETs before UNNESTs, so a LET referencing the
        # unnest alias could never execute; the parser says so up front.
        with pytest.raises(SqlppError, match="LET clauses must precede UNNEST") as excinfo:
            parse("SELECT VALUE m FROM Sensors AS s UNNEST s.readings AS r LET m = r.temp")
        assert (excinfo.value.line, excinfo.value.column) == (1, 57)

    @pytest.mark.parametrize("pathological", [
        "(" * 5000 + "1" + ")" * 5000,
        "NOT " * 5000 + "TRUE",
        "- " * 5000 + "1",
    ])
    def test_pathological_nesting_raises_sqlpp_error_not_recursion(self, pathological):
        with pytest.raises(SqlppError, match="nesting too deep"):
            parse(f"SELECT * FROM T AS t WHERE {pathological} = 1")

    def test_reasonable_nesting_still_parses(self):
        depth = 40
        parse("SELECT * FROM T AS t WHERE " + "(" * depth + "1" + ")" * depth + " = 1")

    def test_error_message_mentions_found_token(self):
        with pytest.raises(SqlppError, match="found 'LIMIT'"):
            parse("SELECT * FROM T AS t WHERE LIMIT 3")

    def test_errors_are_query_errors(self):
        from repro.errors import QueryError, ReproError

        with pytest.raises(QueryError):
            parse("not sql")
        assert issubclass(SqlppError, ReproError)
