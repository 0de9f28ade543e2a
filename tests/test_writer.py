"""Unit tests for the term writer."""


from repro.lang.reader import read_term
from repro.lang.writer import format_clause, term_to_text
from repro.terms import Atom, Struct, Var, make_list


class TestAtoms:
    def test_plain_atom_unquoted(self):
        assert term_to_text(Atom("foo")) == "foo"

    def test_atom_with_space_quoted(self):
        assert term_to_text(Atom("hello world")) == "'hello world'"

    def test_atom_with_quote_escaped(self):
        assert term_to_text(Atom("it's")) == r"'it\'s'"

    def test_symbolic_atom_unquoted(self):
        assert term_to_text(Atom("+-+")) == "+-+"

    def test_empty_atom_quoted(self):
        assert term_to_text(Atom("")) == "''"

    def test_capitalised_atom_quoted(self):
        assert term_to_text(Atom("Foo")) == "'Foo'"

    def test_quoted_false_disables_quoting(self):
        assert term_to_text(Atom("hello world"), quoted=False) == \
            "hello world"

    def test_solo_atoms_never_quoted(self):
        for name in ("[]", "{}", "!", ";"):
            assert term_to_text(Atom(name)) == name


class TestNumbers:
    def test_int(self):
        assert term_to_text(42) == "42"

    def test_negative(self):
        assert term_to_text(-3) == "-3"

    def test_float_keeps_point(self):
        assert term_to_text(2.0) == "2.0"


class TestOperators:
    def test_infix(self):
        assert term_to_text(read_term("1+2")) == "1+2"

    def test_parens_on_lower_priority_context(self):
        assert term_to_text(read_term("(1+2)*3")) == "(1+2)*3"

    def test_no_needless_parens(self):
        assert term_to_text(read_term("1+2*3")) == "1+2*3"

    def test_word_operator_spaced(self):
        assert term_to_text(read_term("X is 1")) == "_G1 is 1"

    def test_symbol_glue_kept_safe(self):
        # 3 - (-4) must not render as "3--4"
        text = term_to_text(Struct("-", (3, -4)))
        assert term_to_text(read_term(text)) == text

    def test_prefix(self):
        assert term_to_text(read_term("\\+ a")) == "\\+a"


class TestListsAndClauses:
    def test_list(self):
        assert term_to_text(make_list([1, 2])) == "[1,2]"

    def test_partial_list(self):
        assert term_to_text(Struct(".", (1, Var()))) == "[1|_G1]"

    def test_vars_numbered_consistently(self):
        x = Var()
        text = term_to_text(Struct("f", (x, x, Var())))
        assert text == "f(_G1,_G1,_G2)"

    def test_format_clause_appends_dot(self):
        assert format_clause(read_term("a :- b")).endswith(".")

    def test_clause_reparses(self):
        text = format_clause(read_term("p(X) :- q(X), r(X)."))
        again = read_term(text)
        assert again.indicator == (":-", 2)

    def test_reader_operators_do_not_leak_into_the_default_table(self):
        # The writer renders with one shared standard table; a reader's
        # operator declarations live in the reader's own copy.
        from repro.lang.reader import Reader
        term = Struct("likes", (Atom("a"), Atom("b")))
        reader = Reader()
        reader.operators.add(700, "xfx", "likes")
        assert term_to_text(term, reader.operators) == "a likes b"
        assert term_to_text(term) == "likes(a,b)"
        assert Reader().operators.infix("likes") is None
