"""Prolog surface language: tokenizer, reader (parser) and writer.

The reader implements a full operator-precedence parser over the standard
operator table, which is the front end of the incremental compiler of the
paper's §3.1.  Queries enter the system through :func:`read_term`;
program texts — clauses interleaved with directives — through
:func:`read_sections` (:mod:`repro.lang.program`), the one loop every
loader and every analysis shares.
"""

from .operators import OperatorTable, Op, default_operators
from .tokenizer import Token, tokenize
from .reader import Reader, read_term, read_terms, read_program
from .program import Section, read_sections
from .writer import term_to_text, format_clause

__all__ = [
    "OperatorTable",
    "Op",
    "default_operators",
    "Token",
    "tokenize",
    "Reader",
    "read_term",
    "read_terms",
    "read_program",
    "Section",
    "read_sections",
    "term_to_text",
    "format_clause",
]
