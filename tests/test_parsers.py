"""Every text parser either returns or raises a typed ``FsmError``."""

import pytest
from hypothesis import example, given, settings, strategies as st

from wfst import FsmError, SymbolTable, read_text
from wfst.ngram import read_arpa, read_counts
from wfst.rewrite import parse_rule_file, parse_tree

PARSERS = (read_text, SymbolTable.read, read_counts, parse_rule_file,
           parse_tree, read_arpa)


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__qualname__)
@settings(deadline=None)
@given(text=st.text())
@example(text="a b\tx")                # a count that is not an integer
@example(text="\\1-grams:\nx a")       # an ARPA log-probability likewise
@example(text="\\1-grams:\n400 a")     # 10 ** 400 overflows a float
@example(text="leaf a -> x b")         # a tree leaf weight likewise
def test_parser_raises_only_typed_errors(parse, text):
    try:
        parse(text)
    except FsmError:
        pass
