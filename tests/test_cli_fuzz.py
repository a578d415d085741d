"""``cli.main`` on drawn input, run in process for every subcommand.

Relation, order and gamma texts mix valid files with drawn lines: pairs,
``node`` lines, comments, label punctuation and U+FEFF. Ring specs
include the refused ``Z/1``, ``M2(Z/1)`` and ``bogus``; expressions come
from the grammar or are raw text. Whatever the input, ``main`` returns a
documented exit code (0, 1, 2 or 3), no exception escapes it, and stderr
never holds a traceback.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from mclain import chain, format_relation, ngon, random_pruned_order  # noqa: E402
from mclain.cli import main  # noqa: E402
from strategies import profile  # noqa: E402

COMMANDS = ["check", "series", "eval", "factor", "quotient", "demo-ngon"]

RINGS = ["Z", "Z/2", "Z/7", "M2(Z/2)", "M2(Z/3)", "Z/1", "M2(Z/1)", "bogus"]
VALID_RELATIONS = [
    format_relation(chain(3)),
    format_relation(chain(4)),
    format_relation(ngon(4)),
    format_relation(random_pruned_order(7, 5, 0.5)),
]
VALID_ORDERS = ["1 2\n2 3\n1 3\n", "1 3\n1 2\n2 3\n", "2 3\n", "1 3\n"]

labels = st.sampled_from(["1", "2", "3", "4", "0", "a", "node", "x*y", "(", "1\ufeff", "é"])
lines = st.one_of(
    st.builds("{} {}".format, labels, labels),
    labels.map("node {}".format),
    st.just("# a comment"),
    st.just(""),
    st.text(max_size=12),
)
drawn_texts = st.builds(
    lambda bom, body: bom + "\n".join(body),
    st.sampled_from(["", "\ufeff"]),
    st.lists(lines, max_size=6),
)
relation_texts = st.one_of(st.sampled_from(VALID_RELATIONS), drawn_texts)
order_texts = st.one_of(st.sampled_from(VALID_ORDERS), drawn_texts)

# Two of three generators name a pair of the chains with a literal of one
# ring kind or the other, so that many expressions evaluate.
chain_pairs = st.sampled_from(["1,2", "2,3", "1,3", "3,4", "2,4"])
generators = st.one_of(
    st.builds("x({};{})".format, chain_pairs, st.integers(-5, 9)),
    st.builds("x({};{})".format, chain_pairs, st.sampled_from(["[1,0;0,1]", "[2,1;0,1]"])),
    st.builds(
        "x({},{};{})".format,
        labels,
        labels,
        st.sampled_from(["0", "−2", "[0,1;1,1]", "[1,2;3]", "q", "[1,0;0,1", ""]),
    ),
)
grammar = st.recursive(
    st.one_of(generators, st.just("1")),
    lambda inner: st.one_of(
        st.builds("{}*{}".format, inner, inner),
        inner.map("inv({})".format),
        st.builds("comm({},{})".format, inner, inner),
        inner.map("({})".format),
    ),
    max_leaves=6,
)
expressions = st.one_of(grammar, grammar, st.text(max_size=20))


@st.composite
def argvs(draw, command, folder):
    """An argument list for the command, its files written into folder."""

    def path(name, texts):
        full = os.path.join(folder, name)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(draw(texts))
        return full

    ring = ["--ring", draw(st.sampled_from(RINGS))]
    if command == "demo-ngon":
        return [command, str(draw(st.integers(3, 7)))] + ring
    relation = path("relation.txt", relation_texts)
    if command == "check":
        return [command, relation]
    if command == "series":
        return [command, relation, draw(st.sampled_from(["--lower", "--upper"]))] + ring
    argv = [command, "--relation", relation] + ring
    if command == "factor" and draw(st.booleans()):
        argv += ["--order", path("order.txt", order_texts)]
    if command == "quotient":
        argv += ["--gamma", path("gamma.txt", order_texts)]
    return argv + [draw(expressions)]


# 30 examples for each of the six commands keeps the total under 200.
@pytest.mark.parametrize("command", COMMANDS)
@profile(30)
@given(data=st.data())
def test_main_exits_with_a_documented_code_and_no_traceback(command, data):
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(argvs(command, folder))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
