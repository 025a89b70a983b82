"""Core graph type, formats, and combining operations."""

import logging
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minorbench import (Graph, GraphError, ParseError, connected_components,
                        contract_edge, core_region, delete_edges, edge,
                        parse_graph, parse_graph6, relabeled_union,
                        serialize)
from helpers import (complete, cycle_graph, labelled_adjacency, path_graph,
                     random_graph, seeded_host)

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def small_graphs():
    return st.integers(min_value=0, max_value=2**20).map(
        lambda seed: random_graph(random.Random(seed), 5, 0.45))


@st.composite
def labelled_graphs(draw):
    """Graphs on printable labels without whitespace, often holding '#',
    '"', '\\' or '&', with provenance tags prefix:label half the time;
    a tag may list two such tags, as a merged vertex's does."""
    chars = st.one_of(st.sampled_from('#"\\&'),
                      st.characters(min_codepoint=33, max_codepoint=126))
    labels = draw(st.lists(st.text(chars, min_size=1, max_size=4),
                           min_size=1, max_size=6, unique=True))
    pairs = list(combinations(sorted(labels), 2))
    es = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    prov = None
    if draw(st.booleans()):
        prefixes = st.lists(st.sampled_from(["core", "copy0", "branch"]),
                            min_size=1, max_size=2, unique=True)
        prov = {v: " ".join(f"{p}:{v}" for p in draw(prefixes))
                for v in labels}
    return Graph.build(labels, es, prov)


def dot_strings(line: str) -> list[str]:
    """The quoted strings of one DOT line, read with DOT's one escape:
    a backslash before a quote makes it part of the string.  A string
    that never closes raises IndexError."""
    out, i = [], line.find('"')
    while i >= 0:
        chars, i = [], i + 1
        while line[i] != '"':
            if line.startswith('\\"', i):
                i += 1
            chars.append(line[i])
            i += 1
        out.append("".join(chars))
        i = line.find('"', i + 1)
    return out


class TestEdge:
    def test_normalizes_order(self):
        assert edge("b", "a") == ("a", "b")

    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            edge("a", "a")


class TestGraph:
    def test_build_adds_endpoints(self):
        g = Graph.build(["a"], [("b", "c")])
        assert g.vertices == {"a", "b", "c"}

    def test_rejects_whitespace_label(self):
        with pytest.raises(GraphError):
            Graph.build(["a b"], [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="^self-loop at 'a'$"):
            Graph(frozenset("ab"), frozenset([("a", "a")]))

    def test_label_check_matches_isspace(self):
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        assert len(spaces) == 29
        for c in spaces:
            for label in (c + "ab", "a" + c + "b", "ab" + c, c):
                with pytest.raises(GraphError):
                    Graph(frozenset([label]), frozenset())
        with pytest.raises(GraphError):
            Graph(frozenset([""]), frozenset())
        # separators str.isspace does not accept stay legal
        for label in ("a\u200bb", "a\u180eb", "a\ufeffb", "a_b"):
            assert Graph(frozenset([label]), frozenset()).vertices == {label}

    def test_rejects_unnormalized_edge(self):
        with pytest.raises(GraphError):
            Graph(frozenset("ab"), frozenset([("b", "a")]))

    def test_rejects_edge_outside_vertices(self):
        with pytest.raises(GraphError):
            Graph(frozenset("a"), frozenset([("a", "b")]))

    def test_provenance_must_cover_vertices(self):
        with pytest.raises(GraphError):
            Graph(frozenset("ab"), frozenset(), {"a": "t"})

    def test_provenance_does_not_affect_equality(self):
        a = Graph(frozenset("ab"), frozenset([("a", "b")]), {"a": "x", "b": "y"})
        b = Graph(frozenset("ab"), frozenset([("a", "b")]))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("name", ["vertices", "edges", "provenance"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        g = Graph(frozenset("ab"), frozenset([("a", "b")]), {"a": "x", "b": "y"})
        before = getattr(g, name)
        with pytest.raises(AttributeError):
            setattr(g, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert getattr(g, name) is before

    # a graph's roles are its own: the caller's dict and the graph's own
    # mapping cannot change them after construction
    MAKERS = {
        "init": lambda p: Graph(frozenset("ab"), frozenset([("a", "b")]), p),
        "build": lambda p: Graph.build("ab", [("a", "b")], p)}

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_editing_the_callers_roles_leaves_the_graph(self, make):
        p = {"a": "core:a", "b": "copy0:b"}
        g = make(p)
        p["b"] = "core:b"
        assert core_region(g) == {"a"}
        assert serialize(g, "dot").count("core:") == 1

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_adding_a_callers_role_leaves_the_graph(self, make):
        p = {"a": "core:a", "b": "copy0:b"}
        g = make(p)
        p["c"] = "x"
        assert "c" not in g.provenance and g.provenance.keys() == g.vertices

    @pytest.mark.parametrize("make", [
        lambda g: g, lambda g: delete_edges(g, [("a", "b")])],
        ids=["graph", "delete_edges"])
    def test_roles_cannot_be_edited_through_the_graph(self, make):
        g = make(Graph(frozenset("ab"), frozenset([("a", "b")]),
                       {"a": "core:a", "b": "copy0:b"}))
        with pytest.raises(TypeError):
            g.provenance["b"] = "core:b"
        with pytest.raises(TypeError):
            del g.provenance["b"]
        assert core_region(g) == {"a"}

    def test_index_is_built_once_and_kept_out_of_equality(self):
        g = path_graph("abc")
        with pytest.raises(AttributeError):
            g.index = None
        ix = g.index
        assert g.index is ix and g.__dict__["index"] is ix
        with pytest.raises(AttributeError):
            del g.index
        assert g == path_graph("abc") and hash(g) == hash(path_graph("abc"))
        assert g.index is ix

    def test_degree_and_neighbors(self):
        g = path_graph("abc")
        assert g.degree("b") == 2
        assert g.neighbors("a") == {"b"}
        with pytest.raises(GraphError):
            g.degree("z")

    def test_induced_restricts_edges(self):
        g = complete("abcd")
        sub = g.induced("abc")
        assert sub == complete("abc")
        with pytest.raises(GraphError):
            g.induced(["nope"])

    def test_edge_subgraph(self):
        g = complete("abcd")
        sub = g.edge_subgraph([("a", "b")])
        assert sub.vertices == {"a", "b"}
        with pytest.raises(GraphError):
            g.edge_subgraph([("a", "z")])

    def test_is_connected(self):
        assert path_graph("abcd").is_connected()
        assert not Graph.build("ab", []).is_connected()
        assert Graph.build("a", []).is_connected()


def scan_neighbors(g: Graph, v: str) -> set[str]:
    """Neighbours of v by a scan over every edge."""
    return {w for e in g.edges if v in e for w in e if w != v}


INDEX_FIELDS = ("verts", "vidx", "nbr", "ends", "edges", "inc")
LAZY_FIELDS = ("ends", "edges", "inc")


def labelled_components(g: Graph) -> list[set[str]]:
    """Vertex sets of g's components, smallest label first, by a
    breadth-first search over labelled_adjacency."""
    adj = labelled_adjacency(g)
    unseen = set(g.vertices)
    out = []
    while unseen:
        front = seen = {min(unseen)}
        while front:
            front = {w for v in front for w in adj[v]} - seen
            seen = seen | front
        unseen -= seen
        out.append(seen)
    return out


def check_index(g: Graph):
    """g.index numbers g's vertices and edges in sorted order, holds its
    adjacency and incidence, and equals a fresh build."""
    ix = g.index
    fresh = Graph(g.vertices, g.edges).index
    assert all(getattr(ix, f) == getattr(fresh, f) for f in INDEX_FIELDS)
    assert list(ix.verts) == g.sorted_vertices()
    assert list(ix.edges) == g.sorted_edges()
    assert all(ix.vidx[v] == i for i, v in enumerate(ix.verts))
    for k, (a, b) in enumerate(ix.ends):
        assert a < b and (ix.verts[a], ix.verts[b]) == ix.edges[k]
    for i, v in enumerate(ix.verts):
        assert {w for j, w in enumerate(ix.verts)
                if ix.nbr[i] >> j & 1} == g.neighbors(v)
        assert {e for k, e in enumerate(ix.edges)
                if ix.inc[i] >> k & 1} == {e for e in g.edges if v in e}


class TestAdjacency:
    @PROPERTY
    @given(small_graphs())
    def test_matches_edge_scan(self, g):
        for v in g.vertices:
            assert g.neighbors(v) == scan_neighbors(g, v)
            assert g.degree(v) == sum(1 for e in g.edges if v in e)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            path_graph("abc").neighbors("z")
        with pytest.raises(GraphError):
            path_graph("abc").degree("z")

    def test_neighbour_sets_are_frozen(self):
        g = path_graph("abc")
        assert all(type(g.neighbors(v)) is frozenset for v in g.vertices)
        with pytest.raises(AttributeError):
            g.neighbors("b").add("z")
        assert g.neighbors("b") == {"a", "c"}

    def test_built_once_per_graph(self):
        g = cycle_graph("abcd")
        assert g.index is g.index

    def test_cache_is_not_part_of_equality(self):
        g = complete("abc")
        g.index.inc
        assert g == complete("abc") and hash(g) == hash(complete("abc"))

    def test_pickle_round_trip(self):
        g = Graph(frozenset("abc"), frozenset([("a", "b"), ("b", "c")]),
                  {"a": "x", "b": "y", "c": "z"})
        fresh = pickle.loads(pickle.dumps(g))
        assert fresh == g and "index" not in fresh.__dict__
        g.index.edges, g.index.inc
        cached = pickle.loads(pickle.dumps(g))
        assert cached == g and cached.provenance == g.provenance
        assert all(f in cached.index.__dict__ for f in LAZY_FIELDS)
        check_index(cached)
        assert cached.neighbors("b") == g.neighbors("b")


class TestContractEdge:
    def test_merges_neighbourhoods(self):
        g = Graph.build([], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d")])
        out = contract_edge(g, ("b", "a"))
        assert out.vertices == {"a", "c", "d"}
        assert out.edges == {("a", "c"), ("a", "d")}
        assert out.neighbors("a") == {"c", "d"}

    def test_absent_edge_rejected(self):
        with pytest.raises(GraphError):
            contract_edge(path_graph("abc"), ("a", "c"))

    @PROPERTY
    @given(small_graphs())
    def test_matches_relabeling(self, g):
        for u, v in g.sorted_edges():
            out = contract_edge(g, (v, u))
            merge = {v: u}
            expect = {edge(merge.get(a, a), merge.get(b, b))
                      for a, b in g.edges if (a, b) != (u, v)}
            assert out.vertices == g.vertices - {v}
            assert out.edges == expect


class TestParse:
    def test_round_trip_fixed(self):
        g = cycle_graph("abcd")
        assert parse_graph(serialize(g)) == g

    @PROPERTY
    @given(small_graphs())
    def test_round_trip_random(self, g):
        assert parse_graph(serialize(g)) == g

    @PROPERTY
    @given(small_graphs())
    def test_parsed_graph_is_the_checked_graph(self, g):
        # the parsers build without Graph's second pass of checks: the
        # result is what Graph(...) gives from the same sets
        for got in (parse_graph(serialize(g)), parse_graph6("Dhc")):
            want = Graph(frozenset(got.vertices), frozenset(got.edges))
            assert got == want and repr(got) == repr(want)
            assert type(got) is Graph and got.provenance is None
            assert got.index.nbr == want.index.nbr

    def test_comment_lines_and_blanks_ignored(self):
        g = parse_graph("# note\n\n2 1\na\nb\n\na b\n")
        assert g == Graph.build("ab", [("a", "b")])

    def test_hash_inside_label_is_not_a_comment(self):
        g = parse_graph("2 1\na#0\nb#1\na#0 b#1\n")
        assert g.vertices == {"a#0", "b#1"}

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 1\na\na\na b\n")

    @pytest.mark.parametrize("text, line, message", [
        ("2 1\na\n", 1, "expected 2 vertex lines and 1 edge lines, got 1"),
        ("# note\n2 0\na b\nc\n", 3,
         "expected a single vertex label, got 'a b'"),
    ])
    def test_error_message_and_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_trailing_line_is_named(self):
        with pytest.raises(ParseError, match="line 4: unexpected line"):
            parse_graph("1 0\na\n\nb\n")

    @pytest.mark.parametrize("text", [
        "",
        "x y\n",
        "1 0\na\nb\n",
        "2 1\na\nb\na a\n",
        "2 1\na\nb\na c\n",
        "2 2\na\nb\na b\na b\n",
        "2 1\na\nb\na b extra\n",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)

    def test_serialize_dot_includes_roles(self):
        g = Graph(frozenset("ab"), frozenset([("a", "b")]),
                  {"a": "branch:a", "b": "path:x"})
        dot = serialize(g, "dot")
        assert 'role="branch:a"' in dot and '"a" -- "b";' in dot

    def test_serialize_dot_without_provenance(self):
        assert serialize(path_graph("ab"), "dot") == (
            'graph {\n  "a";\n  "b";\n  "a" -- "b";\n}\n')

    def test_serialize_dot_escapes_quotes(self):
        g = Graph.build([], [('a"b', "c")])
        assert serialize(g, "dot") == (
            'graph {\n  "a\\"b";\n  "c";\n  "a\\"b" -- "c";\n}\n')

    def test_serialize_dot_rejects_trailing_backslash(self):
        g = Graph.build([], [("d\\", "e")])
        with pytest.raises(GraphError, match=r"'d\\\\'"):
            serialize(g, "dot")
        assert serialize(g) == "2 1\nd\\\ne\nd\\ e\n"

    def test_serialize_dot_quotes_roles(self):
        g = Graph(frozenset("ab"), frozenset([("a", "b")]),
                  {"a": 'branch:x"y', "b": "copy0:b copy1:b"})
        dot = serialize(g, "dot")
        assert '"a" [role="branch:x\\"y"];' in dot
        assert '"b" [role="copy0:b copy1:b"];' in dot
        g = Graph(g.vertices, g.edges, {"a": "copy0:d\\", "b": "core:b"})
        with pytest.raises(GraphError, match=r"role 'copy0:d\\\\'"):
            serialize(g, "dot")

    def test_serialize_rejects_comment_label(self):
        g = Graph.build([], [("#a", "b"), ("b", "c")])
        with pytest.raises(GraphError, match="'#a' starts with '#'"):
            serialize(g)
        assert '"#a" -- "b";' in serialize(g, "dot")

    @PROPERTY
    @given(labelled_graphs())
    def test_writers_round_trip(self, g):
        try:
            text = serialize(g)
        except GraphError:
            assert any(v[0] == "#" for v in g.vertices)
        else:
            assert parse_graph(text) == g
        roles = g.provenance or {}
        try:
            dot = serialize(g, "dot")
        except GraphError:
            assert any(s[-1] == "\\" for s in [*g.vertices, *roles.values()])
            return
        written = [[v, roles[v]] if roles else [v] for v in g.sorted_vertices()]
        written += [list(e) for e in g.sorted_edges()]
        assert [dot_strings(ln) for ln in dot.splitlines()[1:-1]] == written

    def test_serialize_unknown_format(self):
        with pytest.raises(GraphError):
            serialize(complete("ab"), "png")


class TestGraph6:
    def test_k4(self):
        g = parse_graph6("C~")
        assert g == complete(["0", "1", "2", "3"])

    def test_c5(self):
        g = parse_graph6("Dhc")
        assert g == cycle_graph(["0", "1", "2", "3", "4"])

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<C~") == complete(["0", "1", "2", "3"])

    def test_empty_graph(self):
        g = parse_graph6("?")
        assert g.vertices == frozenset() and g.edges == frozenset()

    def test_truncated_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("D")

    def test_bytes_past_the_adjacency_rejected(self):
        # a triangle takes one data byte and a single vertex none
        assert parse_graph6("Bw") == complete(["0", "1", "2"])
        for text in ("BwXYZ", "Bw?", "@?"):
            with pytest.raises(ParseError, match="past"):
                parse_graph6(text)

    def test_long_size_header(self):
        # n >= 63 takes a 126 byte and three 6-bit size bytes; this is
        # the path 0-1-...-63
        n = 64
        bits = [int(i + 1 == j) for j in range(1, n) for i in range(j)]
        bits += [0] * (-len(bits) % 6)
        body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                       for k in range(0, len(bits), 6))
        text = "~" + chr(63) + chr(63 + 1) + chr(63) + body
        assert parse_graph6(text) == path_graph([str(i) for i in range(n)])
        for cut in (text[:3], text[:-1]):
            with pytest.raises(ParseError, match="truncated"):
                parse_graph6(cut)

    def test_byte_out_of_range(self):
        for text in ("C!", "C\x7f"):
            with pytest.raises(ParseError, match="^graph6 byte out of range$"):
                parse_graph6(text)

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 input"), (" >>graph6<<\n", "empty graph6 input"),
        # "\x1c" is whitespace to str.strip: "C\x1c" is a truncated "C"
        ("C\x1c", "truncated graph6 bit data"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph6(text)
        assert exc.value.line is None and str(exc.value) == message

    @pytest.mark.parametrize("text", ["Bw\nBw\n", "B w", "C~\tC~",
                                      ">>graph6<< Bw"])
    def test_more_than_one_token_rejected(self, text):
        with pytest.raises(ParseError, match="one line without whitespace"):
            parse_graph6(text)


class TestOperations:
    def test_delete_edges(self):
        g = complete("abc")
        out = delete_edges(g, [("b", "a")])
        assert out.vertices == g.vertices
        assert out.edges == {("a", "c"), ("b", "c")}

    @pytest.mark.parametrize("seed", range(12))
    def test_index_matches_a_fresh_build(self, seed):
        rng = random.Random(seed)
        host = seeded_host(rng)
        assert host.index is host.index
        check_index(host)
        edges = host.sorted_edges()
        for _ in range(10):
            out = delete_edges(host, rng.sample(edges, rng.randint(1, 6)))
            assert "index" not in out.__dict__
            check_index(out)
            assert len(out.index.edges) < len(host.index.edges)
        check_index(host)

    def test_delete_edges_numbers_its_own_edges(self):
        g = complete("abc")
        g.index
        out = delete_edges(g, [("a", "b")])
        assert "index" not in out.__dict__
        assert out.index.edges == (("a", "c"), ("b", "c"))
        assert out.index.ends == ((0, 2), (1, 2))
        assert out.index.nbr == (0b100, 0b100, 0b011)
        assert out.index.inc == (0b01, 0b10, 0b11)
        assert out.neighbors("a") == {"c"}

    def test_delete_absent_edge_rejected(self):
        with pytest.raises(GraphError):
            delete_edges(path_graph("abc"), [("a", "c")])

    def test_union_relabels_apart(self):
        g = Graph.build("ab", [("a", "b")])
        out = relabeled_union([g, g])
        assert out.vertices == {"a#0", "b#0", "a#1", "b#1"}
        assert len(out.edges) == 2

    def test_union_identifies_to_min_label(self):
        g = Graph.build("ab", [("a", "b")])
        out = relabeled_union(
            [g, g], [frozenset({"b#0", "b#1"})])
        assert "b#0" in out.vertices and "b#1" not in out.vertices
        assert out.degree("b#0") == 2

    def test_union_needs_a_part(self):
        with pytest.raises(GraphError, match="^need at least one part$"):
            relabeled_union([])

    def test_union_rejects_one_member_group(self):
        g = Graph.build("ab", [("a", "b")])
        with pytest.raises(GraphError, match="^identification group needs "
                                             "at least two vertices$"):
            relabeled_union([g], [frozenset({"a#0"})])

    def test_union_tags_a_part_without_provenance(self):
        # beside a part with roles, a part without them is tagged part{i}
        g1 = Graph(frozenset("a"), frozenset(), {"a": "core:a"})
        g2 = Graph.build("bc", [("b", "c")])
        out = relabeled_union([g1, g2])
        assert dict(out.provenance) == {"a#0": "core:a", "b#1": "part1",
                                        "c#1": "part1"}
        assert relabeled_union([g2, g2]).provenance is None

    def test_union_rejects_unknown_member(self):
        g = Graph.build("ab", [("a", "b")])
        with pytest.raises(GraphError):
            relabeled_union([g], [frozenset({"a#0", "z#9"})])

    def test_union_rejects_overlapping_groups(self):
        g = Graph.build("abc", [("a", "b"), ("b", "c")])
        with pytest.raises(GraphError):
            relabeled_union(
                [g, g],
                [frozenset({"a#0", "a#1"}), frozenset({"a#0", "b#1"})])

    def test_union_rejects_collapsing_edge_to_loop(self):
        g = Graph.build("ab", [("a", "b")])
        with pytest.raises(GraphError):
            relabeled_union(
                [g], [frozenset({"a#0", "b#0"})])

    def test_union_warns_on_parallel_collapse(self, caplog):
        g = Graph.build("ab", [("a", "b")])
        with caplog.at_level(logging.WARNING, logger="minorbench"):
            out = relabeled_union(
                [g, g],
                [frozenset({"a#0", "a#1"}), frozenset({"b#0", "b#1"})])
        assert len(out.edges) == 1
        assert any("parallel" in r.getMessage() for r in caplog.records)

    def test_union_merges_provenance_tags(self):
        g1 = Graph(frozenset("a"), frozenset(), {"a": "core:a"})
        g2 = Graph(frozenset("a"), frozenset(), {"a": "copy0:a"})
        out = relabeled_union(
            [g1, g2], [frozenset({"a#0", "a#1"})])
        (v,) = out.vertices
        assert out.provenance[v] == "copy0:a core:a"

    @PROPERTY
    @given(small_graphs(), small_graphs())
    def test_union_counts(self, g1, g2):
        out = relabeled_union([g1, g2])
        assert len(out.vertices) == len(g1.vertices) + len(g2.vertices)
        assert len(out.edges) == len(g1.edges) + len(g2.edges)


class TestComponents:
    def test_splits_and_sorts(self):
        g = Graph.build("abcxy", [("a", "b"), ("b", "c"), ("x", "y")])
        comps = connected_components(g)
        assert [sorted(c.vertices) for c in comps] == [["a", "b", "c"], ["x", "y"]]

    def test_empty_graph_has_no_components(self):
        assert connected_components(Graph.build([], [])) == []

    @PROPERTY
    @given(small_graphs())
    def test_partition_property(self, g):
        comps = connected_components(g)
        seen = [v for c in comps for v in c.vertices]
        assert sorted(seen) == sorted(g.vertices)
        assert all(c.is_connected() for c in comps)
        assert sum(len(c.edges) for c in comps) == len(g.edges)

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_labelled_bfs(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 30), rng.uniform(0.02, 0.12))
        got = connected_components(g)
        want = labelled_components(g)
        assert [c.vertices for c in got] == want
        assert got == [g.induced(c) for c in want]
        assert g.is_connected() == (len(want) <= 1)
        assert all(c.is_connected() for c in got)
