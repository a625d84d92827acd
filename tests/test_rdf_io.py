import json

import pytest
from hypothesis import example, given, settings, strategies as st

from ontogen.model import KnowledgeGraph, ScoredTriple, Term, Triple
from ontogen.rdf_io import (
    _NEEDS_ESCAPE,
    _TTL_BEFORE_COMMENT,
    _escape_char,
    _escape_literal,
    Diagnostic,
    ParseError,
    export_dot,
    parse_ntriples,
    parse_scored_jsonl,
    parse_term,
    parse_turtle,
    render_term,
    serialize_ntriples,
)

iri_values = st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True).map(
    lambda s: "http://example.org/" + s
)
blank_labels = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_]{0,6}", fullmatch=True)
literal_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
lang_tags = st.sampled_from(["en", "de", "en-GB", "pt-BR"])

iris = iri_values.map(Term.iri)
blanks = blank_labels.map(Term.blank)
literals = st.one_of(
    literal_values.map(Term.literal),
    st.tuples(literal_values, iri_values).map(lambda t: Term.literal(t[0], datatype=t[1])),
    st.tuples(literal_values, lang_tags).map(lambda t: Term.literal(t[0], language=t[1])),
)

triples = st.builds(
    Triple,
    subject=st.one_of(iris, blanks),
    predicate=iris,
    object=st.one_of(iris, blanks, literals),
)
triple_sets = st.lists(triples, max_size=40).map(set)

#: every character the writer escapes, plus non-ASCII and astral ones
wide_chars = st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.sampled_from('\\"\n\r\t\x00\x1f\x7f\x85\u2028\u2029é中\uffff\U00010000\U0001f600\U0010fffd'),
)
wide_iris = st.text(
    alphabet=wide_chars.filter(lambda c: c not in ' \t\n\r\f\v<>"'), max_size=6
).map(lambda s: Term.iri("urn:" + s))
wide_literals = st.one_of(
    st.text(alphabet=wide_chars, max_size=10).map(Term.literal),
    st.tuples(st.text(alphabet=wide_chars, max_size=10), iri_values).map(
        lambda t: Term.literal(t[0], datatype=t[1])
    ),
    st.tuples(st.text(alphabet=wide_chars, max_size=10), lang_tags).map(
        lambda t: Term.literal(t[0], language=t[1])
    ),
)
wide_triples = st.builds(
    Triple,
    subject=st.one_of(wide_iris, blanks),
    predicate=wide_iris,
    object=st.one_of(wide_iris, blanks, wide_literals),
)


def str_serialize_ntriples(triples) -> bytes:
    """The str-based writer `serialize_ntriples` replaced, as its oracle:
    sort the rendered str tuples, join the lines, then encode."""
    rendered: dict[Term, str] = {}

    def render(t: Term) -> str:
        text = rendered.get(t)
        if text is None:
            text = rendered[t] = render_term(t)
        return text

    lines = sorted({(render(t.subject), render(t.predicate), render(t.object)) for t in triples})
    return "".join(f"{s} {p} {o} .\n" for s, p, o in lines).encode("utf-8")


def iri_triple(s: str, p: str, o: Term) -> Triple:
    return Triple(Term.iri(s), Term.iri(p), o)


class TestNTriples:
    def test_single_line(self):
        parsed, diags = parse_ntriples(b"<urn:a> <urn:b> <urn:c> .\n")
        assert diags == []
        assert parsed == [Triple(Term.iri("urn:a"), Term.iri("urn:b"), Term.iri("urn:c"))]

    def test_empty_file(self):
        assert parse_ntriples(b"") == ([], [])

    def test_comments_and_blanks_ignored(self):
        data = b"# header\n\n<urn:a> <urn:b> <urn:c> .\n   \n# trailing\n"
        parsed, diags = parse_ntriples(data)
        assert len(parsed) == 1 and not diags

    def test_malformed_line_reports_line_number(self):
        data = (
            b"<urn:a> <urn:p> <urn:b> .\n"
            b"<urn:c> <urn:p> <urn:d> .\n"
            b"this is not a triple\n"
            b"<urn:e> <urn:p> <urn:f> .\n"
        )
        parsed, diags = parse_ntriples(data)
        assert len(parsed) == 3
        assert len(diags) == 1
        assert diags[0].line == 3

    def test_literal_forms(self):
        data = (
            '<urn:a> <urn:p> "plain" .\n'
            '<urn:a> <urn:p> "typed"^^<urn:int> .\n'
            '<urn:a> <urn:p> "tagged"@en .\n'
            '<urn:a> <urn:p> "esc \\"q\\" \\n \\t \\\\ \\u00e9" .\n'
        ).encode()
        parsed, diags = parse_ntriples(data)
        assert not diags
        objs = [t.object for t in parsed]
        assert objs[0] == Term.literal("plain")
        assert objs[1] == Term.literal("typed", datatype="urn:int")
        assert objs[2] == Term.literal("tagged", language="en")
        assert objs[3].value == 'esc "q" \n \t \\ é'

    def test_non_utf8_line_is_a_diagnostic(self):
        parsed, diags = parse_ntriples(b"\xff\xfe<urn:a> <urn:b> <urn:c> .\n<urn:a> <urn:b> <urn:d> .")
        assert parsed == [iri_triple("urn:a", "urn:b", Term.iri("urn:d"))]
        assert diags == [Diagnostic(1, "not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                       "in position 0: invalid start byte")]

    def test_serializer_deterministic_and_order_independent(self):
        a = Triple(Term.iri("urn:a"), Term.iri("urn:p"), Term.iri("urn:b"))
        b = Triple(Term.iri("urn:b"), Term.iri("urn:p"), Term.literal("x"))
        assert serialize_ntriples([a, b]) == serialize_ntriples([b, a])
        assert serialize_ntriples([a, b, a]) == serialize_ntriples([a, b])

    def test_empty_set_serializes_to_empty_file(self):
        assert serialize_ntriples([]) == b""

    @settings(max_examples=60)
    @given(triple_sets)
    def test_round_trip(self, ts):
        parsed, diags = parse_ntriples(serialize_ntriples(ts))
        assert not diags
        assert set(parsed) == ts

    @settings(max_examples=200, deadline=None)
    @given(st.lists(wide_triples, max_size=30).map(lambda ts: ts + ts[::2]))
    # subjects whose UTF-16 order differs from their code-point order
    @example([iri_triple(s, "urn:p", Term.literal(v)) for s, v in [
        ("urn:a\uffff", "x"), ("urn:a\U00010000", "x\u2028"), ("urn:a", "é"), ("urn:a", "\x85"),
        ("urn:ab", "\U0001f600"), ("urn:a\uffff", "x"),
    ]])
    def test_equals_the_str_writer(self, ts):
        assert serialize_ntriples(ts) == str_serialize_ntriples(ts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(max_size=60), max_size=30))
    def test_parser_survives_arbitrary_text(self, lines):
        data = "\n".join(lines).encode("utf-8")
        parsed, diags = parse_ntriples(data)
        assert isinstance(parsed, list)
        assert all(isinstance(d, Diagnostic) for d in diags)


class TestTerms:
    @given(st.one_of(iris, blanks, literals))
    def test_term_round_trip(self, term):
        assert parse_term(render_term(term)) == term

    def test_parse_term_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_term("not a term")


class TestEscape:
    @given(st.text(alphabet=st.one_of(st.characters(blacklist_categories=("Cs",)),
                                      st.sampled_from('\\"\n\r\t\x00\x1f\x7f\x85\u2028\u2029')),
                   max_size=40))
    def test_fast_path_equals_the_per_character_escape(self, value):
        assert _escape_literal(value) == "".join(_escape_char(c) for c in value)

    def test_regex_finds_exactly_the_characters_that_change(self):
        changed = [c for c in map(chr, range(0x110000)) if _escape_char(c) != c]
        assert [c for c in map(chr, range(0x110000)) if _NEEDS_ESCAPE.search(c)] == changed


class TestInterning:
    """Each parse call builds one term object per distinct term."""

    def test_ntriples(self):
        (a, b, c), diags = parse_ntriples(
            b'<http://e/s> <http://e/p> "v"@en .\n'
            b"<http://e/s> <http://e/p> _:x .\n"
            b'_:x <http://e/p> "v"@en .\n'
        )
        assert not diags
        assert a.subject is b.subject and a.predicate is b.predicate is c.predicate
        assert b.object is c.subject and a.object is c.object

    def test_turtle(self):
        (a, b), diags = parse_turtle(
            b"@prefix e: <http://e/> .\n"
            b'e:s a e:C .\n<http://e/C> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "v" .\n'
        )
        assert not diags
        assert a.predicate is b.predicate and a.object is b.subject

    def test_scored_jsonl(self):
        records = [
            {"s": "http://e/s", "p": "http://e/p", "o": "http://e/o", "o_kind": "iri", "conf": 0.5},
            {"s": "http://e/o", "p": "http://e/p", "o": "http://e/o", "o_kind": "literal",
             "conf": 0.5},
            {"s": "http://e/s", "p": "http://e/p", "o": "http://e/o", "o_kind": "literal",
             "conf": 0.9},
        ]
        data = "\n".join(json.dumps(r) for r in records).encode("utf-8")
        (a, b, c), diags = parse_scored_jsonl(data)
        assert not diags
        a, b, c = a.triple, b.triple, c.triple
        assert a.subject is c.subject and a.object is b.subject and b.object is c.object
        assert a.predicate is b.predicate is c.predicate
        assert a.object != b.object  # an IRI and a literal of one value are two terms

    def test_one_value_in_every_kind_and_tag_is_one_term_each(self):
        lines = b'_:v <v> <v> .\n_:v <v> "v" .\n_:v <v> "v"@en .\n_:v <v> "v"^^<v> .\n'
        first, diags = parse_ntriples(lines)
        again, _ = parse_ntriples(lines * 2)
        assert not diags
        objects = [t.object for t in again]
        assert len({id(o) for o in objects}) == 4 and objects[:4] == objects[4:]
        assert all(x is y for x, y in zip(objects[:4], objects[4:]))
        assert [t.object for t in first] == objects[:4]
        assert again[0].subject is again[7].subject != again[0].predicate  # blank "v", IRI "v"


class TestTurtle:
    def test_prefix_expansion(self):
        data = (
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:Dog rdfs:subClassOf ex:Animal .\n"
            'ex:Dog ex:label "dog" .\n'
        ).encode()
        parsed, diags = parse_turtle(data)
        assert not diags
        assert parsed[0].subject == Term.iri("http://example.org/Dog")
        assert parsed[0].object == Term.iri("http://example.org/Animal")

    def test_a_keyword(self):
        data = (
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "ex:Dog a owl:Class .\n"
        ).encode()
        parsed, diags = parse_turtle(data)
        assert not diags
        assert parsed[0].predicate.value.endswith("#type")

    def test_unknown_prefix_diagnostic(self):
        parsed, diags = parse_turtle(b"ex:a ex:b ex:c .\n")
        assert parsed == []
        assert diags and "prefix" in diags[0].message

    def test_comments_respect_iris(self):
        data = (
            "@prefix ex: <http://example.org/ns#> .  # namespace\n"
            "ex:a ex:knows <http://other.example/x#frag> . # comment\n"
        ).encode()
        parsed, diags = parse_turtle(data)
        assert not diags
        assert parsed[0].object.value == "http://other.example/x#frag"

    @pytest.mark.parametrize("line, kept", [
        ('<http://e/a#b> <http://e/p> "v" . # note', '<http://e/a#b> <http://e/p> "v" . '),
        ('e:s e:p "a # b" .', 'e:s e:p "a # b" .'),
        (r'e:s e:p "say \"#hi\" now" . # c', r'e:s e:p "say \"#hi\" now" . '),
        ('e:s e:p "open # all literal', 'e:s e:p "open # all literal'),
        ("e:s e:p <http://e/open#all-iri", "e:s e:p <http://e/open#all-iri"),
        ('e:s e:p "ends in \\', 'e:s e:p "ends in \\'),
        ("e:s e:p \\# c", "e:s e:p \\"),
    ])
    def test_comment_starts_at_the_first_hash_outside_a_literal_or_iri(self, line, kept):
        assert _TTL_BEFORE_COMMENT.match(line).group(0) == kept

    @pytest.mark.parametrize("literal", [r'"bad\q"', r'"x\u12"', '"x"@en-'])
    def test_bad_literal_is_a_diagnostic_as_in_ntriples(self, literal):
        # both readers share one literal grammar, so each skips the line
        statement = f"<http://e/s> <http://e/p> {literal} .\n"
        assert len(parse_ntriples(statement.encode())[1]) == 1
        parsed, diags = parse_turtle(
            f"@prefix e: <http://e/> .\n{statement}e:s e:p \"ok\"@en-US .\n".encode()
        )
        assert [d.line for d in diags] == [2]
        assert [t.object for t in parsed] == [Term.literal("ok", language="en-US")]

    def test_stray_text_skips_only_its_own_statement(self):
        parsed, diags = parse_turtle(
            b"@prefix e: <http://e/> .\ne:s e:p e:a junk .\ne:s e:p e:b . junk\ne:s e:p e:c .\n"
        )
        assert [(d.line, d.message) for d in diags] == [
            (2, "unexpected text 'junk'"), (3, "unexpected text 'junk'"),
        ]
        assert [t.object.value for t in parsed] == ["http://e/b", "http://e/c"]


class TestScoredJsonl:
    def test_accepts_generator_style_confidence(self):
        rec = {"s": "urn:usa", "p": "urn:locatedNear", "o": "urn:mexico", "o_kind": "iri", "conf": 0.917}
        parsed, diags = parse_scored_jsonl(json.dumps(rec).encode())
        assert not diags
        assert parsed[0].confidence == 0.917

    def test_out_of_range_confidence_skipped(self):
        rec = {"s": "urn:a", "p": "urn:b", "o": "urn:c", "o_kind": "iri", "conf": 1.3}
        parsed, diags = parse_scored_jsonl(json.dumps(rec).encode())
        assert parsed == []
        assert len(diags) == 1

    def test_counts_match_line_count_oracle(self):
        n = 10_000
        lines = []
        for i in range(n):
            lines.append(
                json.dumps(
                    {"s": f"urn:s{i}", "p": "urn:p", "o": f"v{i}", "o_kind": "literal",
                     "conf": (i % 100) / 100, "id": f"r{i}"}
                )
            )
        data = "\n".join(lines).encode()
        oracle_lines = sum(1 for line in data.splitlines() if line.strip())
        parsed, diags = parse_scored_jsonl(data)
        assert oracle_lines == n
        assert len(parsed) + len(diags) == oracle_lines
        assert not diags

    def test_bad_json_and_missing_keys(self):
        data = b'{"s": "urn:a"}\nnot json\n'
        parsed, diags = parse_scored_jsonl(data)
        assert parsed == []
        assert [d.line for d in diags] == [1, 2]

    def test_round_trip(self):
        sts = [
            ScoredTriple(Triple(Term.iri("urn:a"), Term.iri("urn:p"), Term.literal("v")), 0.5, "x1"),
            ScoredTriple(Triple(Term.blank("b0"), Term.iri("urn:p"), Term.iri("urn:c")), 0.25),
            ScoredTriple(Triple(Term.iri("urn:c"), Term.iri("urn:q"), Term.literal("7")), 1.0, "x3"),
        ]
        data = (
            b'{"conf": 0.5, "id": "x1", "o": "v", "o_kind": "literal", "p": "urn:p", "s": "urn:a"}\n'
            b'{"conf": 0.25, "o": "urn:c", "o_kind": "iri", "p": "urn:p", "s": "_:b0"}\n'
            b'{"conf": 1.0, "id": "x3", "o": "7", "o_kind": "literal", "p": "urn:q", "s": "urn:c"}\n'
        )
        parsed, diags = parse_scored_jsonl(data)
        assert not diags
        assert [(s.triple, s.confidence, s.source_id) for s in parsed] == [
            (s.triple, s.confidence, s.source_id) for s in sts
        ]


class TestLineFraming:
    """Every reader ends a line at "\\n" only, dropping one "\\r" before it."""

    def test_jsonl_strings_keep_unicode_line_separators(self):
        recs = [
            {"s": "urn:a", "p": "urn:p", "o": "one\u2028two", "o_kind": "literal", "conf": 0.5},
            {"s": "urn:b", "p": "urn:p", "o": "urn:c", "o_kind": "iri", "conf": 0.5},
            {"s": "urn:c", "p": "urn:p", "o": "x\x85y", "o_kind": "literal", "conf": 0.5},
        ]
        data = ("\n".join(json.dumps(r, ensure_ascii=False) for r in recs) + "\nnot json\n").encode()
        parsed, diags = parse_scored_jsonl(data)
        assert [st.triple.object.value for st in parsed] == ["one\u2028two", "urn:c", "x\x85y"]
        assert diags == [Diagnostic(4, "invalid JSON: Expecting value")]

    def test_jsonl_crlf_ends_a_line_and_a_lone_cr_does_not(self):
        rec = json.dumps({"s": "urn:a", "p": "urn:p", "o": "urn:c", "o_kind": "iri", "conf": 0.5})
        data = f"{rec}\r\n{rec}\r{rec}\r\nnot json\r\n".encode()
        parsed, diags = parse_scored_jsonl(data)
        assert len(parsed) == 1
        assert [d.line for d in diags] == [2, 3]

    def test_turtle_literals_keep_unicode_line_separators(self):
        data = (
            '@prefix ex: <urn:ex:> .\r\n'
            'ex:a ex:p "one\u2028two\x85three" .\n'
            "ex:b ex:p ex:c .\n"
            "ex:d ex:p .\n"
        ).encode()
        parsed, diags = parse_turtle(data)
        assert parsed == [
            iri_triple("urn:ex:a", "urn:ex:p", Term.literal("one\u2028two\x85three")),
            iri_triple("urn:ex:b", "urn:ex:p", Term.iri("urn:ex:c")),
        ]
        assert diags == [Diagnostic(4, "expected 3 terms per statement, got 2")]

    @pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle, parse_scored_jsonl])
    # a bad lead byte, a sequence cut short by the line end, an encoded surrogate
    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xed\xa0\x80"])
    def test_undecodable_line_is_a_diagnostic(self, parse, bad):
        good = (b'{"s": "urn:a", "p": "urn:p", "o": "urn:b", "o_kind": "iri", "conf": 1}'
                if parse is parse_scored_jsonl else b"<urn:a> <urn:p> <urn:b> .")
        # the line's own decode error, its offset counted from the line start
        with pytest.raises(UnicodeDecodeError) as line_error:
            (b'"x' + bad + b'"').decode("utf-8")
        data = b"\n".join([good, b"", b"", b'"x' + bad + b'"', good.replace(b"urn:b", b"urn:c")])
        parsed, diags = parse(data)
        assert [getattr(t, "triple", t).object.value for t in parsed] == ["urn:b", "urn:c"]
        assert diags == [Diagnostic(4, f"not valid UTF-8: {line_error.value}")]

    def test_an_undecodable_line_spoils_the_turtle_statement_it_falls_in(self):
        parsed, diags = parse_turtle(b"<urn:a> <urn:p>\n\xff\n<urn:b> .\n<urn:c> <urn:p> <urn:d> .\n")
        assert parsed == [iri_triple("urn:c", "urn:p", Term.iri("urn:d"))]
        assert [d.line for d in diags] == [2]

    def test_a_report_spoils_only_the_turtle_statement_pending_at_it(self):
        # stray text at the end of a line inside a statement spoils it; stray
        # text after a line's last "." and an undecodable line between
        # statements spoil neither neighbour
        parsed, diags = parse_turtle(b"<urn:a> <urn:p> junk\n<urn:b> .\n"
                                     b"<urn:c> <urn:p> <urn:d> . junk\n\xff\n"
                                     b"<urn:e> <urn:p> <urn:f> .\n")
        assert [t.object.value for t in parsed] == ["urn:d", "urn:f"]
        assert [d.line for d in diags] == [1, 3, 4]


class TestScratchMemory:
    """A call's transient memory, above what it returns, holds no copy of
    the whole input and no second copy of the output."""

    def test_jsonl_reader_holds_no_decoded_copy(self, traced_peak):
        # the decoded text and its line list took about 2.8x the input
        recs = (
            {"s": f"http://example.org/company/C{i // 15:05d}", "p": f"http://example.org/prop/p{i % 12}",
             "o": f"http://example.org/place/L{i % 400}" if i % 2 else f"label {i}",
             "o_kind": "iri" if i % 2 else "literal", "conf": (i % 100) / 100, "id": f"r{i:05d}"}
            for i in range(20_000)
        )
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs).encode()
        (parsed, diags), peak, held = traced_peak(parse_scored_jsonl, data)
        assert len(parsed) == 20_000 and not diags
        assert peak - held < len(data) // 2  # 0.41x measured

    def test_jsonl_interner_builds_no_key_tuple_per_term(self, traced_peak):
        # every term distinct: the (kind, value, datatype, language) key
        # tuples took 2.07x the input, value keys per kind take 0.43x
        recs = (
            {"s": f"urn:s{i}", "p": "urn:p", "o": f"v{i}", "o_kind": "literal", "conf": 0.9,
             "id": f"r{i:05d}"}
            for i in range(20_000)
        )
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs).encode()
        (parsed, diags), peak, held = traced_peak(parse_scored_jsonl, data)
        assert len(parsed) == 20_000 and not diags
        assert peak - held < 0.75 * len(data)

    def test_ntriples_writer_below_the_str_writer(self, traced_peak):
        # the str writer's f-string list, joined str and encoded copy took
        # about 3.6x its output; the byte writer 1.7x
        ts = [
            iri_triple(f"http://example.org/company/C{i // 15:05d}", f"http://example.org/prop/p{i % 12}",
                       Term.iri(f"http://example.org/place/L{i % 400}") if i % 2 else Term.literal(f"label {i} é\n"))
            for i in range(20_000)
        ]
        out, peak, held = traced_peak(serialize_ntriples, ts)
        assert out == str_serialize_ntriples(ts)
        assert peak - held < 2.5 * len(out)


class TestDot:
    def test_single_triple(self):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(Term.iri("urn:a"), Term.iri("urn:p#knows"), Term.iri("urn:b")), 0.9)
        dot = export_dot(kg).decode()
        assert dot.startswith("digraph")
        assert dot.count("[label=") == 3  # 2 nodes + 1 edge
        assert '"knows"' in dot

    def test_empty_graph(self):
        assert export_dot(KnowledgeGraph()) == b"digraph kg {\n}\n"

    def test_node_count_matches_distinct_terms(self):
        kg = KnowledgeGraph()
        for i in range(6):
            kg.add_triple(
                Triple(Term.iri(f"urn:s{i % 2}"), Term.iri("urn:p"), Term.literal(f"v{i % 3}")),
                0.9,
            )
        distinct = {t.subject for t in kg.triples()} | {t.object for t in kg.triples()}
        dot = export_dot(kg).decode()
        node_lines = [l for l in dot.splitlines() if l.startswith("  n") and "->" not in l]
        assert len(node_lines) == len(distinct)
