import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ontogen.cleaning import (
    DEFAULT_DENYLIST,
    STRUCTURAL_TAGS,
    CleanConfig,
    CleanError,
    RawDocument,
    _clean_html,
    clean,
    clean_directory,
    is_sentence,
    read_list,
)

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


class TestReadList:
    def test_strips_lines_and_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text("# header\n  # indented note\n\n  Alpha \n\tbeta\ngamma # kept\n", "utf-8")
        assert read_list(path) == ["Alpha", "beta", "gamma # kept"]
        path.write_text("delta\n", "utf-8")  # read afresh on every call
        assert read_list(path) == ["delta"]

    def test_denylist_is_lowercased(self, tmp_path):
        path = tmp_path / "deny.txt"
        path.write_text("  # ads\nSponsored\n  Promo  \n", "utf-8")
        assert CleanConfig(denylist=read_list(path)).denylist == frozenset({"sponsored", "promo"})

    def test_config_denylist_and_denylist_file_clean_alike(self, tmp_path):
        from ontogen import pipeline
        from ontogen.cli import main as cli_main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "page.html").write_text(
            '<html><body><p>The company reported strong growth this year.</p>'
            '<div class="promo-box"><p>Readers subscribed today for a special offer.</p></div>'
            "</body></html>", "utf-8")
        (tmp_path / "deny.txt").write_text("Promo\n", "utf-8")
        cfg = pipeline.phase_config("clean", CleanConfig, {"denylist": ["Promo"]})
        clean_directory(corpus, tmp_path / "config", cfg)
        assert cli_main(["clean", "--in", str(corpus), "--out", str(tmp_path / "file"),
                         "--denylist", str(tmp_path / "deny.txt")]) == 0
        by_config, by_file = _records(tmp_path / "config"), _records(tmp_path / "file")
        assert [r["text"] for r in by_config] == ["The company reported strong growth this year."]
        assert by_file == by_config


class TestIsSentence:
    def test_prose_sentence(self):
        assert is_sentence("Apple reported record revenue this quarter.")

    def test_empty(self):
        assert not is_sentence("")

    def test_navigation_junk(self):
        assert not is_sentence("Home | About | Contact")

    def test_too_few_words(self):
        assert not is_sentence("Revenue grew fast.")

    def test_long_text_passes_without_terminal_punctuation(self):
        text = "Quarterly revenue at the device maker grew faster than every analyst estimate published"
        assert is_sentence(text)

    def test_needs_verb_like_token(self):
        assert not is_sentence("Annual fiscal year summary table of contents.")

    def test_denylisted_word_is_not_verb_evidence(self):
        # "sponsored" ends in -ed but sits on the ad denylist
        assert not is_sentence("Sponsored content from our partner network today.")

    def test_alpha_ratio_gate(self):
        assert not is_sentence("Index: 10:45 +0.5% -0.3% +1.2% (was 10:30).")

    def test_deterministic(self):
        text = "The filing shows spending increased this year."
        assert is_sentence(text) == is_sentence(text)

    @given(st.text(alphabet=st.one_of(st.characters(blacklist_categories=("Cs",)),
                                      st.sampled_from("\xa0\u2028\u2029\x85\u3000 \t\nAé9.")),
                   max_size=60))
    def test_character_counts_equal_the_per_character_loops(self, text):
        assert len(text) - sum(map(str.isspace, text)) == sum(1 for c in text if not c.isspace())
        assert sum(map(str.isalpha, text)) == sum(1 for c in text if c.isalpha())


class TestStripAdContainers:
    def test_denylisted_class_removed(self):
        html = '<div><div class="ads"><p>Buy now today please.</p></div><p>Keep me here now.</p></div>'
        paragraphs, removed = _clean_html(html, CleanConfig())
        assert removed == 1
        text = " ".join(paragraphs)
        assert "Buy now" not in text and "Keep me" in text

    def test_tree_without_matches_unchanged(self):
        paragraphs, removed = _clean_html(
            "<div><p>Nothing suspicious appears here today.</p></div>", CleanConfig()
        )
        assert removed == 0
        assert paragraphs == ["Nothing suspicious appears here today."]

    def test_nested_ad_inside_article(self):
        html = (
            "<article><p>First paragraph stays in place.</p>"
            '<div id="promo-box"><p>Limited offer, subscribe now.</p></div>'
            "<p>Second paragraph stays as well.</p></article>"
        )
        paragraphs, removed = _clean_html(html, CleanConfig())
        assert removed == 1
        text = " ".join(paragraphs)
        assert "First paragraph" in text and "Second paragraph" in text
        assert "Limited offer" not in text

    def test_structural_tags_removed(self):
        html = "<body><script>x()</script><nav>menu</nav><p>Real text stays here.</p></body>"
        paragraphs, removed = _clean_html(html, CleanConfig())
        assert removed == 2
        assert paragraphs == ["Real text stays here."]


# a generated tree is a list of children, each a text or a (tag, class,
# children) element; no <p> sits inside another, so HTML reads it as built
_TEXT = st.text(alphabet="ab \n", min_size=1, max_size=5)
_CLASSES = st.sampled_from(["", "story", "ad", "main promo", "x-Sponsored", "social share"])


@st.composite
def _html_trees(draw, depth=0, in_p=False):
    tags = ["div", "span", "b", "section", "nav", "footer", "banner"] + ([] if in_p else ["p"])
    children = []
    for _ in range(draw(st.integers(0, 3 if depth < 4 else 0))):
        if draw(st.booleans()):
            children.append(draw(_TEXT))
        else:
            tag = draw(st.sampled_from(tags))
            sub = draw(_html_trees(depth + 1, in_p or tag == "p"))
            children.append((tag, draw(_CLASSES), sub))
    return children


def _render(children) -> str:
    return "".join(
        c if isinstance(c, str) else f'<{c[0]} class="{c[1]}">{_render(c[2])}</{c[0]}>'
        for c in children
    )


def _oracle(children) -> tuple[list[str], int]:
    """(paragraphs, removed) of a generated tree, read recursively."""
    paragraphs: list[str] = []
    removed = 0

    def removes(tag, cls, _):
        tokens = set(re.findall("[a-z0-9]+", f"{tag} {cls}".lower()))
        return tag in STRUCTURAL_TAGS or bool(tokens & DEFAULT_DENYLIST)

    def text(children):
        return "".join(
            c if isinstance(c, str) else "" if removes(*c) else text(c[2]) for c in children
        )

    def walk(children):
        nonlocal removed
        for c in children:
            if isinstance(c, str):
                continue
            if removes(*c):
                removed += 1
                continue
            if c[0] == "p":
                paragraphs.append(" ".join(text(c[2]).split()))
            walk(c[2])

    walk(children)
    return [p for p in paragraphs if p], removed


class TestTolerantHtml:
    @pytest.mark.parametrize("html, paragraphs, removed", [
        ("<p>One <b>two<p>Three", ["One two", "Three"], 0),
        ("<p>Alpha</div> beta</p>", ["Alpha beta"], 0),
        ("<p>Outer<p/>tail</p>", ["Outertail"], 0),
        ('<p>Keep <span class="ad">drop</span> this</p>', ["Keep this"], 1),
        ('<p>Text<img class="banner"> more</p>', ["Text more"], 1),
        ('<div class="ad" class="story"><p>Shown?</p></div>', ["Shown?"], 0),
        ('<nav><div class="ads"><p>x</p></div></nav><p>y</p>', ["y"], 1),
        ('<p>a<div class="ad">b<p>c</p>', ["a", "c"], 1),
    ])
    def test_tag_soup(self, html, paragraphs, removed):
        assert _clean_html(html, CleanConfig()) == (paragraphs, removed)

    @given(_html_trees())
    def test_well_formed_tree_matches_a_recursive_oracle(self, children):
        assert _clean_html(_render(children), CleanConfig()) == _oracle(children)


class TestClean:
    def test_html_prose_kept_script_dropped(self):
        html = (
            "<html><body><p>The company reported strong growth this year.</p>"
            '<script>ads.push("x")</script></body></html>'
        )
        doc = RawDocument(html.encode(), "html", "mem")
        result = clean(doc)
        assert result.sentences == ["The company reported strong growth this year."]
        assert result.dropped_segments >= 1

    def test_empty_document(self):
        result = clean(RawDocument(b"", "plain", "mem"))
        assert result.sentences == []

    def test_rss_three_items(self):
        doc = RawDocument.from_path(CORPUS / "newswire.rss")
        result = clean(doc)
        assert len(result.sentences) == 6  # 3 titles + 3 descriptions

    @pytest.mark.parametrize("fmt", ["rss", "xml"])
    def test_malformed_feed_falls_back_to_html_walker(self, fmt):
        feed = (
            b"<rss><channel><item><title>The board approved the merger on Monday.</title>"
            b"<description>Shares rallied after the company reported record earnings."
            b"</description></item></channel><broken"
        )
        assert clean(RawDocument(feed, fmt, "mem")).sentences == [
            "The board approved the merger on Monday.",
            "Shares rallied after the company reported record earnings.",
        ]

    def test_undecodable_bytes_name_origin(self):
        with pytest.raises(CleanError, match="corrupt.bin"):
            clean(RawDocument(b"\xff\xfe\x00junk", "plain", "corrupt.bin"))

    def test_unknown_format(self):
        with pytest.raises(CleanError):
            clean(RawDocument(b"", "pdf", "x"))

    def test_social_plugin_footer_never_retained(self):
        pages = [
            f"<html><body><p>Article body number {i} explains the quarterly results.</p>"
            '<div class="social"><p>Share this article with your social network friends.</p></div>'
            "</body></html>"
            for i in range(4)
        ]
        for page in pages:
            result = clean(RawDocument(page.encode(), "html", "mem"))
            assert all("social network" not in s for s in result.sentences)

    def test_idempotent_at_text_level(self):
        doc = RawDocument.from_path(CORPUS / "earnings.html")
        first = clean(doc)
        again = clean(
            RawDocument("\n".join(first.sentences).encode(), "plain", "re-run")
        )
        assert again.sentences == first.sentences

    def test_no_tag_residue(self):
        residue = re.compile(r"<[A-Za-z]")
        for path in CORPUS.iterdir():
            if path.name == "labels.json":
                continue
            result = clean(RawDocument.from_path(path))
            for s in result.sentences:
                assert not residue.search(s), (path.name, s)


class TestCorpusGroundTruth:
    def test_precision_recall_against_hand_labels(self):
        labels = json.loads((CORPUS / "labels.json").read_text())
        tp = fp = fn = 0
        for name, expected in labels.items():
            result = clean(RawDocument.from_path(CORPUS / name))
            got = set(result.sentences)
            want = set(expected)
            tp += len(got & want)
            fp += len(got - want)
            fn += len(want - got)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        assert precision >= 0.9
        assert recall >= 0.9


def _records(out: Path) -> list[dict]:
    lines = (out / "sentences.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


class TestCleanDirectory:
    def test_writes_txt_and_summary(self, tmp_path):
        out = tmp_path / "out"
        summary = clean_directory(CORPUS, out, CleanConfig())
        assert (out / "summary.json").is_file()
        assert [r["doc"] for r in _records(out)].count("earnings.html") == 3
        assert summary["files"]["notes.txt"]["kept"] == 3
        assert summary["total_kept"] >= 19

    def test_records_are_each_documents_sentences_in_order(self, tmp_path):
        out = tmp_path / "out"
        clean_directory(CORPUS, out, CleanConfig())
        records = _records(out)
        assert all(set(r) == {"doc", "n", "text"} for r in records)
        for path in sorted(CORPUS.iterdir()):
            mine = [r for r in records if r["doc"] == path.name]
            assert [r["text"] for r in mine] == clean(RawDocument.from_path(path)).sentences
            assert [r["n"] for r in mine] == list(range(len(mine)))

    def test_records_in_file_name_then_index_order(self, tmp_path):
        out = tmp_path / "out"
        summary = clean_directory(CORPUS, out, CleanConfig())
        keys = [(r["doc"], r["n"]) for r in _records(out)]
        assert keys == sorted(keys)
        assert len(keys) == summary["total_kept"]
        assert len({doc for doc, _ in keys}) >= 4

    def test_document_without_sentences_writes_no_record(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(CORPUS / "notes.txt", corpus / "notes.txt")
        (corpus / "empty.txt").write_text("too short\n\n", encoding="utf-8")
        out = tmp_path / "out"
        summary = clean_directory(corpus, out, CleanConfig())
        assert summary["files"]["empty.txt"]["kept"] == 0
        assert {r["doc"] for r in _records(out)} == {"notes.txt"}

    def test_writes_only_the_stream_and_the_summary(self, tmp_path):
        out = tmp_path / "out"
        clean_directory(CORPUS, out, CleanConfig())
        assert sorted(p.name for p in out.iterdir()) == ["sentences.jsonl", "summary.json"]

    def test_rerun_into_same_directory_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        clean_directory(CORPUS, out, CleanConfig())
        first = (out / "sentences.jsonl").read_bytes()
        clean_directory(CORPUS, out, CleanConfig())
        assert (out / "sentences.jsonl").read_bytes() == first

    def test_non_ascii_sentence_kept_verbatim(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        text = "Société Générale reported higher earnings in Zürich this quarter."
        (corpus / "fr.txt").write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "out"
        clean_directory(corpus, out, CleanConfig())
        assert (out / "sentences.jsonl").read_text(encoding="utf-8") == (
            '{"doc": "fr.txt", "n": 0, "text": "' + text + '"}\n'
        )
