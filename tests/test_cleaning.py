import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ontogen.cleaning import (
    CleanConfig,
    CleanError,
    RawDocument,
    clean,
    clean_directory,
    is_sentence,
    load_denylist,
    parse_html,
    read_list,
    strip_ad_containers,
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
        assert load_denylist(path) == frozenset({"sponsored", "promo"})


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
        tree = parse_html('<div><div class="ads"><p>Buy now today please.</p></div><p>Keep me here now.</p></div>')
        stripped, removed = strip_ad_containers(tree)
        assert removed == 1
        text = _flat_text(stripped)
        assert "Buy now" not in text and "Keep me" in text

    def test_tree_without_matches_unchanged(self):
        tree = parse_html("<div><p>Nothing suspicious appears here today.</p></div>")
        stripped, removed = strip_ad_containers(tree)
        assert removed == 0
        assert _flat_text(stripped) == _flat_text(tree)

    def test_nested_ad_inside_article(self):
        html = (
            "<article><p>First paragraph stays in place.</p>"
            '<div id="promo-box"><p>Limited offer, subscribe now.</p></div>'
            "<p>Second paragraph stays as well.</p></article>"
        )
        stripped, removed = strip_ad_containers(parse_html(html))
        assert removed == 1
        text = _flat_text(stripped)
        assert "First paragraph" in text and "Second paragraph" in text
        assert "Limited offer" not in text

    def test_structural_tags_removed(self):
        tree = parse_html("<body><script>x()</script><nav>menu</nav><p>Real text stays here.</p></body>")
        stripped, removed = strip_ad_containers(tree)
        assert removed == 2


def _flat_text(node) -> str:
    from ontogen.cleaning import node_text

    return node_text(node)


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
