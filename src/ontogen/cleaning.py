"""Corpus cleaning: strip HTML/RSS/XML boilerplate and keep sentence-bearing text.

Dispatch is by format hint.  HTML pages contribute paragraph-tag text after
ad containers are removed; RSS feeds contribute item titles and
descriptions; XML contributes per-tag text; plain text contributes lines.
Every retained string must pass the sentence heuristic.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import lru_cache
from html.parser import HTMLParser
from importlib import resources
from pathlib import Path

DEFAULT_DENYLIST = frozenset(
    {
        "ad",
        "ads",
        "advert",
        "advertisement",
        "sponsored",
        "sponsor",
        "social",
        "share",
        "tracker",
        "tracking",
        "banner",
        "promo",
        "promoted",
        "plugin",
        "widget",
    }
)

# subtrees that never carry article prose
STRUCTURAL_TAGS = frozenset({"script", "style", "iframe", "nav", "footer", "header"})

_VOID_TAGS = frozenset(
    {"br", "hr", "img", "meta", "link", "input", "area", "base", "col", "embed", "source", "wbr"}
)

#: a segment longer than this many words needs no sentence-ending punctuation
LONG_TEXT_WORDS = 12

#: least share of alphabetic characters among a sentence's non-space ones
MIN_ALPHA_RATIO = 0.6

_WS = re.compile(r"\s+")
_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
_TRAILING_PUNCT = "\"')]}»"


class CleanError(ValueError):
    """Undecodable or unreadable document."""


def read_list(source) -> list[str]:
    """The stripped lines of a UTF-8 text file (a path or a package
    resource) that are neither blank nor `#` comments."""
    lines = (line.strip() for line in source.read_text("utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


@lru_cache(maxsize=1)
def _bundled_verbs() -> frozenset[str]:
    verbs = read_list(resources.files("ontogen").joinpath("data/common_verbs.txt"))
    return frozenset(w.lower() for w in verbs)


@dataclass(frozen=True)
class CleanConfig:
    min_words: int = 4
    denylist: frozenset[str] = DEFAULT_DENYLIST
    #: a key of `_CLEANERS` for every document, or None: each from its extension
    format: str | None = None

    def __post_init__(self) -> None:
        if self.format is not None and self.format not in _CLEANERS:
            raise CleanError(f"format must be one of {', '.join(_CLEANERS)}, got {self.format!r}")


_FORMAT_BY_EXT = {
    ".html": "html",
    ".htm": "html",
    ".rss": "rss",
    ".xml": "xml",
}


@dataclass
class RawDocument:
    data: bytes
    format_hint: str
    origin: str

    @staticmethod
    def from_path(path: Path, fmt: str | None = None) -> "RawDocument":
        fmt = fmt or _FORMAT_BY_EXT.get(path.suffix.lower(), "plain")
        return RawDocument(path.read_bytes(), fmt, str(path))


@dataclass
class CleanDocument:
    sentences: list[str]
    origin: str
    dropped_segments: int


# ----------------------------------------------------------------------
# sentence heuristic

def _verb_like(word: str, cfg: CleanConfig) -> bool:
    w = word.strip("\"'.,;:!?()[]{}").lower()
    if not w:
        return False
    if w in _bundled_verbs():
        return True
    if w in cfg.denylist:
        return False
    return w.isalpha() and len(w) >= 4 and (w.endswith("ed") or w.endswith("ing"))


def _ends_sentence(text: str) -> bool:
    tail = text.rstrip().rstrip(_TRAILING_PUNCT)
    return bool(tail) and tail[-1] in ".!?"


def is_sentence(text: str, cfg: CleanConfig = CleanConfig()) -> bool:
    """Deterministic stand-in for a tagger-based sentence check.

    Requires enough words, a verb-like token, a sentence ending (or enough
    length to pass without one), and a mostly-alphabetic character mix.
    """
    words = text.split()
    if len(words) < cfg.min_words:
        return False
    nonspace = len(text) - sum(map(str.isspace, text))
    alpha = sum(map(str.isalpha, text))
    if nonspace == 0 or alpha / nonspace < MIN_ALPHA_RATIO:
        return False
    if not _ends_sentence(text) and len(words) <= LONG_TEXT_WORDS:
        return False
    return any(_verb_like(w, cfg) for w in words)


# ----------------------------------------------------------------------
# tolerant HTML tree

@dataclass
class HtmlNode:
    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list = field(default_factory=list)  # HtmlNode | str


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = HtmlNode("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        # paragraphs do not nest; a new <p> implicitly closes an open one
        if tag == "p" and any(n.tag == "p" for n in self.stack[1:]):
            while self.stack[-1].tag != "p":
                self.stack.pop()
            self.stack.pop()
        node = HtmlNode(tag, {k: (v or "") for k, v in attrs})
        self.stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(HtmlNode(tag, {k: (v or "") for k, v in attrs}))

    def handle_endtag(self, tag):
        if any(n.tag == tag for n in self.stack[1:]):
            while self.stack[-1].tag != tag:
                self.stack.pop()
            self.stack.pop()

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html(text: str) -> HtmlNode:
    """Parse HTML tolerantly: stray end tags are ignored, unclosed tags
    are closed when an ancestor closes."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def _attr_tokens(node: HtmlNode) -> set[str]:
    raw = " ".join((node.tag, node.attrs.get("id", ""), node.attrs.get("class", "")))
    return {tok for tok in _TOKEN_SPLIT.split(raw.lower()) if tok}


def strip_ad_containers(node: HtmlNode, denylist: frozenset[str] = DEFAULT_DENYLIST) -> tuple[HtmlNode, int]:
    """Copy the tree without structural boilerplate and denylisted subtrees.

    Returns the pruned copy and the number of removed subtrees.
    """
    removed = 0
    copy = HtmlNode(node.tag, dict(node.attrs))
    for child in node.children:
        if isinstance(child, str):
            copy.children.append(child)
            continue
        if child.tag in STRUCTURAL_TAGS or _attr_tokens(child) & denylist:
            removed += 1
            continue
        kept, sub_removed = strip_ad_containers(child, denylist)
        removed += sub_removed
        copy.children.append(kept)
    return copy, removed


def node_text(node: HtmlNode) -> str:
    parts = []
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
        else:
            parts.append(node_text(child))
    return "".join(parts)


def _find_tags(node: HtmlNode, tag: str) -> list[HtmlNode]:
    out = []
    for child in node.children:
        if isinstance(child, HtmlNode):
            if child.tag == tag:
                out.append(child)
            out.extend(_find_tags(child, tag))
    return out


def _normalize(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _strip_markup(text: str) -> str:
    """Flatten embedded HTML (e.g. inside RSS descriptions) to plain text."""
    if "<" not in text:
        return _normalize(text)
    return _normalize(node_text(parse_html(text)))


# ----------------------------------------------------------------------
# cleaning proper

# Each cleaner returns its non-empty candidate segments and the number of
# removed ad/boilerplate containers; `clean` applies the sentence filter.

def _clean_html(text: str, cfg: CleanConfig) -> tuple[list[str], int]:
    tree, removed = strip_ad_containers(parse_html(text), cfg.denylist)
    segments = [_normalize(node_text(p)) for p in _find_tags(tree, "p")]
    return [s for s in segments if s], removed


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1].lower()


def _html_elements(node: HtmlNode):
    """(tag, direct text) pairs under a tolerant HTML tree: the fallback
    walker for a malformed feed or document."""
    for child in node.children:
        if isinstance(child, HtmlNode):
            yield child.tag, "".join(c for c in child.children if isinstance(c, str))
            yield from _html_elements(child)


def _iter_xml_elements(text: str):
    """(tag, direct text, in_item) for every element in document order.
    `in_item` means an `<item>` ancestor; on the HTML fallback for text
    that is not well-formed XML, an `<item>` anywhere earlier."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        seen_item = False
        for tag, content in _html_elements(parse_html(text)):
            yield tag, content, seen_item
            seen_item = seen_item or tag == "item"
        return
    stack = [(root, False)]
    while stack:
        elem, in_item = stack.pop()
        tag = _strip_ns(elem.tag)
        yield tag, elem.text or "", in_item
        stack.extend((child, in_item or tag == "item") for child in reversed(elem))


def _clean_rss(text: str, cfg: CleanConfig) -> tuple[list[str], int]:
    segments = [
        _strip_markup(content)
        for tag, content, in_item in _iter_xml_elements(text)
        if in_item and tag in ("title", "description")
    ]
    return [s for s in segments if s], 0


def _clean_xml(text: str, cfg: CleanConfig) -> tuple[list[str], int]:
    segments = [_normalize(content) for _, content, _ in _iter_xml_elements(text)]
    return [s for s in segments if s], 0


def _clean_plain(text: str, cfg: CleanConfig) -> tuple[list[str], int]:
    segments = [_normalize(line) for line in text.splitlines()]
    return [s for s in segments if s], 0


_CLEANERS = {
    "html": _clean_html,
    "rss": _clean_rss,
    "xml": _clean_xml,
    "plain": _clean_plain,
}


def clean(doc: RawDocument, cfg: CleanConfig = CleanConfig()) -> CleanDocument:
    """Clean one document according to its format hint."""
    if doc.format_hint not in _CLEANERS:
        raise CleanError(f"unknown format hint {doc.format_hint!r} for {doc.origin}")
    try:
        text = doc.data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CleanError(f"cannot decode {doc.origin}: {exc}") from None
    segments, dropped = _CLEANERS[doc.format_hint](text, cfg)
    kept = [s for s in segments if is_sentence(s, cfg)]
    return CleanDocument(kept, doc.origin, dropped + len(segments) - len(kept))


def clean_directory(in_dir: Path, out_dir: Path, cfg: CleanConfig = CleanConfig()) -> dict:
    """Clean every file in a directory, each as `cfg.format` or by its
    extension, into `sentences.jsonl` plus a JSON summary of kept/dropped
    counts.

    `sentences.jsonl` holds one `{"doc", "n", "text"}` record per kept
    sentence: the input's file name, the sentence's index within that
    document, and the sentence, in (file name, n) order.  Records are
    written one document at a time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {"files": {}, "total_kept": 0, "total_dropped": 0}
    with open(out_dir / "sentences.jsonl", "w", encoding="utf-8", newline="\n") as out:
        for path in sorted(p for p in in_dir.iterdir() if p.is_file()):
            result = clean(RawDocument.from_path(path, cfg.format), cfg)
            out.writelines(
                json.dumps({"doc": path.name, "n": n, "text": s}, ensure_ascii=False) + "\n"
                for n, s in enumerate(result.sentences)
            )
            summary["files"][path.name] = {
                "kept": len(result.sentences),
                "dropped": result.dropped_segments,
            }
            summary["total_kept"] += len(result.sentences)
            summary["total_dropped"] += result.dropped_segments
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def load_denylist(path: Path) -> frozenset[str]:
    return frozenset(w.lower() for w in read_list(path))
