"""Corpus cleaning: strip HTML/RSS/XML boilerplate and keep sentence-bearing text.

Dispatch is by format hint.  HTML pages contribute paragraph-tag text after
ad containers are removed; RSS feeds contribute item titles and
descriptions; XML contributes per-tag text; plain text contributes lines.
Every retained string must pass the sentence heuristic.

HTML is read tolerantly, in one pass: a new `<p>` closes an open one; an
end tag closes everything opened after its match and is ignored if nothing
matches; void tags (`<br>`, `<img>`, ...) and self-closed `<x/>` open
nothing, and `<x/>` closes no `<p>`.  An element is removed with its
subtree if its tag is structural (`STRUCTURAL_TAGS`) or if a token of its
tag, `id` or `class` is on the denylist; a feed that is not well-formed
XML is read the same way."""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
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
        # tokens are matched against lowercased text
        object.__setattr__(self, "denylist", frozenset(w.lower() for w in self.denylist))


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
# tolerant HTML reader

class _HtmlReader(HTMLParser):
    """Reads `text` on construction, keeping every piece of `text`, each
    element's `(tag, direct text pieces)` in document order, each kept
    `<p>`'s text pieces outside removed subtrees, and in `removed` the
    count of removed elements that have no removed ancestor."""

    def __init__(self, text: str, denylist: frozenset[str] = DEFAULT_DENYLIST) -> None:
        super().__init__(convert_charrefs=True)
        self.denylist = denylist
        self.text: list[str] = []
        self.elements: list[tuple[str, list[str]]] = []
        self.paragraphs: list[list[str]] = []
        self.removed = 0
        self._tags: list[str] = []  # open elements, outermost first
        self._open: list[tuple[list[str], bool]] = []  # their direct text, removed?
        self._hidden = 0  # open elements that are removed
        self._in_p = False
        self.feed(text)
        self.close()

    def handle_starttag(self, tag, attrs):
        if tag == "p" and self._in_p:
            self._close("p")
        self._element(tag, attrs, tag not in _VOID_TAGS)

    def handle_startendtag(self, tag, attrs):
        self._element(tag, attrs, False)

    def handle_endtag(self, tag):
        if tag in self._tags:
            self._close(tag)

    def handle_data(self, data):
        self.text.append(data)
        if self._open:
            self._open[-1][0].append(data)
        if self._in_p and not self._hidden:
            self.paragraphs[-1].append(data)

    def _element(self, tag: str, attrs, opens: bool) -> None:
        direct: list[str] = []
        self.elements.append((tag, direct))
        attrs = dict(attrs)  # the last of a repeated attribute wins
        raw = f"{tag} {attrs.get('id') or ''} {attrs.get('class') or ''}".lower()
        hides = tag in STRUCTURAL_TAGS or not self.denylist.isdisjoint(
            filter(None, _TOKEN_SPLIT.split(raw))
        )
        if hides and not self._hidden:
            self.removed += 1
        if opens:
            self._tags.append(tag)
            self._open.append((direct, hides))
            self._hidden += hides
            if tag == "p":
                self._in_p = True
                if not self._hidden:
                    self.paragraphs.append([])

    def _close(self, tag: str) -> None:
        while True:
            top = self._tags.pop()
            self._hidden -= self._open.pop()[1]
            if top == "p":
                self._in_p = False
            if top == tag:
                return


def _normalize(text: str) -> str:
    return _WS.sub(" ", text).strip()


def _strip_markup(text: str) -> str:
    """Flatten embedded HTML (e.g. inside RSS descriptions) to plain text."""
    if "<" not in text:
        return _normalize(text)
    return _normalize("".join(_HtmlReader(text).text))


# ----------------------------------------------------------------------
# cleaning proper

# Each cleaner returns its non-empty candidate segments and the number of
# removed ad/boilerplate containers; `clean` applies the sentence filter.

def _clean_html(text: str, cfg: CleanConfig) -> tuple[list[str], int]:
    reader = _HtmlReader(text, cfg.denylist)
    segments = [_normalize("".join(p)) for p in reader.paragraphs]
    return [s for s in segments if s], reader.removed


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1].lower()


def _iter_xml_elements(text: str):
    """(tag, direct text, in_item) for every element in document order.
    `in_item` means an `<item>` ancestor; on the HTML fallback for text
    that is not well-formed XML, an `<item>` anywhere earlier."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        seen_item = False
        for tag, direct in _HtmlReader(text).elements:
            yield tag, "".join(direct), seen_item
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

