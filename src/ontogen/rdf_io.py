"""On-disk formats: an N-Triples subset, a read-only Turtle subset, the
line-delimited scored-triple ingestion format, and DOT export.

Parsers never raise on malformed content; bad lines become diagnostics and
are skipped.  The one hard error is input that does not decode as UTF-8.
Every reader frames its input the same way: lines end at "\n" (one "\r"
before it is dropped), and are decoded one at a time, so a Unicode line
separator inside a literal or JSON string stays part of its line.

Each parse call interns its terms: every distinct (kind, value, datatype,
language) becomes one `Term`, shared by all the statements that use it.
`serialize_ntriples` renders and encodes each distinct term once per call,
and a literal with nothing to escape is written as it is.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import KnowledgeGraph, ModelError, ScoredTriple, Term, Triple, RDF_TYPE


class ParseError(ValueError):
    """Unrecoverable parse failure (non-UTF-8 input, bad single term)."""


@dataclass(frozen=True)
class Diagnostic:
    """One skipped line: where and why."""

    line: int
    message: str


_IRI_RE = r"<([^>]*)>"
_BLANK_RE = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_LITERAL_RE = r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@([A-Za-z]+(?:-[A-Za-z0-9]+)*))?'

_SUBJECT_RE = f"(?:{_IRI_RE}|{_BLANK_RE})"

_NT_LINE = re.compile(
    rf"^[ \t]*{_SUBJECT_RE}[ \t]+{_IRI_RE}[ \t]+"
    rf"(?:<([^>]*)>|_:([A-Za-z0-9][A-Za-z0-9_.-]*)|{_LITERAL_RE})"
    rf"[ \t]*\.[ \t]*(?:#.*)?$"
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
#: a character `_escape_char` changes
_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f\x85\u2028\u2029]')
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape_char(c: str) -> str:
    if c in _ESCAPES:
        return _ESCAPES[c]
    # control and line-separator characters would break line framing
    if ord(c) < 0x20 or c in "\x85  ":
        return f"\\u{ord(c):04x}"
    return c


def _escape_literal(value: str) -> str:
    if _NEEDS_ESCAPE.search(value) is None:
        return value
    return "".join(_escape_char(c) for c in value)


def _unescape_literal(raw: str) -> str:
    out = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ParseError("dangling escape")
        nxt = raw[i + 1]
        if nxt in _UNESCAPES:
            out.append(_UNESCAPES[nxt])
            i += 2
        elif nxt == "u":
            hexpart = raw[i + 2 : i + 6]
            if len(hexpart) != 4 or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
                raise ParseError(f"bad \\u escape at offset {i}")
            out.append(chr(int(hexpart, 16)))
            i += 6
        else:
            raise ParseError(f"unsupported escape \\{nxt}")
    return "".join(out)


def render_term(t: Term) -> str:
    """The N-Triples form of a term."""
    if t.kind == "iri":
        return f"<{t.value}>"
    if t.kind == "blank":
        return f"_:{t.value}"
    body = f'"{_escape_literal(t.value)}"'
    if t.datatype:
        return f"{body}^^<{t.datatype}>"
    if t.language:
        return f"{body}@{t.language}"
    return body


def render_triple(t: Triple) -> str:
    return f"{render_term(t.subject)} {render_term(t.predicate)} {render_term(t.object)} ."


def parse_term(text: str) -> Term:
    """Parse a single rendered term; raises ParseError on malformed input."""
    text = text.strip()
    m = re.fullmatch(_IRI_RE, text)
    if m:
        return Term.iri(m.group(1))
    m = re.fullmatch(_BLANK_RE, text)
    if m:
        return Term.blank(m.group(1))
    m = re.fullmatch(_LITERAL_RE, text)
    if m:
        return Term.literal(_unescape_literal(m.group(1)), m.group(2), m.group(3))
    raise ParseError(f"cannot parse term {text!r}")


def _interner():
    """A `Term` constructor that returns one shared term per distinct
    (kind, value, datatype, language) over all its calls.  A term with
    neither datatype nor language tag is keyed by its value alone, in one
    dict per kind, so only tagged literals cost a key tuple."""
    by_kind: dict[str, dict[str, Term]] = {"iri": {}, "blank": {}, "literal": {}}
    tagged: dict[tuple, Term] = {}

    def term(kind: str, value: str, datatype: str | None = None,
             language: str | None = None) -> Term:
        if datatype is None and language is None and kind in by_kind:
            terms, key = by_kind[kind], value
        else:
            terms, key = tagged, (kind, value, datatype, language)
        t = terms.get(key)
        if t is None:
            t = terms[key] = Term(kind, value, datatype, language)
        return t

    return term


def _decode(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


def _lines(data: bytes, what: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of `data`: split on b"\n" only, one trailing "\r"
    dropped, each decoded as UTF-8 on its own.  Undecodable input raises the
    `_decode` error for all of `data`, so its offset counts from the start."""
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            _decode(data, what)
            raise
        yield lineno, line.removesuffix("\n").removesuffix("\r")


def parse_ntriples(data: bytes) -> tuple[list[Triple], list[Diagnostic]]:
    """Parse the N-Triples subset; invalid lines become diagnostics."""
    triples: list[Triple] = []
    diagnostics: list[Diagnostic] = []
    term = _interner()
    for lineno, line in _lines(data, "N-Triples input"):
        line = line.rstrip("\r")  # an N-Triples line end is any run of \r and \n
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _NT_LINE.match(line)
        if not m:
            diagnostics.append(Diagnostic(lineno, f"not a valid triple line: {stripped[:80]!r}"))
            continue
        s_iri, s_blank, p_iri, o_iri, o_blank, o_lit, o_dt, o_lang = m.groups()
        try:
            subject = term("iri", s_iri) if s_iri is not None else term("blank", s_blank)
            predicate = term("iri", p_iri)
            if o_iri is not None:
                obj = term("iri", o_iri)
            elif o_blank is not None:
                obj = term("blank", o_blank)
            else:
                obj = term("literal", _unescape_literal(o_lit), o_dt, o_lang)
            triples.append(Triple(subject, predicate, obj))
        except (ModelError, ParseError) as exc:
            diagnostics.append(Diagnostic(lineno, str(exc)))
    return triples, diagnostics


def serialize_ntriples(triples: Iterable[Triple]) -> bytes:
    """Deterministic N-Triples: unique triples sorted by rendered (s, p, o),
    each distinct term rendered and UTF-8 encoded once.

    The byte tuples sort as their text would (UTF-8 byte order is code
    point order), and the lines are written straight into one buffer.
    """
    encoded: dict[Term, bytes] = {}

    def encode(t: Term) -> bytes:
        raw = encoded.get(t)
        if raw is None:
            raw = encoded[t] = render_term(t).encode("utf-8")
        return raw

    lines = sorted({(encode(t.subject), encode(t.predicate), encode(t.object)) for t in triples})
    out = io.BytesIO()
    for line in lines:
        out.write(b"%s %s %s .\n" % line)
    return out.getvalue()


# ----------------------------------------------------------------------
# Turtle subset (read-only)

_PREFIX_LINE = re.compile(r"@prefix\s+([A-Za-z][A-Za-z0-9_-]*)?:\s*<([^>]*)>\s*\.\s*$")
_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_-]*)?:([A-Za-z0-9_][A-Za-z0-9_.-]*)$")

#: one token; a literal's body, datatype and language are groups 1-3,
#: the one literal grammar N-Triples uses too
_TTL_TOKEN = re.compile(
    rf"""
    <[^>]*>                                 # IRI
    | {_LITERAL_RE}
    | [A-Za-z][A-Za-z0-9_-]*?:[A-Za-z0-9_][A-Za-z0-9_.-]*        # prefixed name
    | :[A-Za-z0-9_][A-Za-z0-9_.-]*          # default-prefix name
    | \ba\b                                 # rdf:type shorthand
    | \.
    """,
    re.VERBOSE,
)

#: a line up to its first `#` outside a literal or IRI (either may be
#: unterminated; a backslash escapes the next character of a literal)
_TTL_BEFORE_COMMENT = re.compile(r'(?:[^"<#]|"(?:[^"\\]|\\.|\\$)*"?|<[^>]*>?)*')


def parse_turtle(data: bytes) -> tuple[list[Triple], list[Diagnostic]]:
    """Parse the Turtle subset: @prefix declarations plus one-triple statements.

    Prefixed names are expanded at parse time; `a` abbreviates rdf:type.
    """
    prefixes: dict[str, str] = {}
    triples: list[Triple] = []
    diagnostics: list[Diagnostic] = []
    pending: list[tuple[int, re.Match]] = []
    term = _interner()
    spoiled = False

    def expand(tok: re.Match, lineno: int) -> Term | None:
        token = tok.group(0)
        if token == "a":
            return term("iri", RDF_TYPE)
        if token.startswith("<"):
            return term("iri", token[1:-1])
        if token.startswith('"'):
            return term("literal", _unescape_literal(tok.group(1)), tok.group(2), tok.group(3))
        m = _PNAME_RE.match(token)
        if m:
            prefix = m.group(1) or ""
            if prefix not in prefixes:
                diagnostics.append(Diagnostic(lineno, f"unknown prefix {prefix!r}:"))
                return None
            return term("iri", prefixes[prefix] + m.group(2))
        diagnostics.append(Diagnostic(lineno, f"cannot interpret token {token!r}"))
        return None

    def stray(text: str, lineno: int) -> bool:
        """Whether `text`, found between tokens, is more than blanks; if so
        it is reported."""
        text = text.strip()
        if text:
            diagnostics.append(Diagnostic(lineno, f"unexpected text {text!r}"))
        return bool(text)

    def flush(skip: bool) -> None:
        """Add the pending statement, unless `skip` (stray text inside it
        was already reported)."""
        tokens = [tok for _, tok in pending]
        first_line = pending[0][0] if pending else 0
        pending.clear()
        if skip or not tokens:
            return
        if len(tokens) != 3:
            diagnostics.append(
                Diagnostic(first_line, f"expected 3 terms per statement, got {len(tokens)}")
            )
            return
        try:
            terms = [expand(tok, first_line) for tok in tokens]
            if all(t is not None for t in terms):
                triples.append(Triple(terms[0], terms[1], terms[2]))
        except (ModelError, ParseError) as exc:
            diagnostics.append(Diagnostic(first_line, str(exc)))

    for lineno, raw in _lines(data, "Turtle input"):
        line = _TTL_BEFORE_COMMENT.match(raw).group(0).strip()
        if not line:
            continue
        pm = _PREFIX_LINE.match(line)
        if pm:
            prefixes[pm.group(1) or ""] = pm.group(2)
            continue
        pos = 0
        for m in _TTL_TOKEN.finditer(line):
            spoiled |= stray(line[pos : m.start()], lineno)
            pos = m.end()
            if m.group(0) == ".":
                flush(spoiled)
                spoiled = False
            else:
                pending.append((lineno, m))
        # text after a line's last "." spoils no statement
        spoiled = (stray(line[pos:], lineno) or spoiled) and bool(pending)
    if pending:
        diagnostics.append(Diagnostic(pending[0][0], "statement not terminated by '.'"))
        pending.clear()
    return triples, diagnostics


# ----------------------------------------------------------------------
# scored-triple ingestion records

def parse_scored_jsonl(data: bytes) -> tuple[list[ScoredTriple], list[Diagnostic]]:
    """Parse line-delimited scored-triple records.

    Keys: `s`, `p`, `o`, `o_kind` (iri|literal), `conf`, optional `id`.
    Subjects starting with `_:` are read as blank nodes.  Records with a
    confidence outside [0, 1] are skipped with a diagnostic.
    """
    out: list[ScoredTriple] = []
    diagnostics: list[Diagnostic] = []
    term = _interner()
    for lineno, line in _lines(data, "scored-triple input"):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            diagnostics.append(Diagnostic(lineno, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(rec, dict):
            diagnostics.append(Diagnostic(lineno, "record is not an object"))
            continue
        missing = {"s", "p", "o", "o_kind", "conf"} - rec.keys()
        if missing:
            diagnostics.append(Diagnostic(lineno, f"missing keys: {sorted(missing)}"))
            continue
        conf = rec["conf"]
        if not isinstance(conf, (int, float)) or isinstance(conf, bool) or not 0.0 <= conf <= 1.0:
            diagnostics.append(Diagnostic(lineno, f"confidence {conf!r} outside [0, 1]"))
            continue
        if rec["o_kind"] not in ("iri", "literal"):
            diagnostics.append(Diagnostic(lineno, f"unknown o_kind {rec['o_kind']!r}"))
            continue
        try:
            s = str(rec["s"])
            subject = term("blank", s[2:]) if s.startswith("_:") else term("iri", s)
            predicate = term("iri", str(rec["p"]))
            obj = term(rec["o_kind"], str(rec["o"]))
            out.append(
                ScoredTriple(Triple(subject, predicate, obj), float(conf), rec.get("id"))
            )
        except ModelError as exc:
            diagnostics.append(Diagnostic(lineno, str(exc)))
    return out, diagnostics


# ----------------------------------------------------------------------
# DOT export

def local_name(iri: str) -> str:
    for sep in ("#", "/", ":"):
        if sep in iri:
            return iri.rsplit(sep, 1)[1] or iri
    return iri


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def export_dot(kg: KnowledgeGraph) -> bytes:
    """Render a knowledge graph as a deterministic DOT digraph."""
    terms = sorted(kg.nodes(), key=Term.sort_key)
    ids = {t: f"n{i}" for i, t in enumerate(terms)}
    lines = ["digraph kg {"]
    for t in terms:
        lines.append(f"  {ids[t]} [label={_dot_quote(t.value)}];")
    for t in kg.triples():
        label = local_name(t.predicate.value)
        lines.append(f"  {ids[t.subject]} -> {ids[t.object]} [label={_dot_quote(label)}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
