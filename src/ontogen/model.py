"""Core data model: RDF terms and triples, knowledge graphs, ontology schemas.

A KnowledgeGraph keeps every statement in one confidence-tracking store and
exposes schema statements (type assertions, subclass and domain/range
declarations) separately from scored data statements.  A phase never edits
the graph it is given: it derives its output with `without`.

Terms and triples are slotted, immutable objects that hash once: each
stores its hash when it is built, with the value the field tuple would
give, so every dict and set lookup reuses it and iteration order is that
of hashing the fields.  The parsers intern terms, so one object stands
for each distinct term of an input and a lookup matches it by identity
before comparing any field.

A graph is built with `add`, then derived with one call.  `add` updates
only the store and drops the cached views.  The ordered and grouped views
read the statements in canonical order, sorted on the first read, and the
same statements grouped by predicate IRI, each group in canonical order and
built on its first read.  `without(triples, added)` derives a new graph:
this graph's canonical list, filtered, with the additions it keeps sorted
once and merged in, so no statement it keeps is sorted again.  Canonical
order sorts by subject first, so a phase that lists statements or subjects
filters this list instead of sorting.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

RDF_TYPE = RDF_NS + "type"
RDF_PROPERTY = RDF_NS + "Property"
RDFS_SUBCLASS_OF = RDFS_NS + "subClassOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
RDFS_CLASS = RDFS_NS + "Class"
RDFS_LITERAL = RDFS_NS + "Literal"
OWL_CLASS = OWL_NS + "Class"
OWL_DISJOINT_WITH = OWL_NS + "disjointWith"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DATATYPE_PROPERTY = OWL_NS + "DatatypeProperty"

#: predicates whose statements belong to the schema (T-box) side of a graph
SCHEMA_PREDICATES = frozenset({RDF_TYPE, RDFS_SUBCLASS_OF, RDFS_DOMAIN, RDFS_RANGE})

#: marker for a literal-valued range in a property declaration
LITERAL_RANGE = "literal"

_CLASS_DECLARATIONS = frozenset({RDFS_CLASS, OWL_CLASS})
_PROPERTY_DECLARATIONS = frozenset({RDF_PROPERTY, OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY})

#: meta-level vocabulary classes; typing something as one of these is a
#: declaration, not an instance assertion
META_CLASSES = _CLASS_DECLARATIONS | _PROPERTY_DECLARATIONS

# IRIs must be usable inside <...> serialization, so angle brackets and
# quotes are rejected along with whitespace.
_IRI_FORBIDDEN = frozenset(' \t\n\r\f\v<>"')

_KIND_ORDER = {"blank": 0, "iri": 1, "literal": 2}


class ModelError(ValueError):
    """Malformed term, triple, or schema."""


class UnknownClassError(ModelError):
    """A class IRI was not found in the ontology schema."""


@dataclass(frozen=True, slots=True)
class Term:
    """An RDF term: IRI, blank node, or literal.

    Its hash is computed once, as `hash((kind, value, datatype, language))`;
    a pickled term carries only its four fields, since string hashes
    differ between processes."""

    kind: str
    value: str
    datatype: str | None = None
    language: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ModelError(f"unknown term kind {self.kind!r}")
        if self.kind == "iri":
            if not self.value or not _IRI_FORBIDDEN.isdisjoint(self.value):
                raise ModelError(f"invalid IRI {self.value!r}")
        if self.kind == "blank" and not self.value:
            raise ModelError("blank node label must be non-empty")
        if self.kind != "literal" and (self.datatype or self.language):
            raise ModelError(f"{self.kind} terms cannot carry a datatype or language tag")
        if self.datatype and self.language:
            raise ModelError("a literal cannot have both a datatype and a language tag")
        fields = (self.kind, self.value, self.datatype, self.language)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Term, (self.kind, self.value, self.datatype, self.language)

    @staticmethod
    def iri(value: str) -> "Term":
        return Term("iri", value)

    @staticmethod
    def blank(label: str) -> "Term":
        return Term("blank", label)

    @staticmethod
    def literal(value: str, datatype: str | None = None, language: str | None = None) -> "Term":
        return Term("literal", value, datatype, language)

    @property
    def is_literal(self) -> bool:
        return self.kind == "literal"

    @property
    def is_iri(self) -> bool:
        return self.kind == "iri"

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.value, self.datatype or "", self.language or "")


@dataclass(frozen=True, slots=True)
class Triple:
    """A (subject, predicate, object) statement, hashed once as
    `hash((subject, predicate, object))`."""

    subject: Term
    predicate: Term
    object: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.subject.is_literal:
            raise ModelError("literal terms cannot appear in subject position")
        if not self.predicate.is_iri:
            raise ModelError("predicates must be IRIs")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Triple, (self.subject, self.predicate, self.object)

    def sort_key(self) -> tuple:
        return (self.subject.sort_key(), self.predicate.sort_key(), self.object.sort_key())


@dataclass(frozen=True, slots=True)
class ScoredTriple:
    """A triple with a generator confidence in [0, 1]."""

    triple: Triple
    confidence: float
    source_id: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ModelError(f"confidence {self.confidence} outside [0, 1]")


def is_schema_triple(t: Triple) -> bool:
    """Statements on rdf:type / rdfs:subClassOf / domain / range are T-box."""
    return t.predicate.value in SCHEMA_PREDICATES


def _canonical_key(st: ScoredTriple) -> tuple:
    return st.triple.sort_key()


class KnowledgeGraph:
    """Set-semantics triple store split into schema and data views.

    Duplicate inserts collapse to one statement keeping the maximum
    confidence.  Confidence is tracked for every statement, including
    schema statements, because the correction phase breaks ties on it.
    """

    def __init__(self) -> None:
        self._store: dict[Triple, ScoredTriple] = {}
        # the canonical list and its per-predicate grouping, None until read
        self._sorted: list[ScoredTriple] | None = None
        self._groups: dict[str, list[ScoredTriple]] | None = None

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, t: Triple) -> bool:
        return t in self._store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._store == other._store

    def add(self, st: ScoredTriple) -> None:
        """Insert a statement; an existing copy keeps the max confidence."""
        old = self._store.get(st.triple)
        if old is not None and st.confidence <= old.confidence:
            return
        self._store[st.triple] = st
        self._sorted = self._groups = None

    def add_triple(self, t: Triple, confidence: float = 1.0, source_id: str | None = None) -> None:
        self.add(ScoredTriple(t, confidence, source_id))

    def without(
        self, triples: Iterable[Triple], added: Iterable[ScoredTriple] = ()
    ) -> KnowledgeGraph:
        """A new graph holding every statement not in `triples`, then each of
        `added` as `add` would insert it.  Its canonical list is this graph's,
        filtered by statement identity, with the kept additions sorted once
        and merged in after any equal key: no kept statement is sorted again."""
        kg = KnowledgeGraph()
        kg._store = store = dict(self._store)
        gone = {id(store.pop(t)) for t in set(triples) if t in store}
        added = list(added)
        for st in added:
            kg.add(st)
        new = {st.triple: st for st in added if store[st.triple] is st}
        gone.update(id(self._store[t]) for t in new if t in self._store)
        parent = self._canonical()
        rest, start = iter(parent), 0
        kg._sorted = out = []
        for st in sorted(new.values(), key=_canonical_key):
            stop = bisect_right(parent, st.triple.sort_key(), start, key=_canonical_key)
            out += (s for s in islice(rest, stop - start) if id(s) not in gone)
            out.append(st)
            start = stop
        out += (s for s in rest if id(s) not in gone)
        return kg

    def _canonical(self) -> list[ScoredTriple]:
        if self._sorted is None:
            self._sorted = sorted(self._store.values(), key=_canonical_key)
        return self._sorted

    def statements(self) -> list[ScoredTriple]:
        """All statements sorted canonically, at their current confidence."""
        return list(self._canonical())

    def triples(self) -> list[Triple]:
        return [st.triple for st in self._canonical()]

    @property
    def schema_statements(self) -> list[Triple]:
        return [st.triple for st in self._canonical() if is_schema_triple(st.triple)]

    @property
    def data_statements(self) -> list[ScoredTriple]:
        return [st for st in self._canonical() if not is_schema_triple(st.triple)]

    def with_predicate(self, predicate: str) -> list[ScoredTriple]:
        """Statements whose predicate IRI is `predicate`, in canonical order."""
        if self._groups is None:
            self._groups = {}
            for st in self._canonical():
                self._groups.setdefault(st.triple.predicate.value, []).append(st)
        return list(self._groups.get(predicate, []))

    def statement_for(self, t: Triple) -> ScoredTriple | None:
        return self._store.get(t)

    # ------------------------------------------------------------------
    # schema helpers

    def type_assertions(self) -> list[Triple]:
        return [st.triple for st in self.with_predicate(RDF_TYPE)]

    def class_map(self) -> dict[Term, set[str]]:
        """Asserted classes for every typed entity."""
        out: dict[Term, set[str]] = defaultdict(set)
        for st in self.with_predicate(RDF_TYPE):
            if st.triple.object.is_iri:
                out[st.triple.subject].add(st.triple.object.value)
        return dict(out)

    def entities_by_class(self) -> dict[str, set[Term]]:
        out: dict[str, set[Term]] = defaultdict(set)
        for st in self.with_predicate(RDF_TYPE):
            if st.triple.object.is_iri:
                out[st.triple.object.value].add(st.triple.subject)
        return dict(out)

    def subclass_edges(self) -> set[tuple[str, str]]:
        return {
            (st.triple.subject.value, st.triple.object.value)
            for st in self.with_predicate(RDFS_SUBCLASS_OF)
            if st.triple.subject.is_iri and st.triple.object.is_iri
        }

    def unknown_classes(self) -> set[str]:
        """Classes referenced by type assertions but never declared, either
        typed rdfs:Class/owl:Class or on either side of a subclass edge."""
        types = [st.triple for st in self.with_predicate(RDF_TYPE) if st.triple.object.is_iri]
        declared = {t.subject.value for t in types if t.object.value in _CLASS_DECLARATIONS}
        for st in self.with_predicate(RDFS_SUBCLASS_OF):
            declared.update(x.value for x in (st.triple.subject, st.triple.object) if x.is_iri)
        return {t.object.value for t in types} - META_CLASSES - declared

    # ------------------------------------------------------------------
    # graph structure

    def nodes(self) -> set[Term]:
        nodes = set()
        for t in self._store:
            nodes.add(t.subject)
            nodes.add(t.object)
        return nodes


def reachable(edges: Iterable[tuple[str, str]], start: Iterable[str]) -> set[str]:
    """`start` plus every node reachable from it along directed (from, to) edges."""
    successors: dict[str, list[str]] = defaultdict(list)
    for a, b in edges:
        successors[a].append(b)
    out = set(start)
    stack = list(out)
    while stack:
        for b in successors.get(stack.pop(), ()):
            if b not in out:
                out.add(b)
                stack.append(b)
    return out


def connected_components(statements: Iterable[ScoredTriple]) -> list[set[Term]]:
    """Partition the nodes of the data statements by undirected reachability.

    Schema statements do not contribute edges: a shared class would
    otherwise merge unrelated islands through its type assertions.
    Components come back sorted by size descending, ties broken by the
    lexicographically smallest member IRI; a component without an IRI
    goes after every one of its size that has one, ordered by its
    smallest member's `sort_key`.
    """
    # every value is a stored key, so roots can be compared by identity
    parent: dict[Term, Term] = {}

    def find(x: Term) -> Term:
        root = x
        while parent[root] is not root:
            root = parent[root]
        while parent[x] is not root:
            parent[x], x = root, parent[x]
        return root

    for t in (st.triple for st in statements if not is_schema_triple(st.triple)):
        ra = find(parent.setdefault(t.subject, t.subject))
        rb = find(parent.setdefault(t.object, t.object))
        if ra is not rb:
            parent[rb] = ra

    groups: dict[Term, set[Term]] = defaultdict(set)
    for node in parent:
        groups[find(node)].add(node)

    def comp_key(comp: set[Term]) -> tuple:
        smallest = min((n.value for n in comp if n.is_iri), default=None)
        if smallest is None:
            return (-len(comp), 1, min(n.sort_key() for n in comp))
        return (-len(comp), 0, smallest)

    return sorted(groups.values(), key=comp_key)


@dataclass
class PropertyDecl:
    """Domain and range class sets of a declared property."""

    domains: set[str] = field(default_factory=set)
    ranges: set[str] = field(default_factory=set)


@dataclass
class OntologySchema:
    """Classes, subclass DAG, property declarations, disjointness axioms,
    and reference facts of an ontology used for checking."""

    classes: set[str] = field(default_factory=set)
    subclass_edges: set[tuple[str, str]] = field(default_factory=set)
    properties: dict[str, PropertyDecl] = field(default_factory=dict)
    disjoint_pairs: set[tuple[str, str]] = field(default_factory=set)
    facts: set[Triple] = field(default_factory=set)

    def declare_disjoint(self, a: str, b: str) -> None:
        self.disjoint_pairs.add((a, b) if a <= b else (b, a))

    def is_declared_disjoint(self, a: str, b: str) -> bool:
        pair = (a, b) if a <= b else (b, a)
        return pair in self.disjoint_pairs

    def ancestors(self, c: str) -> set[str]:
        """Transitive superclass closure of c, excluding c itself."""
        if c not in self.classes:
            raise UnknownClassError(f"unknown class {c!r}")
        return reachable(self.subclass_edges, {c}) - {c}

    def ancestors_or_self(self, c: str) -> set[str]:
        return self.ancestors(c) | {c}

    def disjoint(self, c1: str, c2: str) -> bool:
        """True iff the declared axioms separate c1 and c2, inheriting downward."""
        return self.disjoint_witness(c1, c2) is not None

    def disjoint_witness(self, c1: str, c2: str) -> tuple[str, str] | None:
        """The declared axiom pair making c1 and c2 disjoint, if any."""
        up1 = self.ancestors_or_self(c1)
        up2 = self.ancestors_or_self(c2)
        hits = []
        for a in up1:
            for b in up2:
                if a != b and self.is_declared_disjoint(a, b):
                    hits.append((a, b) if a <= b else (b, a))
        return min(hits) if hits else None

    def validate(self) -> None:
        """Raise ModelError on cyclic subclass edges or self/ancestor disjointness."""
        for child, par in self.subclass_edges:
            self.classes.update((child, par))
        for c in sorted(self.classes):
            parents = {par for child, par in self.subclass_edges if child == c}
            if c in reachable(self.subclass_edges, parents):
                raise ModelError(f"subclass cycle through {c!r}")

        for a, b in sorted(self.disjoint_pairs):
            if a == b:
                raise ModelError(f"class {a!r} declared disjoint with itself")
            if a in self.ancestors_or_self(b) or b in self.ancestors_or_self(a):
                raise ModelError(f"class declared disjoint with its own ancestor: {a!r}/{b!r}")


def ontology_from_triples(triples: list[Triple]) -> OntologySchema:
    """Build an OntologySchema from parsed RDF statements.

    Class declarations, subclass edges, property domain/range statements,
    and owl:disjointWith axioms are interpreted; everything else lands in
    the reference fact set.
    """
    schema = OntologySchema()
    for t in triples:
        p = t.predicate.value
        s = t.subject.value
        if p == RDF_TYPE and t.object.is_iri and t.object.value in _CLASS_DECLARATIONS:
            schema.classes.add(s)
        elif p == RDF_TYPE and t.object.is_iri and t.object.value in _PROPERTY_DECLARATIONS:
            schema.properties.setdefault(s, PropertyDecl())
        elif p == RDFS_SUBCLASS_OF and t.object.is_iri:
            schema.subclass_edges.add((s, t.object.value))
            schema.classes.update((s, t.object.value))
        elif p == RDFS_DOMAIN and t.object.is_iri:
            schema.properties.setdefault(s, PropertyDecl()).domains.add(t.object.value)
            schema.classes.add(t.object.value)
        elif p == RDFS_RANGE and t.object.is_iri:
            rng = t.object.value
            if rng == RDFS_LITERAL or rng.startswith("http://www.w3.org/2001/XMLSchema#"):
                rng = LITERAL_RANGE
            else:
                schema.classes.add(rng)
            schema.properties.setdefault(s, PropertyDecl()).ranges.add(rng)
        elif p == OWL_DISJOINT_WITH and t.object.is_iri:
            schema.declare_disjoint(s, t.object.value)
            schema.classes.update((s, t.object.value))
        else:
            schema.facts.add(t)
    schema.validate()
    return schema
