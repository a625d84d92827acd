"""Core data model: RDF terms and triples, knowledge graphs, ontology schemas.

A KnowledgeGraph keeps every statement in one confidence-tracking store and
exposes schema statements (type assertions, subclass and domain/range
declarations) separately from scored data statements.  Graph values are
treated as immutable once a build phase hands them off; mutation happens
only inside single-owner build steps.

The canonical statement order is sorted once, on the first ordered read,
and kept until the set of triples changes: an `add` of a new triple or a
successful `remove` drops it, while raising the confidence of an existing
triple keeps it.  `copy()` shares the kept order with the copy.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class Term:
    """An RDF term: IRI, blank node, or literal."""

    kind: str
    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ModelError(f"unknown term kind {self.kind!r}")
        if self.kind == "iri":
            if not self.value or any(c in _IRI_FORBIDDEN for c in self.value):
                raise ModelError(f"invalid IRI {self.value!r}")
        if self.kind == "blank" and not self.value:
            raise ModelError("blank node label must be non-empty")
        if self.kind != "literal" and (self.datatype or self.language):
            raise ModelError(f"{self.kind} terms cannot carry a datatype or language tag")
        if self.datatype and self.language:
            raise ModelError("a literal cannot have both a datatype and a language tag")

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


@dataclass(frozen=True)
class Triple:
    """A (subject, predicate, object) statement."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if self.subject.is_literal:
            raise ModelError("literal terms cannot appear in subject position")
        if not self.predicate.is_iri:
            raise ModelError("predicates must be IRIs")

    def sort_key(self) -> tuple:
        return (self.subject.sort_key(), self.predicate.sort_key(), self.object.sort_key())


@dataclass(frozen=True)
class ScoredTriple:
    """A triple with a generator confidence in [0, 1]."""

    triple: Triple
    confidence: float
    source_id: str | None = None
    predicted: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ModelError(f"confidence {self.confidence} outside [0, 1]")


def is_schema_triple(t: Triple) -> bool:
    """Statements on rdf:type / rdfs:subClassOf / domain / range are T-box."""
    return t.predicate.value in SCHEMA_PREDICATES


class KnowledgeGraph:
    """Set-semantics triple store split into schema and data views.

    Duplicate inserts collapse to one statement keeping the maximum
    confidence.  Confidence is tracked for every statement, including
    schema statements, because the correction phase breaks ties on it.
    """

    def __init__(self) -> None:
        self._store: dict[Triple, ScoredTriple] = {}
        # canonical order of the store's keys; None until the next ordered read
        self._order: list[Triple] | None = None

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
        if old is None:
            self._order = None
        if old is None or st.confidence > old.confidence:
            self._store[st.triple] = st

    def add_triple(self, t: Triple, confidence: float = 1.0, source_id: str | None = None) -> None:
        self.add(ScoredTriple(t, confidence, source_id))

    def remove(self, t: Triple) -> bool:
        if self._store.pop(t, None) is None:
            return False
        self._order = None
        return True

    def _canonical(self) -> list[Triple]:
        if self._order is None:
            self._order = sorted(self._store, key=Triple.sort_key)
        return self._order

    def statements(self) -> list[ScoredTriple]:
        """All statements sorted canonically, at their current confidence."""
        store = self._store
        return [store[t] for t in self._canonical()]

    def triples(self) -> list[Triple]:
        return list(self._canonical())

    @property
    def schema_statements(self) -> list[Triple]:
        return [t for t in self._canonical() if is_schema_triple(t)]

    @property
    def data_statements(self) -> list[ScoredTriple]:
        store = self._store
        return [store[t] for t in self._canonical() if not is_schema_triple(t)]

    @property
    def provenance(self) -> dict[Triple, str]:
        return {t: s.source_id for t, s in self._store.items() if s.source_id is not None}

    def confidence(self, t: Triple, default: float = 1.0) -> float:
        st = self._store.get(t)
        return st.confidence if st is not None else default

    def statement_for(self, t: Triple) -> ScoredTriple | None:
        return self._store.get(t)

    def copy(self) -> "KnowledgeGraph":
        kg = KnowledgeGraph()
        kg._store = dict(self._store)
        kg._order = self._order  # never mutated in place, so safe to share
        return kg

    # ------------------------------------------------------------------
    # schema helpers

    def type_assertions(self) -> list[Triple]:
        return [t for t in self._canonical() if t.predicate.value == RDF_TYPE]

    def class_map(self) -> dict[Term, set[str]]:
        """Asserted classes for every typed entity, computed in one pass."""
        out: dict[Term, set[str]] = defaultdict(set)
        for t in self._store:
            if t.predicate.value == RDF_TYPE and t.object.is_iri:
                out[t.subject].add(t.object.value)
        return dict(out)

    def entities_by_class(self) -> dict[str, set[Term]]:
        out: dict[str, set[Term]] = defaultdict(set)
        for t in self._store:
            if t.predicate.value == RDF_TYPE and t.object.is_iri:
                out[t.object.value].add(t.subject)
        return dict(out)

    def subclass_edges(self) -> set[tuple[str, str]]:
        return {
            (t.subject.value, t.object.value)
            for t in self._store
            if t.predicate.value == RDFS_SUBCLASS_OF and t.subject.is_iri and t.object.is_iri
        }

    def declared_classes(self) -> set[str]:
        """Class IRIs declared via rdf:type rdfs:Class/owl:Class or subclass edges."""
        out = set()
        for t in self._store:
            if t.predicate.value == RDF_TYPE and t.object.is_iri and t.object.value in _CLASS_DECLARATIONS:
                out.add(t.subject.value)
            elif t.predicate.value == RDFS_SUBCLASS_OF:
                if t.subject.is_iri:
                    out.add(t.subject.value)
                if t.object.is_iri:
                    out.add(t.object.value)
        return out

    def unknown_classes(self) -> set[str]:
        """Classes referenced by type assertions but never declared."""
        declared = self.declared_classes()
        used = {
            t.object.value
            for t in self._store
            if t.predicate.value == RDF_TYPE and t.object.is_iri
        }
        used -= _CLASS_DECLARATIONS | _PROPERTY_DECLARATIONS
        return used - declared

    # ------------------------------------------------------------------
    # graph structure

    def data_nodes(self) -> set[Term]:
        """Subject/object terms of data statements."""
        nodes = set()
        for t in self._store:
            if not is_schema_triple(t):
                nodes.add(t.subject)
                nodes.add(t.object)
        return nodes

    def nodes(self) -> set[Term]:
        nodes = set()
        for t in self._store:
            nodes.add(t.subject)
            nodes.add(t.object)
        return nodes


def connected_components(kg: KnowledgeGraph) -> list[set[Term]]:
    """Partition data-statement nodes by undirected reachability.

    Schema statements do not contribute edges: a shared class would
    otherwise merge unrelated islands through its type assertions.
    Components come back sorted by size descending, ties broken by the
    lexicographically smallest member IRI.
    """
    parent: dict[Term, Term] = {}

    def find(x: Term) -> Term:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for t in kg.triples():
        if is_schema_triple(t):
            continue
        for node in (t.subject, t.object):
            parent.setdefault(node, node)
        union(t.subject, t.object)

    groups: dict[Term, set[Term]] = defaultdict(set)
    for node in parent:
        groups[find(node)].add(node)

    def comp_key(comp: set[Term]) -> tuple:
        iris = sorted(n.value for n in comp if n.is_iri)
        smallest = iris[0] if iris else min(n.sort_key() for n in comp)
        return (-len(comp), smallest)

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
        out: set[str] = set()
        frontier = [c]
        while frontier:
            node = frontier.pop()
            for child, par in self.subclass_edges:
                if child == node and par not in out:
                    out.add(par)
                    frontier.append(par)
        out.discard(c)
        return out

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
        order: dict[str, int] = {}

        def visit(node: str, stack: set[str]) -> None:
            if node in order:
                return
            if node in stack:
                raise ModelError(f"subclass cycle through {node!r}")
            stack.add(node)
            for child, par in self.subclass_edges:
                if child == node:
                    visit(par, stack)
            stack.discard(node)
            order[node] = len(order)

        for c in sorted(self.classes):
            visit(c, set())

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
