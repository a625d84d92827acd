"""Seeded input generator for the benchmark workloads.

The benchmark owns its inputs: this module does not import `ontogen` or the
test suite, so an edit to either cannot change what the benchmark measures
without `test_perfbench.py` noticing.  At 500 companies, a 12-statement
borderline band and the five bundled documents, `write_pipeline_inputs`
writes the same bytes as `tests/fixture_factory.write_pipeline_fixture`,
and `kinship_split` returns the same split as the fixture of that name.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import yaml

EX = "http://example.org/"
CO = EX + "company/"
PROP = EX + "prop/"
CLS = EX + "class/"
FOCUS = EX + "focus/"
MISC = EX + "misc/"
KIN = EX + "kin/"
REL = EX + "rel/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_CLASS = "http://www.w3.org/2000/01/rdf-schema#Class"

FOCUSES = [
    "Technology",
    "Energy",
    "Healthcare",
    "Retail",
    "Finance",
    "Transportation",
    "FoodAndBeverage",
]

LITERAL_PROPERTIES = [
    "rank",
    "companyName",
    "employees",
    "previousRank",
    "revenues",
    "revenueChange",
    "profits",
    "profitChange",
    "assets",
    "marketValue",
]

#: the company properties the domain ontology declares
SHARED_PROPERTIES = [
    "rank",
    "companyName",
    "employees",
    "revenues",
    "profits",
    "assets",
    "marketValue",
    "businessFocus",
]

CORPUS_DIR = Path(__file__).parent / "corpus"

#: the reference configuration: 500 companies, 12 band statements
DEMO_COMPANIES = 500
DEMO_BAND = 12


def company(i: int) -> str:
    return f"{CO}C{i:03d}"


def prop(name: str) -> str:
    return PROP + name


def focus(name: str) -> str:
    return FOCUS + name


def true_focus(i: int) -> str:
    return FOCUSES[i % 7]


def assigned_count(companies: int) -> int:
    """Companies 1..k carry an asserted focus: 70 of 500, 14% in general."""
    return companies * 7 // 50


# ----------------------------------------------------------------------
# ontologies


def reference_axioms_turtle() -> str:
    lines = [
        "@prefix ex: <http://example.org/class/> .",
        "@prefix p: <http://example.org/prop/> .",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "",
        "ex:Entity a owl:Class .",
    ]
    subclass = [
        ("Abstract", "Entity"),
        ("Agent", "Entity"),
        ("PhysicalObject", "Entity"),
        ("Event", "Entity"),
        ("Location", "Entity"),
        ("TimeInterval", "Abstract"),
        ("Amount", "Abstract"),
        ("BusinessFocus", "Abstract"),
        ("Person", "Agent"),
        ("SocialAgent", "Agent"),
        ("Company", "SocialAgent"),
        ("School", "SocialAgent"),
        ("GovernmentBody", "SocialAgent"),
        ("City", "Location"),
        ("Country", "Location"),
        ("Building", "PhysicalObject"),
        ("Device", "PhysicalObject"),
        ("Document", "PhysicalObject"),
        ("Meeting", "Event"),
    ]
    lines += [f"ex:{child} rdfs:subClassOf ex:{parent} ." for child, parent in subclass]
    disjoint = [
        ("Agent", "Location"),
        ("Agent", "Abstract"),
        ("Agent", "Event"),
        ("PhysicalObject", "Abstract"),
        ("PhysicalObject", "Event"),
        ("PhysicalObject", "Location"),
        ("Location", "Abstract"),
        ("Location", "Event"),
        ("Event", "Abstract"),
        ("Person", "SocialAgent"),
        ("TimeInterval", "Amount"),
        ("TimeInterval", "BusinessFocus"),
        ("Amount", "BusinessFocus"),
        ("Company", "School"),
        ("Company", "GovernmentBody"),
        ("City", "Country"),
    ]
    lines.append("")
    lines += [f"ex:{a} owl:disjointWith ex:{b} ." for a, b in disjoint]
    lines.append("")
    domains = {
        "businessFocus": ("Company", "BusinessFocus"),
        "operatesIn": ("Company", "BusinessFocus"),
        "competesWith": ("Company", "Company"),
        "estimatedBrandValue": ("Company", None),
        "rumoredMerger": ("Company", "Company"),
        "bornIn": ("Person", "City"),
        "attends": ("Person", "School"),
        "occursDuring": ("Event", "TimeInterval"),
        "hasPopulation": ("Location", None),
    }
    for p in LITERAL_PROPERTIES:
        domains[p] = ("Company", None)
    for p, (dom, rng) in sorted(domains.items()):
        lines.append(f"p:{p} rdfs:domain ex:{dom} .")
        lines.append(f"p:{p} rdfs:range {'ex:' + rng if rng else 'xsd:string'} .")
    return "\n".join(lines) + "\n"


def domain_ontology_turtle() -> str:
    lines = [
        "@prefix ex: <http://example.org/class/> .",
        "@prefix p: <http://example.org/prop/> .",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
        "",
        "ex:Organisation a owl:Class .",
        "ex:Company rdfs:subClassOf ex:Organisation .",
        "ex:BusinessFocus a owl:Class .",
        "",
        "p:companyName rdfs:domain ex:Organisation .",
        "p:companyName rdfs:range xsd:string .",
    ]
    for p in ("rank", "employees", "revenues", "profits", "assets", "marketValue"):
        lines.append(f"p:{p} rdfs:domain ex:Company .")
        lines.append(f"p:{p} rdfs:range xsd:string .")
    lines.append("p:businessFocus rdfs:domain ex:Company .")
    lines.append("p:businessFocus rdfs:range ex:BusinessFocus .")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Fortune-shaped scored triples


def fortune_records(
    seed: int, companies: int = DEMO_COMPANIES, band: int = DEMO_BAND
) -> tuple[list[dict], str]:
    """Scored-triple records and the reference-facts N-Triples text.

    Each company has 11 table properties plus extractor extras; the first
    14% carry an asserted business focus, two of them (C042, C054) wrong.
    One implausible link, `band` borderline statements, 12 low-confidence
    noise links and a three-node island complete the graph.  The draw
    order is the fixture's, so 500 companies and a band of 12 reproduce it.
    """
    if companies < DEMO_COMPANIES:
        raise ValueError(f"need at least {DEMO_COMPANIES} companies, got {companies}")
    rng = np.random.default_rng(seed)
    records: list[dict] = []

    def add(s: str, p: str, o: str, literal: bool, conf: float) -> None:
        records.append(
            {
                "s": s,
                "p": p,
                "o": o,
                "o_kind": "literal" if literal else "iri",
                "conf": round(float(conf), 4),
                "id": f"r{len(records) + 1:05d}",
            }
        )

    cos = [company(i) for i in range(1, companies + 1)]
    add(CLS + "Company", RDF_TYPE, RDFS_CLASS, False, 0.95)
    add(CLS + "BusinessFocus", RDF_TYPE, RDFS_CLASS, False, 0.95)
    for f in FOCUSES:
        add(focus(f), RDF_TYPE, CLS + "BusinessFocus", False, 0.9)

    for i, c in enumerate(cos, start=1):
        add(c, RDF_TYPE, CLS + "Company", False, 0.9)
        add(c, prop("rank"), str(i), True, 0.8 + 0.15 * rng.random())
        add(c, prop("companyName"), f"Company {i:03d}", True, 0.9)
        add(c, prop("employees"), str(int(rng.integers(2_000, 400_000))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("previousRank"), str(max(1, i + int(rng.integers(-15, 16)))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("revenues"), str(int(rng.integers(2_000, 500_000))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("revenueChange"), f"{rng.uniform(-20, 35):.1f}%", True, 0.65 + 0.3 * rng.random())
        add(c, prop("profits"), str(int(rng.integers(-8_000, 60_000))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("profitChange"), f"{rng.uniform(-40, 55):.1f}%", True, 0.65 + 0.3 * rng.random())
        add(c, prop("assets"), str(int(rng.integers(5_000, 3_000_000))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("marketValue"), str(int(rng.integers(1_000, 1_000_000))), True, 0.7 + 0.25 * rng.random())
        add(c, prop("operatesIn"), focus(true_focus(i)), False, 0.75 + 0.2 * rng.random())
        add(c, prop("competesWith"), cos[i % companies], False, 0.6 + 0.35 * rng.random())

    planted = {42: "Energy", 54: "Retail"}
    for i in range(1, assigned_count(companies) + 1):
        asserted = planted.get(i, true_focus(i))
        add(company(i), prop("businessFocus"), focus(asserted), False, 0.6 + 0.3 * rng.random())

    add(company(10), prop("businessFocus"), company(20), False, 0.8)

    # literal-valued, so the band stays out of the embedding pool
    for _ in range(band):
        a = int(rng.integers(1, companies + 1))
        value = str(int(rng.integers(500, 90_000)))
        add(company(a), prop("estimatedBrandValue"), value, True, 0.32 + 0.16 * rng.random())

    for _ in range(12):
        a, b = int(rng.integers(1, companies + 1)), int(rng.integers(1, companies + 1))
        if a == b:
            b = a % companies + 1
        add(company(a), prop("rumoredMerger"), company(b), False, 0.05 + 0.22 * rng.random())

    island = [MISC + n for n in ("KickTheBucket", "Idiom", "FigureOfSpeech")]
    add(island[0], REL + "relatedTo", island[1], False, 0.55)
    add(island[1], REL + "relatedTo", island[2], False, 0.58)

    biz = prop("businessFocus")
    facts = [(42, "Technology"), (54, "Transportation")]
    facts += [(i, true_focus(i)) for i in range(1, 25)]
    fact_lines = sorted(f"<{company(i)}> <{biz}> <{focus(f)}> ." for i, f in facts)
    return records, "\n".join(fact_lines) + "\n"


def write_corpus(target: Path, docs: int | None = None) -> None:
    """Copy the bundled documents; with `docs`, cycle them into that many."""
    target.mkdir(parents=True, exist_ok=True)
    sources = [(path, path.read_bytes()) for path in sorted(CORPUS_DIR.iterdir())]
    if docs is None:
        for path, data in sources:
            (target / path.name).write_bytes(data)
        return
    for k in range(docs):
        path, data = sources[k % len(sources)]
        (target / f"{path.stem}-{k:05d}{path.suffix}").write_bytes(data)


def write_shared_corpus(target: Path, docs: int) -> None:
    """Write a `docs`-document corpus once; later calls find it done.

    The corpus does not depend on the seed.  Writing thousands of small
    files is dominated by file-system state, not by the generator, so it
    is kept out of the per-run set-up.
    """
    done = target.with_name(target.name + ".done")
    if done.exists():
        return
    shutil.rmtree(target, ignore_errors=True)
    write_corpus(target, docs)
    done.touch()


def write_pipeline_inputs(
    target: Path,
    seed: int,
    companies: int = DEMO_COMPANIES,
    band: int = DEMO_BAND,
    corpus: Path | None = None,
    epochs: int = 500,
) -> Path:
    """Write a runnable pipeline dataset and return its config path.

    Without `corpus` the five bundled documents are copied next to the
    config; with it the config points at that existing directory.
    """
    target.mkdir(parents=True, exist_ok=True)
    records, facts_nt = fortune_records(seed, companies, band)
    (target / "triples.jsonl").write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n", encoding="utf-8"
    )
    (target / "reference_axioms.ttl").write_text(reference_axioms_turtle(), encoding="utf-8")
    (target / "reference_facts.nt").write_text(facts_nt, encoding="utf-8")
    (target / "domain_ontology.ttl").write_text(domain_ontology_turtle(), encoding="utf-8")
    if corpus is None:
        write_corpus(target / "corpus")

    config = {
        "corpus_dir": "corpus" if corpus is None else os.path.relpath(corpus, target),
        "scored_triples": "triples.jsonl",
        "reference_axioms": "reference_axioms.ttl",
        "reference_facts": "reference_facts.nt",
        "domain_ontology": "domain_ontology.ttl",
        "output_dir": "out",
        "seed": seed,
        "refine": {},
        "correct": {"functional": [prop("businessFocus")], "sim_threshold": 0.8},
        "complete": {
            "dimension": 3,
            "epochs": epochs,
            "batch_size": 512,
            "negatives_per_positive": 5,
            "predict_relations": [prop("businessFocus")],
            "threshold": 0.05,
            "top_k": 1,
        },
    }
    config_path = target / "pipeline.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return config_path


# ----------------------------------------------------------------------
# kinship link-prediction split

Triple3 = tuple[str, str, str]


def kinship_triples(n_families: int = 4) -> list[Triple3]:
    """Family graph: parentOf and grandparentOf are asymmetric, marriedTo
    and siblingOf appear in both directions."""
    parent_of, married_to = REL + "parentOf", REL + "marriedTo"
    sibling_of, grandparent_of = REL + "siblingOf", REL + "grandparentOf"
    triples: list[Triple3] = []
    for f in range(n_families):
        def person(name: str, f: int = f) -> str:
            return f"{KIN}f{f}_{name}"

        gf, gm, p1, p2, u, a = (person(n) for n in ("gf", "gm", "p1", "p2", "u", "a"))
        kids = [person(f"c{i}") for i in range(4)]
        cousins = [person(f"k{i}") for i in range(2)]
        for gp in (gf, gm):
            for child in (p1, u):
                triples.append((gp, parent_of, child))
            for gc in (*kids, *cousins):
                triples.append((gp, grandparent_of, gc))
        for par in (p1, p2):
            for kid in kids:
                triples.append((par, parent_of, kid))
        for par in (u, a):
            for kid in cousins:
                triples.append((par, parent_of, kid))
        for x, y in ((gf, gm), (p1, p2), (u, a)):
            triples.append((x, married_to, y))
            triples.append((y, married_to, x))
        sib_pairs = (
            [(p1, u)]
            + [(kids[i], kids[j]) for i in range(4) for j in range(i + 1, 4)]
            + [(cousins[0], cousins[1])]
        )
        for x, y in sib_pairs:
            triples.append((x, sibling_of, y))
            triples.append((y, sibling_of, x))
    return triples


def kinship_split(seed: int) -> tuple[list[Triple3], list[Triple3], list[Triple3]]:
    """All / train (80%) / test (20%)."""
    triples = kinship_triples()
    order = np.random.default_rng(seed).permutation(len(triples))
    cut = int(len(triples) * 0.8)
    train = [triples[i] for i in sorted(order[:cut])]
    test = [triples[i] for i in sorted(order[cut:])]
    return triples, train, test


def write_kinship_inputs(target: Path, seed: int) -> Path:
    target.mkdir(parents=True, exist_ok=True)
    everything, train, test = kinship_split(seed)
    path = target / "kinship.json"
    path.write_text(json.dumps({"all": everything, "train": train, "test": test}), encoding="utf-8")
    return path
