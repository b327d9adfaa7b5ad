"""Freebase KG subsystem: parse parity against the reference's own
freebase-rdf-head100.gz fixture with FreebaseTest.java /
FreebaseNodeTest.java expectations."""

from conftest import requires_reference

FIXTURE = "/root/reference/src/test/resources/freebase-rdf-head100.gz"


@requires_reference(FIXTURE)
def test_freebase_iterator_matches_reference_expectations():
    from anserini_ray.kg import freebase_nodes

    nodes = list(freebase_nodes(FIXTURE))
    # FreebaseTest.java walks 7 nodes then exhausts
    assert len(nodes) == 7
    assert nodes[0].uri == (
        "<http://rdf.freebase.com/ns/american_football.football_player"
        ".footballdb_id>"
    )
    assert len(nodes[0].predicate_values) == 9
    from anserini_ray.kg import clean_uri

    first_pred = next(iter(nodes[0].predicate_values))
    assert clean_uri(first_pred) == "fb:type.object.name"
    assert nodes[1].uri == (
        "<http://rdf.freebase.com/ns/astronomy.astronomical_observatory"
        ".discoveries>"
    )
    assert len(nodes[1].predicate_values) == 9
    assert nodes[3].uri == "<http://rdf.freebase.com/ns/automotive.engine.engine_type>"
    assert len(nodes[3].predicate_values) == 10
    last = nodes[6]
    assert last.uri == "<http://rdf.freebase.com/ns/award.award_winner>"
    pv = last.predicate_values
    assert len(pv) == 1
    assert len(pv["<http://rdf.freebase.com/ns/type.type.instance>"]) == 45


def test_clean_uri_and_normalize():  # FreebaseNodeTest.java
    from anserini_ray.kg import (
        clean_uri,
        freebase_uri_to_freebase_id,
        get_object_type,
        normalize_object_value,
    )

    assert clean_uri("<http://rdf.freebase.com/ns/m.02mjmr>") == "fb:m.02mjmr"
    assert (
        normalize_object_value('"Barack_Hussein_Obama$002C_Jr$002E"')
        == "Barack_Hussein_Obama,_Jr."
    )
    assert (
        normalize_object_value("<http://rdf.freebase.com/ns/m.0x2spfl>")
        == "fb:m.0x2spfl"
    )
    assert get_object_type("<http://rdf.freebase.com/ns/m.02mjmr>") == "uri"
    assert (
        get_object_type('"1954-10-28"^^<http://www.w3.org/2001/XMLSchema#date>')
        == "text"
    )
    assert get_object_type('"Hanna Bieluszko"@en') == "text"
    assert get_object_type('"Hanna Bieluszko"') == "string"
    assert (
        freebase_uri_to_freebase_id("http://rdf.freebase.com/ns/m.02mjmr")
        == "/m/02mjmr"
    )


def test_literal_extraction():
    from anserini_ray.kg.freebase import extract_value_from_typed_literal

    assert extract_value_from_typed_literal('"Hanna Bieluszko"@en') == (
        "Hanna Bieluszko"
    )
    assert extract_value_from_typed_literal(
        '"1954-10-28"^^<http://www.w3.org/2001/XMLSchema#date>'
    ) == "1954-10-28"
    assert extract_value_from_typed_literal('"a \\"quoted\\" word"') == (
        'a "quoted" word'
    )


@requires_reference(FIXTURE)
def test_triples_dataset_and_lookup(ray_session):
    from anserini_ray.kg import (
        freebase_node_docs,
        lookup_freebase_node,
        read_freebase_triples,
    )

    ds = read_freebase_triples(FIXTURE)
    assert ds.count() == 100 - 0  # 100 triples in the head fixture
    node = lookup_freebase_node(
        FIXTURE, "fb:american_football.football_player.footballdb_id"
    )
    assert node is not None and len(node.predicate_values) == 9
    docs = freebase_node_docs(FIXTURE).take_all()
    assert len(docs) == 7
    by_id = {d["doc_id"]: d["text"] for d in docs}
    assert "footballdb ID" in by_id[
        "fb:american_football.football_player.footballdb_id"
    ]
