"""Parse parity for the round-2 topic readers, asserted against the
reference's OWN bundled topics files with the exact expectations of its
unit tests (`T/search/topicreader/*Test.java`)."""

import os

from conftest import requires_reference

TQ = "/root/reference/src/main/resources/topics-and-qrels"


def _p(name):
    return os.path.join(TQ, name)


@requires_reference(_p("topics.terabyte05.efficiency.txt"),
                    _p("topics.mq.1-10000.txt"))
def test_web_topics():  # WebTopicReaderTest
    from anserini_ray.sources.topics import read_web_topics

    t = read_web_topics(_p("topics.terabyte05.efficiency.txt"))
    assert len(t) == 50000
    assert min(t) == 1 and t[1]["title"] == "pierson s twin lakes marina"
    assert max(t) == 50000 and t[50000]["title"] == "senator durbin"

    mq = read_web_topics(_p("topics.mq.1-10000.txt"))
    assert len(mq) == 10000
    assert mq[1]["title"].strip() == "after school program evaluation"
    assert mq[10000]["title"].strip() == "californa mission"


@requires_reference(_p("topics.mq.20001-60000.txt"))
def test_prioritized_web_topics():  # PrioritizedWebTopicReaderTest
    from anserini_ray.sources.topics import read_prioritized_web_topics

    t = read_prioritized_web_topics(_p("topics.mq.20001-60000.txt"))
    assert len(t) == 40000
    assert t[20001]["title"].strip() == "obama family tree"
    assert t[20001]["priority"].strip() == "1"
    assert t[60000]["title"].strip() == "bird shingles"
    assert t[60000]["priority"].strip() == "4"


@requires_reference(_p("topics.web.1-50.txt"))
def test_webxml_topics():  # WebxmlTopicReaderTest
    from anserini_ray.sources.topics import read_webxml_topics

    t = read_webxml_topics(_p("topics.web.1-50.txt"))
    assert len(t) == 50
    assert t[1]["title"].strip() == "obama family tree"
    assert t[50]["title"].strip() == "dog heat"


@requires_reference(_p("topics.car17v2.0.benchmarkY1test.txt"))
def test_car_topics():  # CarTopicReaderTest
    from anserini_ray.analysis import make_analyzer
    from anserini_ray.sources.topics import read_car_topics

    t = read_car_topics(_p("topics.car17v2.0.benchmarkY1test.txt"))
    assert len(t) == 2254
    first = min(t)
    assert first == "enwiki:Aftertaste"
    assert t[first]["title"] == "Aftertaste"
    last = max(t)
    assert last == "enwiki:Yellowstone%20National%20Park/Recreation"
    query = t[last]["title"]
    assert query == "Yellowstone National Park/Recreation"
    toks = make_analyzer(None).analyze(query)
    assert len(toks) == 4 and toks[3] == "recreat"


@requires_reference(_p("topics.cacm.txt"))
def test_cacm_topics():  # CacmTopicReaderTest
    from anserini_ray.sources.topics import read_cacm_topics

    t = read_cacm_topics(_p("topics.cacm.txt"))
    assert len(t) == 64
    assert t[1]["title"].strip() == (
        "What articles exist which deal with TSS (Time Sharing System), an\n"
        "operating system for IBM computers?"
    )
    assert t[64]["title"].strip() == (
        "List all articles on EL1 and ECL (EL1 may be given as EL/1; I don't\n"
        "remember how they did it."
    )


@requires_reference(_p("topics.www1.english.txt"),
                    _p("topics.www2.english.txt"))
def test_ntcir_topics():  # NtcirTopicReaderTest
    from anserini_ray.sources.topics import read_ntcir_topics

    t1 = read_ntcir_topics(_p("topics.www1.english.txt"))
    assert len(t1) == 100
    assert t1[1]["title"] == "ascii code"
    assert t1[100]["title"] == "weight loss"

    t2 = read_ntcir_topics(_p("topics.www2.english.txt"))
    assert len(t2) == 80
    assert t2[1]["title"] == "Halloween picture"
    assert t2[1]["description"] == (
        "Halloween is coming. You want to find some pictures about"
        " Halloween to introduce it to your children."
    )
    assert t2[80]["title"] == "www.gardenburger.com"
    assert t2[80]["description"] == (
        'You want to find the website &quot;www.gardenburger.com&quot;'
    )


@requires_reference(_p("topics.backgroundlinking18.txt"))
def test_background_linking_topics():  # BackgroundLinkingTopicReaderTest
    from anserini_ray.sources.topics import read_background_linking_topics

    t = read_background_linking_topics(_p("topics.backgroundlinking18.txt"))
    assert len(t) == 50
    assert t[321]["title"] == "9171debc316e5e2782e0d2404ca7d09d"
    assert t[321]["url"] == (
        "https://www.washingtonpost.com/news/worldviews/wp/2016/09/01/"
        "women-are-half-of-the-world-but-only-22-percent-of-its-parliaments/"
    )
    assert t[825]["title"] == "a1c41a70-35c7-11e3-8a0e-4e2cf80831fc"


def test_qa_topics(tmp_path):  # QaTopicReader format (no bundled file)
    from anserini_ray.sources.topics import read_qa_topics

    p = tmp_path / "qa.txt"
    p.write_text(
        "<QApairs id='201'>\n<question>\nWhat is the capital of France\n"
        "</question>\n</QApairs>\n"
        "<QApairs id='202'>\n<question>\nWho wrote Hamlet\n</question>\n"
        "</QApairs>\n"
    )
    t = read_qa_topics(str(p))
    assert t == {
        201: {"title": "What is the capital of France"},
        202: {"title": "Who wrote Hamlet"},
    }
