"""`cli index`: every input goes through build_index, and -resume keys
its cache on the files under -input."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from anserini_ray import cli
from anserini_ray.index import IndexConfig, build_index
from anserini_ray.search import LocalSearcher
from anserini_ray.sources import generate_transcripts


def _json_corpus(d, word: str, n: int = 50) -> str:
    os.makedirs(d)
    with open(os.path.join(d, "docs.jsonl"), "w") as f:
        for i in range(n):
            f.write(json.dumps({"id": f"{word}{i:03d}",
                                "contents": f"{word} report {i}"}) + "\n")
    return d


def _hits(index_dir: str, word: str) -> int:
    return len(LocalSearcher(index_dir).search(word, k=1000)[0])


def test_resume_does_not_reuse_another_corpus(ray_session, tmp_path):
    idx = str(tmp_path / "idx")
    for word in ("alpha", "omega"):
        src = _json_corpus(str(tmp_path / word), word)
        assert cli.cmd_index(["-input", src, "-index", idx,
                              "-collection", "json", "-resume",
                              "-segShift", "4"]) == 0
    assert _hits(idx, "omega") == 50
    assert _hits(idx, "alpha") == 0


def test_resume_needs_input_files(ray_session, tmp_path):
    import ray.data

    ds = ray.data.from_arrow(generate_transcripts(20, seed=1))
    with pytest.raises(ValueError):
        build_index(ds, str(tmp_path / "idx"),
                    IndexConfig(seg_shift=4, resume=True), input_files=[])


def test_unsorted_parquet_builds_through_streaming(ray_session, tmp_path):
    table = generate_transcripts(300, seed=4)
    src = tmp_path / "src"
    src.mkdir()
    # descending conv order, no -assumeSorted: staged, then streamed
    pq.write_table(table.slice(150), str(src / "a.parquet"))
    pq.write_table(table.slice(0, 150), str(src / "b.parquet"))
    idx = str(tmp_path / "idx")
    assert cli.cmd_index(["-input", str(src), "-index", idx,
                          "-segShift", "6"]) == 0
    ref = str(tmp_path / "ref")
    pq.write_table(table, str(tmp_path / "all.parquet"))
    build_index(index_dir=ref, config=IndexConfig(seg_shift=6,
                                                  assume_sorted=True),
                input_paths=[str(tmp_path / "all.parquet")])
    assert glob.glob(os.path.join(idx, "units", "u*.json"))
    for q in ["merge sort", "pipeline"]:
        a = LocalSearcher(idx).search(q, k=20)
        b = LocalSearcher(ref).search(q, k=20)
        assert a[0] == b[0]
        assert list(map(float, a[1])) == list(map(float, b[1]))
