"""The registry's float64 mirror on a segment with holes: empty turns get a
raw local ordinal but no docmap row, so the mirror must hand raw ordinals
to `doc_id_strings` (which maps them to docmap rows itself)."""

import pyarrow as pa


def _holes_index(tmp_path) -> str:
    import ray.data

    from anserini_ray.index import IndexConfig, build_index

    rows = pa.table(
        {
            "conv_id": ["a", "b", "c", "d", "e"],
            "turn_idx": pa.array([0] * 5, type=pa.int32()),
            "text": ["alpha beta delta", "", "alpha gamma beta gamma", " ",
                     "alpha beta"],
        }
    )
    idx = str(tmp_path / "holes")
    build_index(
        ray.data.from_arrow(rows).sort(["conv_id", "turn_idx"]),
        idx,
        IndexConfig(seg_shift=4, store_positions=True, store_docvecs=True),
        input_files=[],
    )
    return idx


def test_float64_mirror_on_segment_with_holes(ray_session, tmp_path,
                                              monkeypatch):
    import __ray_entry__ as E
    from anserini_ray.pipelines import simple
    from anserini_ray.search import LocalSearcher

    idx = _holes_index(tmp_path)
    s = LocalSearcher(idx)
    assert s.readers[0].all_local_ords().tolist() == [0, 2, 4]
    engine, _ = s.search("alpha", k=10)
    mirror = E._accumulate(s, [("alpha", 1.0)], lambda t, w, tf, dl: tf)
    assert sorted(mirror) == sorted(engine) == ["a:0", "c:0", "e:0"]

    # the entries that resolve docids from postings and positions
    monkeypatch.setattr(E, "_ensure_index", lambda sf_dir: idx)
    monkeypatch.setattr(simple, "SIMPLE_QUERIES", [(1, "alpha beta")])
    for name, fn, engine_fn in (
        ("bm25", lambda sf: E._exhaustive_f64_topk(sf, "bm25"), s.search),
        ("sdm", E._sdm_topk, s.search_sdm),
        ("axiom", E._axiom_topk, s.search_axiom),
    ):
        got = fn("unused").column("doc_id").to_pylist()
        assert sorted(got) == sorted(engine_fn("alpha beta", k=10)[0]), name
        assert sorted(got) == ["a:0", "c:0", "e:0"], name
