"""Per-partition lineage manifests + checkpoint-resume bookkeeping.

Reference analogs: indexing counters (`J/index/IndexCollection.java:117-145,
880-890`) and search-side `-skipexists` resume
(`J/search/SearchCollection.java:438-441`). The reference has no build-side
resume (Lucene `OpenMode.CREATE` clobbers); ours adds per-segment manifests
keyed by an input+config fingerprint so a re-run skips finished segments.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field


def input_fingerprint(paths: list[str], config_repr: str) -> str:
    """Deterministic fingerprint of input files (path, size, mtime) + build
    config; cheap (metadata only, no data reads)."""
    h = hashlib.sha256()
    h.update(config_repr.encode())
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{int(st.st_mtime)}".encode())
    return h.hexdigest()[:24]


@dataclass
class SegmentManifest:
    segment_id: int
    base_ord: int
    doc_count: int
    sum_dl: int
    num_terms: int
    fingerprint: str

    def write(self, index_dir: str) -> None:
        d = os.path.join(index_dir, "manifests")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f".seg-{self.segment_id:06d}.tmp")
        with open(tmp, "w") as f:
            json.dump(asdict(self), f)
        os.replace(tmp, os.path.join(d, f"seg-{self.segment_id:06d}.json"))


@dataclass
class IndexManifest:
    version: int
    analyzer: str
    norm_mode: str
    seg_shift: int
    block_size: int
    fingerprint: str
    doc_count: int = 0
    sum_total_tf: int = 0
    counters: dict = field(default_factory=dict)
    segments: list = field(default_factory=list)
    # the committed global termstats table, `termstats/g<termstats_gen>/`,
    # and the unit-id bound it counts: it holds the stats of every unit
    # whose id is below termstats_units. Writing this manifest commits them.
    termstats_gen: int | None = None
    termstats_units: int = 0

    @property
    def avgdl(self) -> float:
        return self.sum_total_tf / max(1, self.doc_count)

    def write(self, index_dir: str) -> None:
        tmp = os.path.join(index_dir, ".manifest.tmp")
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1)
        os.replace(tmp, os.path.join(index_dir, "manifest.json"))

    @staticmethod
    def read(index_dir: str) -> "IndexManifest":
        with open(os.path.join(index_dir, "manifest.json")) as f:
            return IndexManifest(**json.load(f))


def termstats_dir(index_dir: str, generation: int) -> str:
    return os.path.join(index_dir, "termstats", f"g{generation}")


def completed_segments(index_dir: str, fingerprint: str) -> set[int]:
    """Segment ids whose per-segment manifest matches the fingerprint."""
    done: set[int] = set()
    for p in glob.glob(os.path.join(index_dir, "manifests", "seg-*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            if m.get("fingerprint") == fingerprint:
                done.add(int(m["segment_id"]))
        except (ValueError, KeyError, json.JSONDecodeError):
            continue
    return done
