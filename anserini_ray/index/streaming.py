"""Streaming (materialize-free) index build over Parquet transcript files —
the one index builder (`build.build_index` stages every other input as a
sorted Parquet copy and runs this over it).

Ordinals are derived from the INPUT's parquet metadata (doc_ord = global
input row position, computed per row-group run from file footers — no data
read), so tokenize -> encode -> segment-write fuse into ONE streaming
map_batches pass and nothing corpus-sized is ever held or shuffled.

Dropped docs (whitespace-empty text, analyzer errors) leave HOLES in the
ordinal space; `SegmentReader` scores directly in raw ordinal space
(per-doc arrays scattered once into raw-indexed buffers at segment load —
zero hot-path cost) and converts only final top-k candidates to dense
docmap rows.

Each *unit* (a run of consecutive row groups of one input file) is processed
by one task that:

  1. reads its row groups straight from parquet (pruned columns),
  2. verifies (conv_id, turn_idx) order inside the unit and sorts a unit
     that is out of order in place; cross-unit boundaries are checked by the
     driver from the markers (overlap raises NotSortedError and
     `build_index` rebuilds from a sorted staging copy),
  3. tokenizes (analyzer built once per worker process, `_process_analyzer`),
  4. writes its docmap/postings[/docvecs] partition files directly
     (tmp + atomic rename; deterministic names `u{unit_id}.parquet` under
     `segment_id=K/` dirs, the hive layout `optimize.py` compacts),
  5. writes a durable per-unit JSON marker (fingerprint, row/keep/error
     counters, sort boundaries, per-segment doc partials) — the lineage
     record that makes the build resumable at UNIT granularity,
  6. returns only skinny (segment_id, term, df, cf) rows — the only data
     that flows on. They are the delta of the global termstats table
     (`build.write_termstats`): a fresh build sums them, and an append adds
     them to the committed table without reading old postings back.

Reference analog: the reference's multithreaded Lucene writer
(`J/index/IndexCollection.java:729-893`) has no build resume at all
(OpenMode.CREATE clobbers); per-unit lineage markers are the Ray-native
upgrade the 100TB target requires (skip finished partitions on re-run).
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..analysis.analyzer import make_analyzer
from ..state.manifest import (
    IndexManifest,
    SegmentManifest,
    completed_segments,
    input_fingerprint,
    termstats_dir,
)
from .build import (
    INDEX_FORMAT_VERSION,
    IndexConfig,
    NotSortedError,
    _empty_subblock_table,
    make_subblock_encoder,
    tokenize_table,
    write_termstats,
)

# rows per unit task: large enough to amortize task+file overhead, small
# enough that units land well under a worker's heap and load-balance across
# the cluster (at 100TB: ~400K units of ~64K rows over ~8K cores)
UNIT_TARGET_ROWS = 65536


def plan_units(paths: list[str], target_rows: int | None = None):
    """Unit plan from parquet footers only (no data reads): each unit is a
    run of consecutive row groups of one file with a global base ordinal.
    Returns (units, total_rows, columns_present).

    target_rows=None uses the fixed UNIT_TARGET_ROWS. (An adaptive
    shrink-for-small-corpora variant was measured and REJECTED: smaller
    units fragment per-term posting runs — more run rows per segment means
    slower query-side decoding — and add per-unit file/marker overhead that
    outweighs the extra parallelism. Fixed-size units also keep the plan
    cluster-independent, which unit-granular resume relies on.)"""
    per_file: list[tuple[str, list[int]]] = []
    columns = None
    total = 0
    for path in paths:
        md = pq.read_metadata(path)
        if columns is None:
            names = set(md.schema.to_arrow_schema().names)
            columns = [
                c for c in ("conv_id", "turn_idx", "text", "ts") if c in names
            ]
        sizes = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        per_file.append((path, sizes))
        total += sum(sizes)
    if target_rows is None:
        target_rows = UNIT_TARGET_ROWS
    units: list[dict] = []
    base = 0
    for path, sizes in per_file:
        i = 0
        while i < len(sizes):
            j, rows = i, 0
            while j < len(sizes) and (rows == 0 or rows + sizes[j] <= target_rows):
                rows += sizes[j]
                j += 1
            units.append(
                {
                    "unit_id": len(units),
                    "path": path,
                    "rg_start": i,
                    "rg_end": j,
                    "base": base,
                    "rows": rows,
                }
            )
            base += rows
            i = j
    return units, base, (columns or [])


def _skinny_empty() -> pa.Table:
    return pa.Table.from_arrays(
        [
            pa.array([], type=pa.int64()),
            pa.array([], type=pa.string()),
            pa.array([], type=pa.int64()),
            pa.array([], type=pa.int64()),
        ],
        names=["segment_id", "term", "df", "cf"],
    )


def _key_tuple(conv, turn, i) -> list:
    return [conv[i].as_py(), int(turn[i].as_py())]


def _check_sorted(table: pa.Table) -> None:
    n = table.num_rows
    if n <= 1:
        return
    conv, turn = table["conv_id"], table["turn_idx"]
    c0, c1 = conv.slice(0, n - 1), conv.slice(1)
    t0, t1 = turn.slice(0, n - 1), turn.slice(1)
    ok = pc.all(
        pc.or_(
            pc.less(c0, c1), pc.and_(pc.equal(c0, c1), pc.less(t0, t1))
        )
    ).as_py()
    if not ok:
        raise NotSortedError("unit not internally sorted by (conv_id, turn_idx)")


def _write_part(table: pa.Table, root: str, segment_id: int, unit_id: int) -> None:
    d = os.path.join(root, f"segment_id={segment_id}")
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".u{unit_id:08d}.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(d, f"u{unit_id:08d}.parquet"))


class UnitWorker:
    """map_batches fn over the unit plan — one unit per input block."""

    def __init__(self, index_dir: str, config: IndexConfig, columns: list[str],
                 fingerprint: str, verify_sorted: bool):
        self.index_dir = index_dir
        self.analyzer_config = config.analyzer
        self.store_positions = config.store_positions
        self.store_docvecs = config.store_docvecs
        self.seg_shift = config.seg_shift
        self.columns = columns
        self.fingerprint = fingerprint
        self.verify_sorted = verify_sorted
        self.shard = config.shard
        self.encoder = make_subblock_encoder(config.seg_shift, config.block_size)
        self.encode_batch = config.encode_batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = [self._process(u) for u in batch.to_pylist()]
        outs = [o for o in outs if o.num_rows]
        return pa.concat_tables(outs) if outs else _skinny_empty()

    def _process(self, u: dict) -> pa.Table:
        pf = pq.ParquetFile(u["path"])
        t = pf.read_row_groups(
            list(range(u["rg_start"], u["rg_end"])), columns=self.columns
        )
        first = last = None
        if t.num_rows:
            if self.verify_sorted:
                try:
                    _check_sorted(t)
                except NotSortedError:
                    # UNIT-LEVEL fallback (ROADMAP item): a unit that is
                    # internally unsorted is sorted IN PLACE — ordinals are
                    # positional, so per-unit sorting of intra-unit disorder
                    # yields the same index a global sort would (concat of
                    # per-unit sorts == global sort when only intra-unit
                    # order is violated). Cross-unit overlap is still
                    # detected by the driver's boundary check from the
                    # markers, which then triggers the staged rebuild —
                    # that remains the only case that needs one.
                    order = pc.sort_indices(
                        t,
                        sort_keys=[("conv_id", "ascending"),
                                   ("turn_idx", "ascending")],
                    )
                    t = t.take(order)
            conv, turn = t["conv_id"], t["turn_idx"]
            first = _key_tuple(conv, turn, 0)
            last = _key_tuple(conv, turn, t.num_rows - 1)

        tok, idx, n_errors, n_skipped = tokenize_table(
            t, self.analyzer_config, self.store_positions, self.shard
        )
        doc_ord = (u["base"] + idx).astype(np.int64)
        tok = tok.append_column("doc_ord", pa.array(doc_ord))
        segs = doc_ord >> self.seg_shift
        uniq_segs = np.unique(segs)

        # docmap partition slices
        dm_names = ["doc_ord", "conv_id", "turn_idx", "dl"] + (
            ["ts"] if "ts" in tok.column_names else []
        )
        dm = tok.select(dm_names)
        for s in uniq_segs:
            mask = pa.array(segs == s)
            _write_part(dm.filter(mask), os.path.join(self.index_dir, "docmap"),
                        int(s), u["unit_id"])
            if self.store_docvecs:
                dv = tok.select(["doc_ord", "terms", "tfs"]).filter(mask)
                _write_part(dv, os.path.join(self.index_dir, "docvecs"),
                            int(s), u["unit_id"])

        # postings: encode sub-block runs in-task and write per segment.
        # Encode in encode_batch_size SLICES, not the whole unit at once:
        # fresh multi-MB temporaries in a new Ray worker pay a pathological
        # first-touch page-fault burst on this platform (measured 3.9s for
        # one 64K-row whole-unit encode vs 0.22s for the same rows in 16K
        # slices — allocation sizes stay in reused malloc bins). Runs never
        # span slices, which the on-disk format explicitly allows (a term's
        # posting list is the ordered concatenation of its runs).
        chunks = [
            self.encoder(tok.slice(lo, self.encode_batch))
            for lo in range(0, max(tok.num_rows, 1), self.encode_batch)
        ]
        chunks = [c for c in chunks if c.num_rows]
        sub = pa.concat_tables(chunks) if chunks else _empty_subblock_table()
        sub_segs = sub["segment_id"].to_numpy() if sub.num_rows else np.array([])
        for s in uniq_segs:
            part = sub.filter(pa.array(sub_segs == s)).drop_columns(["segment_id"])
            _write_part(part, os.path.join(self.index_dir, "postings"),
                        int(s), u["unit_id"])

        # per-segment partials for the marker: doc count, dl sum, and the
        # number of posting-run rows written (manifest metadata — saves a
        # whole read-back pass at finalize time)
        seg_cnt = {int(s): int((segs == s).sum()) for s in uniq_segs}
        dls = tok["dl"].to_numpy()
        seg_sdl = {int(s): int(dls[segs == s].sum()) for s in uniq_segs}
        seg_runs = {
            int(s): int((sub_segs == s).sum()) for s in uniq_segs
        }
        marker = {
            "fingerprint": self.fingerprint,
            "unit_id": u["unit_id"],
            "base": u["base"],
            "rows": u["rows"],
            "kept": int(idx.size),
            "errors": int(n_errors),
            "skipped": int(n_skipped),
            "first": first,
            "last": last,
            "segments": {
                str(k): [seg_cnt[k], seg_sdl[k], seg_runs[k]]
                for k in seg_cnt
            },
        }
        mdir = os.path.join(self.index_dir, "units")
        os.makedirs(mdir, exist_ok=True)
        tmp = os.path.join(mdir, f".u{u['unit_id']:08d}.tmp")
        with open(tmp, "w") as f:
            json.dump(marker, f)
        os.replace(tmp, os.path.join(mdir, f"u{u['unit_id']:08d}.json"))

        return sub.select(["segment_id", "term", "df", "cf"])


def _unit_files_exist(index_dir: str, marker: dict, store_docvecs: bool) -> bool:
    """True iff every partition file the marker's unit wrote is still on
    disk. Post-build auto-compaction replaces u-files with combined files,
    so a marker alone does NOT prove the unit's rows are independently
    recoverable — treating such a unit as resumable would let
    _clean_streaming delete the combined files the rows now live in."""
    uid = int(marker["unit_id"])
    fn = f"u{uid:08d}.parquet"
    subs = ["postings", "docmap"] + (["docvecs"] if store_docvecs else [])
    for sid in marker.get("segments", {}):
        for sub in subs:
            if not os.path.exists(
                os.path.join(index_dir, sub, f"segment_id={int(sid)}", fn)
            ):
                return False
    return True


def _load_markers(index_dir: str) -> dict[int, dict]:
    out = {}
    for p in glob.glob(os.path.join(index_dir, "units", "u*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
            out[int(m["unit_id"])] = m
        except (ValueError, KeyError, json.JSONDecodeError):
            continue
    return out


def _clean_streaming(index_dir: str, keep_units: set[int]) -> None:
    """Remove everything the coming streaming build will rewrite, keeping
    only the partition files + markers of resumable units."""
    import re
    import shutil

    keep_names = {f"u{uid:08d}.parquet" for uid in keep_units}
    for sub in ("postings", "docmap", "docvecs"):
        root = os.path.join(index_dir, sub)
        if not os.path.isdir(root):
            continue
        for entry in os.listdir(root):
            path = os.path.join(root, entry)
            if not re.match(r"segment_id=\d+$", entry):
                shutil.rmtree(path, ignore_errors=True) if os.path.isdir(
                    path
                ) else os.unlink(path)
                continue
            for fn in os.listdir(path):
                if fn not in keep_names:
                    os.unlink(os.path.join(path, fn))
            if not os.listdir(path):
                os.rmdir(path)
    shutil.rmtree(os.path.join(index_dir, "termstats"), ignore_errors=True)
    shutil.rmtree(os.path.join(index_dir, "manifests"), ignore_errors=True)
    udir = os.path.join(index_dir, "units")
    if os.path.isdir(udir):
        keep_m = {f"u{uid:08d}.json" for uid in keep_units}
        for fn in os.listdir(udir):
            if fn not in keep_m:
                os.unlink(os.path.join(udir, fn))


def _remove_units(index_dir: str, unit_ids: set[int]) -> None:
    """Delete the partition files + marker of specific units (stale append
    attempts)."""
    if not unit_ids:
        return
    names = {f"u{uid:08d}.parquet" for uid in unit_ids}
    for sub in ("postings", "docmap", "docvecs"):
        root = os.path.join(index_dir, sub)
        if not os.path.isdir(root):
            continue
        for entry in os.listdir(root):
            seg = os.path.join(root, entry)
            if not os.path.isdir(seg):
                continue
            for fn in os.listdir(seg):
                if fn in names:
                    os.unlink(os.path.join(seg, fn))
    udir = os.path.join(index_dir, "units")
    if os.path.isdir(udir):
        for uid in unit_ids:
            p = os.path.join(udir, f"u{uid:08d}.json")
            if os.path.exists(p):
                os.unlink(p)


def _remove_unmarked_unit_files(index_dir: str) -> None:
    """Delete u*.parquet partition files whose unit has NO marker — a unit
    that crashed between writing its parquet and its marker. Markers are
    written last and are the ground truth; unmarked files would be ingested
    by the skinny read-back and corrupt global stats."""
    import re

    marked = {f"u{uid:08d}.parquet" for uid in _load_markers(index_dir)}
    pat = re.compile(r"^u\d{8}\.parquet$")
    for sub in ("postings", "docmap", "docvecs"):
        root = os.path.join(index_dir, sub)
        if not os.path.isdir(root):
            continue
        for entry in os.listdir(root):
            seg = os.path.join(root, entry)
            if not os.path.isdir(seg):
                continue
            for fn in os.listdir(seg):
                if pat.match(fn) and fn not in marked:
                    os.unlink(os.path.join(seg, fn))


def build_index_streaming(
    input_paths: list[str],
    index_dir: str,
    config: IndexConfig | None = None,
    total_input: int | None = None,
    fingerprint: str | None = None,
) -> IndexManifest:
    """Streaming build (see module docstring). Requires parquet input sorted
    by (conv_id, turn_idx) across files and units; raises NotSortedError
    when unit key ranges overlap — `build_index` then builds from a sorted
    staging copy. `fingerprint` overrides the one taken from input_paths
    (a staged build fingerprints the caller's input, not the staging copy)."""
    config = config or IndexConfig()
    os.makedirs(index_dir, exist_ok=True)
    paths = sorted(input_paths)
    if fingerprint is None:
        fingerprint = input_fingerprint(paths, config.repr_for_fingerprint())
    stage_secs, _mark = _stage_timer()

    units, total_rows, columns = plan_units(paths)
    if total_input is None:
        total_input = total_rows

    # unit-granular resume: a marker whose fingerprint AND placement match
    # the current plan proves that unit's partition files are complete
    resumed: dict[int, dict] = {}
    if config.resume:
        by_id = {u["unit_id"]: u for u in units}
        for uid, m in _load_markers(index_dir).items():
            u = by_id.get(uid)
            if (
                u is not None
                and m.get("fingerprint") == fingerprint
                and m.get("base") == u["base"]
                and m.get("rows") == u["rows"]
            ):
                resumed[uid] = m
    # Completed-build idempotency: if EVERY unit's marker matches and a
    # manifest for this exact input already exists, with every segment's
    # manifest in place, return it untouched — re-running must not reach
    # _clean_streaming, which would delete the combined files a post-build
    # compaction (or a manual optimize_index) left in place of the per-unit
    # u-files. A MISSING manifest or segment manifest falls through; an
    # unreadable/corrupt one on a fully-marker-matched build aborts rather
    # than silently cleaning and rebuilding.
    if len(resumed) == len(units) and units:
        try:
            existing = IndexManifest.read(index_dir)
        except FileNotFoundError:
            existing = None
        if (
            existing is not None
            and existing.fingerprint == fingerprint
            and completed_segments(index_dir, fingerprint)
            >= {s["segment_id"] for s in existing.segments}
        ):
            return existing
    # Markers alone don't prove resumability: auto-compaction replaces
    # u-files with combined files, and _clean_streaming below deletes any
    # file not named for a kept unit — so a unit whose files were compacted
    # away must be REBUILT, never "kept" (its rows would be deleted with the
    # combined files while its marker still claimed them complete).
    resumed = {
        uid: m
        for uid, m in resumed.items()
        if _unit_files_exist(index_dir, m, config.store_docvecs)
    }
    _clean_streaming(index_dir, set(resumed))
    todo = [u for u in units if u["unit_id"] not in resumed]
    _mark("plan")

    if todo:
        ds = ray.data.from_items(todo, override_num_blocks=len(todo))
        skinny = ds.map_batches(
            UnitWorker(index_dir, config, columns, fingerprint,
                       verify_sorted=True),
            batch_format="pyarrow",
        ).materialize()  # skinny (segment_id, term, df, cf) only — tiny
    else:
        skinny = ray.data.from_arrow(_skinny_empty())
    _mark("tokenize_encode_write")

    manifest, markers = _finalize(
        index_dir, config, units, fingerprint, total_input,
        None if resumed else skinny, [], 0, _mark,
    )
    manifest.counters.update(
        resumed_units=len(resumed), total_units=len(units),
        stage_secs=stage_secs,
    )
    manifest.write(index_dir)
    _drop_stale_generations(index_dir, manifest.termstats_gen)

    # Post-build auto-compaction, same hook as append: a bulk build whose
    # units-per-segment crosses the threshold leaves every posting list
    # fragmented across that many runs — reader load and head-term decode
    # scale with it (measured: a 16M-doc single segment built from 135 units
    # = 139.8M run rows, ~9 min reader load; ~1M rows after compaction).
    # Results are bit-identical; only the file layout changes.
    touched = {int(s["segment_id"]) for s in manifest.segments}
    compacted = _auto_compact(
        index_dir, markers, touched, config.auto_compact_unit_runs
    )
    _mark("auto_compact")
    if compacted:
        # persist the compaction timing (manifest content is otherwise
        # unchanged; a crash before this re-write leaves a complete,
        # merely-uncompacted-timed manifest)
        manifest.write(index_dir)
    return manifest


def _stage_timer():
    """(stage_secs, mark): mark(stage) records the seconds since the
    previous mark under `stage`."""
    stage_secs: dict[str, float] = {}
    last = [time.perf_counter()]

    def mark(stage: str) -> None:
        now = time.perf_counter()
        stage_secs[stage] = round(now - last[0], 3)
        last[0] = now

    return stage_secs, mark


def _finalize(index_dir: str, config: IndexConfig, units: list[dict],
              fingerprint: str, total_input: int, delta,
              committed: list[str], generation: int, mark):
    """Shared tail of build and append: verify the (conv_id, turn_idx) order
    across the boundaries of `units` (the units this call planned) from
    their markers, sum EVERY marker of the index into per-segment doc/dl/run
    counts, write termstats generation `generation` and the per-segment
    manifests. The termstats are the `delta` rows plus the `committed` part
    files; a None delta means a skinny-column read-back of all postings.
    Returns the (unwritten) IndexManifest, which names the
    generation and commits it once written, and the markers."""
    markers = _load_markers(index_dir)
    missing = [u["unit_id"] for u in units if u["unit_id"] not in markers]
    if missing:
        raise RuntimeError(f"units missing markers after build: {missing[:5]}")
    prev_last = None
    for u in units:
        m = markers[u["unit_id"]]
        if not m["rows"] or m["first"] is None:
            continue
        first = tuple(m["first"])
        # equal keys may straddle a boundary (duplicate docids without
        # dedup): units are sorted stably in place, so order still holds
        if prev_last is not None and first < prev_last:
            raise NotSortedError(
                f"unit boundary out of order: {first} after {prev_last}"
            )
        prev_last = tuple(m["last"])

    if delta is None:
        delta = ray.data.read_parquet(
            os.path.join(index_dir, "postings"), columns=["term", "df", "cf"]
        ).materialize()
    seg_counts: dict[int, int] = {}
    seg_sum_dl: dict[int, int] = {}
    term_counts: dict[int, int] = {}
    kept_total = err_total = skip_total = 0
    for m in markers.values():
        kept_total += int(m["kept"])
        err_total += int(m["errors"])
        skip_total += int(m.get("skipped", 0))
        for sid, vals in m["segments"].items():
            sid = int(sid)
            seg_counts[sid] = seg_counts.get(sid, 0) + int(vals[0])
            seg_sum_dl[sid] = seg_sum_dl.get(sid, 0) + int(vals[1])
            if len(vals) > 2:
                term_counts[sid] = term_counts.get(sid, 0) + int(vals[2])
    write_termstats(delta, index_dir, generation, committed)
    mark("termstats")

    segments = []
    for sid in sorted(seg_counts):
        seg = SegmentManifest(
            segment_id=sid,
            base_ord=sid << config.seg_shift,
            doc_count=seg_counts[sid],
            sum_dl=seg_sum_dl[sid],
            num_terms=term_counts.get(sid, 0),
            fingerprint=fingerprint,
        )
        seg.write(index_dir)
        segments.append(
            {"segment_id": sid, "doc_count": seg.doc_count,
             "sum_dl": seg.sum_dl, "num_terms": seg.num_terms}
        )
    mark("manifests")

    doc_count = sum(seg_counts.values())
    manifest = IndexManifest(
        version=INDEX_FORMAT_VERSION,
        analyzer=make_analyzer(config.analyzer).config_fingerprint(),
        norm_mode=config.norm_mode,
        seg_shift=config.seg_shift,
        block_size=config.block_size,
        fingerprint=fingerprint,
        doc_count=doc_count,
        sum_total_tf=sum(seg_sum_dl.values()),
        counters={
            "total_input": int(total_input),
            "indexed": doc_count,
            "empty": int(total_input) - kept_total - err_total - skip_total,
            "skipped": skip_total,
            "errors": err_total,
        },
        segments=segments,
        termstats_gen=generation,
        termstats_units=max(markers, default=-1) + 1,
    )
    return manifest, markers


def _drop_stale_generations(index_dir: str, keep: int) -> None:
    """Remove every termstats generation but the committed one (older
    generations, and a newer one a crashed write left uncommitted)."""
    import shutil

    root = os.path.join(index_dir, "termstats")
    for entry in os.listdir(root):
        if entry != f"g{keep}":
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)


def _auto_compact(index_dir: str, markers: dict, touched: set[int],
                  threshold: int | None) -> list[int]:
    """Compact segments whose effective fragmentation (unit writes since
    their last compaction) reaches `threshold`. Bookkeeping lives in
    compaction.json: {segment_id: marker-unit-count at last compaction} —
    a compacted segment counts as ONE equivalent unit afterwards, so
    effective = units_now - units_at_compaction + 1. Only segments touched
    by the current append are considered (untouched ones cannot have grown
    more fragmented). Returns the compacted segment ids."""
    import json

    if threshold is None or not touched:
        return []
    seg_units: dict[int, int] = {}
    for m in markers.values():
        for sid in m["segments"]:
            sid = int(sid)
            seg_units[sid] = seg_units.get(sid, 0) + 1
    state_path = os.path.join(index_dir, "compaction.json")
    state: dict[str, int] = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)
    to_compact = []
    for s in sorted(touched):
        now = seg_units.get(s, 0)
        base = state.get(str(s))
        eff = now if base is None else now - int(base) + 1
        if eff >= threshold:
            to_compact.append(s)
    if not to_compact:
        return []
    from .optimize import optimize_index

    optimize_index(index_dir, segments=to_compact)
    for s in to_compact:
        state[str(s)] = seg_units[s]
    tmp = state_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, state_path)
    return to_compact


def append_index_streaming(
    new_paths: list[str],
    index_dir: str,
    config: IndexConfig | None = None,
) -> IndexManifest:
    """Incremental ingest: append new sorted Parquet transcript files to an
    EXISTING streaming-built index without touching finished units.

    New units continue the ordinal space where the previous build ended
    (base = max(base + rows) over existing unit markers), so appending
    corpus B to an index of corpus A yields ordinals — and therefore
    search results — IDENTICAL to a one-shot build of A+B (units never
    span files, so even the unit plan matches; verified bit-for-bit in
    tests). New docs may extend the last partially-filled segment; their
    partition files land beside the old ones under the same hive layout.
    The global termstats are incremental: the new generation is the
    committed table plus the new units' (term, df, cf) rows, with no read
    of old postings. That holds when no unit was resumed and the committed
    generation counts exactly the units before this append; otherwise
    (a retry after a crash, a leftover unit of another append) the table is
    recomputed from a skinny-column read-back of all postings.

    The appended corpus must use the same analyzer/segmenting config as the
    original build (checked against the manifest)."""
    config = config or IndexConfig()
    old = IndexManifest.read(index_dir)
    want_an = make_analyzer(config.analyzer).config_fingerprint()
    if (
        old.analyzer != want_an
        or old.seg_shift != config.seg_shift
        or old.block_size != config.block_size
        or old.norm_mode != config.norm_mode
    ):
        raise ValueError(
            "append config incompatible with the existing index "
            f"(analyzer {old.analyzer!r} vs {want_an!r}, seg_shift "
            f"{old.seg_shift} vs {config.seg_shift})"
        )

    stage_secs, _mark = _stage_timer()
    old_markers = _load_markers(index_dir)
    if not old_markers:
        raise ValueError(
            "append requires a streaming-built index (no unit markers found)"
        )
    paths = sorted(new_paths)
    fingerprint = input_fingerprint(paths, config.repr_for_fingerprint())
    # Crash idempotency (mirrors build_index_streaming's resume): units
    # written by a previous — possibly crashed — append of THIS SAME input
    # carry this fingerprint. They must not shift next_uid/base_start
    # (that would re-plan already-ingested rows at new ordinals, i.e.
    # duplicate docs); instead they are resumed when their placement
    # matches the new plan. Consequence: re-appending identical input is a
    # no-op, not a duplication.
    prior_same = {
        uid: m
        for uid, m in old_markers.items()
        if m.get("fingerprint") == fingerprint
    }
    original = {
        uid: m for uid, m in old_markers.items() if uid not in prior_same
    }
    if not original:
        raise ValueError(
            "append input fingerprint matches the base build — refusing to "
            "append an index onto itself"
        )
    base_start = max(m["base"] + m["rows"] for m in original.values())
    next_uid = max(original) + 1

    units, _, columns = plan_units(paths)
    for u in units:
        u["unit_id"] += next_uid
        u["base"] += base_start
    # Fingerprint + placement matching prior units are ALWAYS resumed in an
    # append (not gated on config.resume): they are the same input at the
    # same ordinals, so re-running them is pure waste — and once
    # auto-compaction has merged a segment's unit files, delete-and-rerun
    # would DUPLICATE those postings (u-file deletion can no longer reach
    # rows that were compacted into combined files).
    resumed: dict[int, dict] = {}
    for u in units:
        m = prior_same.get(u["unit_id"])
        if (
            m is not None
            and m.get("base") == u["base"]
            and m.get("rows") == u["rows"]
        ):
            resumed[u["unit_id"]] = m
    # drop stale markers+files from prior attempts that the new plan does
    # not resume, and orphan partition files with no marker at all (a unit
    # that crashed after writing parquet but before its marker)
    stale = (set(prior_same) - set(resumed)) | {
        u["unit_id"] for u in units if u["unit_id"] not in resumed
    }
    _remove_units(index_dir, stale)
    _remove_unmarked_unit_files(index_dir)
    import shutil

    shutil.rmtree(os.path.join(index_dir, "manifests"), ignore_errors=True)
    _mark("plan")

    todo = [u for u in units if u["unit_id"] not in resumed]
    if todo:
        ds = ray.data.from_items(todo, override_num_blocks=len(todo))
        delta = ds.map_batches(
            UnitWorker(index_dir, config, columns, fingerprint,
                       verify_sorted=True),
            batch_format="pyarrow",
        ).materialize()
    else:
        delta = ray.data.from_arrow(_skinny_empty())
    _mark("tokenize_encode_write")

    # The committed generation counts the units below old.termstats_units,
    # so only units at or past that bound are new to the counters. Adding
    # the delta to it is exact only when no unit was resumed and the bound
    # is where this call's units start; otherwise read all postings back.
    gen = old.termstats_gen
    committed = [] if gen is None else sorted(glob.glob(
        os.path.join(termstats_dir(index_dir, gen), "part-*.parquet")))
    if resumed or not committed or old.termstats_units != next_uid:
        delta, committed = None, []
    total_input = int(old.counters.get("total_input", 0)) + sum(
        u["rows"] for u in units if u["unit_id"] >= old.termstats_units
    )
    # the boundary check covers ONLY the new units (the appended corpus
    # need not sort after the old one — ordinals are disjoint)
    manifest, markers = _finalize(
        index_dir, config, units, fingerprint, total_input, delta, committed,
        0 if gen is None else gen + 1, _mark,
    )

    # auto-compaction: segments this append touched that have accumulated
    # enough unit-write fragmentation get force-merged in place (content
    # is unchanged — search results stay bit-identical)
    touched = {
        int(sid)
        for u in units
        for sid in markers[u["unit_id"]]["segments"]
    }
    compacted = _auto_compact(
        index_dir, markers, touched, config.auto_compact_unit_runs
    )
    _mark("auto_compact")

    manifest.counters.update(
        appended_units=len(units), total_units=len(markers),
        auto_compacted_segments=compacted, stage_secs=stage_secs,
    )
    manifest.write(index_dir)
    _drop_stale_generations(index_dir, manifest.termstats_gen)
    return manifest
