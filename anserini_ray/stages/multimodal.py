"""Multimodal column plumbing: image/audio/video as opaque binary columns
with typed metadata, processed by actor-pool map_batches stages.

Decoder modes:
- ``decoder="numpy"`` — REAL decoding for the formats the pure-stdlib
  codecs cover (baseline AND progressive JPEG — Huffman entropy decode
  incl. spectral selection / successive approximation, IDCT + chroma
  upsampling, see stages/jpeg.py — PNG with all five scanline filters via
  zlib inflate + numpy unfilter, PPM/PGM, uncompressed 24-bit BMP images,
  RIFF PCM WAV audio; see stages/codecs.py): real pixels/samples, real
  bilinear resize, real audio windowing. Container-level MP4/MP3
  metadata and MP4 sample DEMUX are also real (stages/media_meta.py:
  MediaMetadata stage, VideoFrameSample decoder="demux"). Only the
  entropy DECODE of library-bound codecs (H.264/AAC/MP3 audio,
  arithmetic-coded or 12-bit JPEG) still raises NotImplementedError —
  those libraries are absent in this environment (declared).
- ``decoder="fake"`` — deterministic stand-in (hash-seeded statistics) so
  the Ray-side plumbing — schema, batch sizing, actor signature, output
  layout — is testable for arbitrary media types.
- ``decoder="none"`` — raises at the decode call.

Schema convention:
    payload: binary        the encoded media bytes
    media_type: string     e.g. "image/png", "audio/wav"
    meta: string (JSON)    width/height/duration/etc.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("item_id", pa.int64()),
        ("payload", pa.large_binary()),
        ("media_type", pa.string()),
        ("meta", pa.string()),
    ]
)


def synthesize_media_table(n: int, seed: int = 42, payload_size: int = 4096) -> pa.Table:
    """Deterministic fake media corpus (opaque bytes) for plumbing tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=payload_size, dtype=np.uint8).tobytes() for _ in range(n)]
    types = [("image/png", "audio/wav", "video/mp4")[i % 3] for i in range(n)]

    def _meta(i):
        kind = i % 3
        if kind == 0:
            return {"w": 64 + (i % 8) * 32, "h": 64, "frames": 1}
        if kind == 1:
            return {"sr": 16000, "seconds": 1 + (i % 5)}
        return {"w": 320, "h": 240, "frames": 30 * (1 + (i % 4)), "fps": 30}

    metas = [json.dumps(_meta(i)) for i in range(n)]
    return pa.table(
        {
            "item_id": pa.array(range(n), type=pa.int64()),
            "payload": pa.array(payloads, type=pa.large_binary()),
            "media_type": pa.array(types),
            "meta": pa.array(metas),
        }
    )


def _fake_decode(payload: bytes, media_type: str) -> np.ndarray:
    """Deterministic stand-in for a real decoder: derives a fixed-length
    feature vector from a stable digest of the payload."""
    h = hashlib.sha256(payload).digest()
    return (
        np.frombuffer((h * 4)[:128], dtype=np.uint8).astype(np.float32) / 255.0
    )


class MediaFeatureExtract:
    """Actor-pool stage: decode → feature-extract.

    Real deployments pass ``decoder="<library>"`` and implement `_decode`;
    here "none" raises NotImplementedError (clearly-marked stub) and "fake"
    uses the deterministic digest features. Use small batch_size for large
    payloads (batch_bytes ≈ payload_size × batch_size × concurrency must fit
    the worker heap)."""

    def __init__(self, decoder: str = "fake", feature_dim: int = 128,
                 on_error: str = "raise"):
        self.on_error = on_error
        self.decoder = decoder
        self.feature_dim = feature_dim

    def _decode(self, payload: bytes, media_type: str) -> np.ndarray:
        if self.decoder == "fake":
            return _fake_decode(payload, media_type)
        if self.decoder == "numpy":
            from . import codecs

            if payload[:2] in (b"P5", b"P6"):
                img = codecs.decode_ppm(payload)
                gray = img.mean(axis=2) if img.ndim == 3 else img
                hist, _ = np.histogram(
                    gray, bins=self.feature_dim, range=(0, 256)
                )
                return (hist / max(1, gray.size)).astype(np.float32)
            if payload[:2] == b"BM":
                img = codecs.decode_bmp(payload)
                hist, _ = np.histogram(
                    img.mean(axis=2), bins=self.feature_dim, range=(0, 256)
                )
                return (hist / max(1, img.shape[0] * img.shape[1])).astype(
                    np.float32
                )
            if payload[:8] == b"\x89PNG\r\n\x1a\n":
                img = codecs.decode_png(payload)
                if img.ndim == 3:
                    # drop alpha for the luminance histogram
                    color = img[:, :, :3] if img.shape[2] >= 3 else img[:, :, :1]
                    gray = color.mean(axis=2)
                else:
                    gray = img
                hist, _ = np.histogram(
                    gray, bins=self.feature_dim, range=(0, 256)
                )
                return (hist / max(1, gray.size)).astype(np.float32)
            if payload[:2] == b"\xff\xd8":
                from .jpeg import decode_jpeg

                img = decode_jpeg(payload)
                gray = img.mean(axis=2) if img.ndim == 3 else img
                hist, _ = np.histogram(
                    gray, bins=self.feature_dim, range=(0, 256)
                )
                return (hist / max(1, gray.size)).astype(np.float32)
            if payload[:6] in (b"GIF87a", b"GIF89a"):
                from .gif import decode_gif

                img = decode_gif(payload)
                hist, _ = np.histogram(
                    img.mean(axis=2), bins=self.feature_dim, range=(0, 256)
                )
                return (hist / max(1, img.shape[0] * img.shape[1])).astype(
                    np.float32
                )
            if payload[:4] == b"RIFF":
                samples, _sr = codecs.decode_wav(payload)
                if samples.ndim > 1:
                    samples = samples.mean(axis=1)
                # fixed-dim RMS envelope
                n = len(samples)
                if n == 0:
                    return np.zeros(self.feature_dim, dtype=np.float32)
                bounds = np.linspace(0, n, self.feature_dim + 1).astype(int)
                sq = np.concatenate([[0.0], np.cumsum(samples.astype(np.float64) ** 2)])
                seg = np.maximum(bounds[1:] - bounds[:-1], 1)
                return np.sqrt(
                    (sq[bounds[1:]] - sq[bounds[:-1]]) / seg
                ).astype(np.float32)
            raise NotImplementedError(
                f"numpy decoder covers PPM/PGM, PNG, baseline JPEG, 24-bit "
                f"BMP and PCM WAV; {media_type!r} payloads need an external "
                f"library"
            )
        raise NotImplementedError(
            "real media decoding requires image/audio libraries not present "
            "in this environment; plug a decoder in here"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        types = batch["media_type"].to_pylist()
        rows: list[np.ndarray] = []
        keep: list[int] = []
        for i, (p, t) in enumerate(zip(payloads, types)):
            try:
                rows.append(self._decode(p, t)[: self.feature_dim])
                keep.append(i)
            except (ValueError, NotImplementedError):
                # on_error="skip": corrupt/unsupported payloads are routine
                # at corpus scale — drop the row instead of failing (and
                # re-failing on retry) the whole batch
                if self.on_error != "skip":
                    raise
        n = len(keep)
        off = pa.array(
            np.arange(0, (n + 1) * self.feature_dim, self.feature_dim,
                      dtype=np.int32)
        )
        feat_col = pa.ListArray.from_arrays(
            off,
            pa.array(
                np.stack(rows).reshape(-1) if rows
                else np.empty(0, dtype=np.float32),
                type=pa.float32(),
            ),
        )
        idx = pa.array(np.asarray(keep, dtype=np.int64))
        return pa.Table.from_arrays(
            [
                batch["item_id"].take(idx),
                batch["media_type"].take(idx),
                feat_col,
            ],
            names=["item_id", "media_type", "features"],
        )


def media_pipeline(media_ds, decoder: str = "fake", concurrency=(1, 8), batch_size: int = 64):
    """read → actor-pool decode/feature-extract (binary payloads => small
    batches; stateful decoder built once per actor)."""
    return media_ds.map_batches(
        MediaFeatureExtract,
        fn_constructor_kwargs={"decoder": decoder},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# Round-2 stage family: resize / frame-sample / window ops with the same
# decode-stub convention ("none" raises, "fake" is deterministic) and REAL
# Ray-side semantics: schemas, one->many fan-out, batch sizing, metadata
# propagation. Exact media dedup is fully real (content digests need no
# decoder).
# ---------------------------------------------------------------------------


class ImageResize:
    """Actor-pool stage: decode -> resize -> re-encode. Fake decoder emits a
    deterministic payload of exactly target_w*target_h bytes derived from
    the source digest; meta JSON is updated with the new dimensions (real
    plumbing: metadata propagation + output sizing)."""

    def __init__(self, target_w: int = 224, target_h: int = 224,
                 decoder: str = "fake", on_error: str = "raise"):
        self.w = target_w
        self.h = target_h
        self.decoder = decoder
        self.on_error = on_error

    def _resize(self, payload: bytes) -> bytes:
        if self.decoder == "numpy":
            from . import codecs

            if payload[:2] in (b"P5", b"P6"):
                img = codecs.decode_ppm(payload)
                return codecs.encode_ppm(
                    codecs.resize_bilinear(img, self.h, self.w)
                )
            if payload[:2] == b"BM":
                img = codecs.decode_bmp(payload)
                return codecs.encode_bmp(
                    codecs.resize_bilinear(img, self.h, self.w)
                )
            if payload[:8] == b"\x89PNG\r\n\x1a\n":
                img = codecs.decode_png(payload)
                return codecs.encode_png(
                    codecs.resize_bilinear(img, self.h, self.w)
                )
            if payload[:2] == b"\xff\xd8":
                from . import jpeg

                img = jpeg.decode_jpeg(payload)
                return jpeg.encode_jpeg(
                    codecs.resize_bilinear(img, self.h, self.w)
                )
            if payload[:6] in (b"GIF87a", b"GIF89a"):
                from . import gif

                img = gif.decode_gif(payload)
                resized = codecs.resize_bilinear(img, self.h, self.w)
                try:
                    return gif.encode_gif(resized)
                except ValueError:
                    # bilinear blending can exceed 256 colors; PNG keeps
                    # the payload lossless without a quantizer
                    return codecs.encode_png(resized)
            raise NotImplementedError(
                "numpy resize covers PPM/PGM, PNG, GIF, JPEG and "
                "24-bit BMP payloads"
            )
        if self.decoder != "fake":
            raise NotImplementedError(
                "real image resize requires an imaging library not present "
                "in this environment; plug a decoder in here"
            )
        seed = hashlib.sha256(payload).digest()
        reps = (self.w * self.h) // len(seed) + 1
        return (seed * reps)[: self.w * self.h]

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_payload, out_type, out_meta, keep = [], [], [], []
        for i, (p, mt, meta) in enumerate(zip(
            batch["payload"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["meta"].to_pylist(),
        )):
            if not mt.startswith("image/"):
                out_payload.append(p)  # pass-through for non-images
                out_type.append(mt)
                out_meta.append(meta)
                keep.append(i)
                continue
            try:
                resized = self._resize(p)
            except (ValueError, NotImplementedError):
                # on_error="skip": drop corrupt/unsupported rows instead
                # of failing the whole batch (routine at corpus scale)
                if self.on_error != "skip":
                    raise
                continue
            out_payload.append(resized)
            if mt == "image/gif" and resized[:8] == b"\x89PNG\r\n\x1a\n":
                mt = "image/png"  # a >256-color GIF resize comes back as PNG
            out_type.append(mt)
            m = json.loads(meta or "{}")
            m["w"], m["h"] = self.w, self.h
            out_meta.append(json.dumps(m))
            keep.append(i)
        idx = pa.array(np.asarray(keep, dtype=np.int64))
        return pa.Table.from_arrays(
            [
                batch["item_id"].take(idx),
                pa.array(out_payload, type=pa.large_binary()),
                pa.array(out_type, type=batch["media_type"].type),
                pa.array(out_meta, type=pa.string()),
            ],
            names=["item_id", "payload", "media_type", "meta"],
        )


class VideoFrameSample:
    """Actor-pool stage with ONE->MANY fan-out: each video row emits one row
    per sampled frame (item_id, frame_idx, payload, meta). Sampling takes
    every `stride`-th frame up to `max_frames`.

    decoder="demux" — REAL container demux: for ISO-BMFF (MP4/MOV)
    payloads via stages/media_meta.mp4_sample_table the emitted payload
    is the frame's actual encoded sample bytes straight out of mdat
    (media_type "video/sample"; decoding those H.264/... samples stays
    library-bound, declared); for animated GIF payloads the frames are
    fully DECODED and composited (stages/gif.decode_gif_frames) and
    emitted as lossless PNG (media_type "image/png"). Frame counts come
    from the containers themselves.
    decoder="fake" — deterministic stand-in (digest of payload+idx), frame
    count from the meta JSON ("frames")."""

    def __init__(self, stride: int = 10, max_frames: int = 16,
                 decoder: str = "fake"):
        if decoder not in ("fake", "demux"):
            raise NotImplementedError(
                "real frame DECODE requires a video library not present in "
                "this environment; use decoder='demux' for container-level "
                "sample extraction or 'fake' for plumbing tests"
            )
        self.stride = stride
        self.max_frames = max_frames
        self.decoder = decoder

    def _frame(self, payload: bytes, idx: int) -> bytes:
        return hashlib.sha256(payload + idx.to_bytes(4, "big")).digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, payloads, mts, metas = [], [], [], [], []
        for iid, p, mt, meta in zip(
            batch["item_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["meta"].to_pylist(),
        ):
            is_gif = (
                self.decoder == "demux" and p[:6] in (b"GIF87a", b"GIF89a")
            )
            if not mt.startswith("video/") and not is_gif:
                continue
            gif_frames = None
            if is_gif:
                from anserini_ray.stages.gif import decode_gif_frames

                gif_frames, _ = decode_gif_frames(
                    p, max_frames=self.stride * self.max_frames
                )
                n_frames = len(gif_frames)
                out_mt = "image/png"
            elif self.decoder == "demux":
                from anserini_ray.stages.media_meta import mp4_sample_table

                offsets, sizes = mp4_sample_table(p, kind="video")
                n_frames = len(offsets)
                out_mt = "video/sample"
            else:
                n_frames = int(json.loads(meta or "{}").get("frames", 0))
                out_mt = "image/raw"
            taken = 0
            for f in range(0, n_frames, self.stride):
                if taken >= self.max_frames:
                    break
                ids.append(iid)
                fidx.append(f)
                if gif_frames is not None:
                    from anserini_ray.stages.codecs import encode_png

                    payloads.append(encode_png(gif_frames[f]))
                elif self.decoder == "demux":
                    payloads.append(
                        p[int(offsets[f]) : int(offsets[f]) + int(sizes[f])]
                    )
                else:
                    payloads.append(self._frame(p, f))
                mts.append(out_mt)
                metas.append(meta)
                taken += 1
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(fidx, type=pa.int32()),
                pa.array(payloads, type=pa.large_binary()),
                pa.array(mts, type=pa.string()),
                pa.array(metas),
            ],
            names=["item_id", "frame_idx", "payload", "media_type", "meta"],
        )


class AudioWindow:
    """Actor-pool stage: audio rows -> fixed-length analysis windows
    (item_id, window_idx, start_s, payload). Window/hop come in seconds and
    combine with the meta sample rate; fake decoder slices the raw payload
    proportionally (real plumbing: window arithmetic + fan-out)."""

    def __init__(self, window_s: float = 1.0, hop_s: float = 0.5,
                 decoder: str = "fake"):
        self.window_s = window_s
        self.hop_s = hop_s
        self.decoder = decoder

    def _wav_windows(self, batch: pa.Table) -> pa.Table:
        """REAL path (decoder='numpy'): decode RIFF PCM WAV, frame into
        window_s/hop_s sample windows, re-encode each window as WAV."""
        from . import codecs

        ids, widx, starts, payloads = [], [], [], []
        for iid, p, mt in zip(
            batch["item_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["media_type"].to_pylist(),
        ):
            if not mt.startswith("audio/") or p[:4] != b"RIFF":
                continue
            samples, sr = codecs.decode_wav(p)
            if samples.ndim > 1:
                samples = samples.mean(axis=1)
            frames = codecs.frame_windows(samples, sr, self.window_s, self.hop_s)
            for i in range(frames.shape[0]):
                ids.append(iid)
                widx.append(i)
                starts.append(i * self.hop_s)
                payloads.append(
                    codecs.encode_wav(
                        np.clip(frames[i] * 32768.0, -32768, 32767).astype(
                            np.int16
                        ),
                        sr,
                    )
                )
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(widx, type=pa.int32()),
                pa.array(starts, type=pa.float64()),
                pa.array(payloads, type=pa.large_binary()),
            ],
            names=["item_id", "window_idx", "start_s", "payload"],
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.decoder == "numpy":
            return self._wav_windows(batch)
        if self.decoder != "fake":
            raise NotImplementedError(
                "real audio decoding requires an audio library not present "
                "in this environment; plug a decoder in here"
            )
        ids, widx, starts, payloads = [], [], [], []
        for iid, p, mt, meta in zip(
            batch["item_id"].to_pylist(),
            batch["payload"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["meta"].to_pylist(),
        ):
            if not mt.startswith("audio/"):
                continue
            m = json.loads(meta or "{}")
            seconds = float(m.get("seconds", 0.0))
            if seconds <= 0:
                continue
            bytes_per_s = max(1, int(len(p) / seconds))
            t = 0.0
            i = 0
            while t + self.window_s <= seconds + 1e-9:
                lo = int(t * bytes_per_s)
                hi = min(len(p), int((t + self.window_s) * bytes_per_s))
                ids.append(iid)
                widx.append(i)
                starts.append(t)
                payloads.append(p[lo:hi])
                t += self.hop_s
                i += 1
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(widx, type=pa.int32()),
                pa.array(starts, type=pa.float64()),
                pa.array(payloads, type=pa.large_binary()),
            ],
            names=["item_id", "window_idx", "start_s", "payload"],
        )


def media_exact_dedup(media_ds):
    """Exact media dedup by content digest — fully REAL (no decoder needed):
    sha256 per payload in map_batches, one hash aggregate on the 64-bit
    digest prefix, representative = min item_id. Payload bytes never
    shuffle."""
    from .hashagg import hash_aggregate

    def digest(batch: pa.Table) -> pa.Table:
        hashes = [
            int.from_bytes(hashlib.sha256(p).digest()[:8], "big") - (1 << 63)
            for p in batch["payload"].to_pylist()
        ]
        return pa.Table.from_arrays(
            [pa.array(hashes, type=pa.int64()), batch["item_id"]],
            names=["digest", "item_id"],
        )

    return hash_aggregate(
        media_ds.map_batches(digest, batch_format="pyarrow"),
        ["digest"],
        [("min", "item_id"), ("count", None)],
        ["rep_item_id", "dup_count"],
    ).drop_columns(["digest"])
