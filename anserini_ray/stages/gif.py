"""GIF87a/89a codec (LZW) in pure stdlib + numpy.

Scope, per the public GIF89a specification:

- decode: logical screen + global/local color tables, LZW-compressed
  image data (variable code width 3..12 bits, clear/EOI codes, the
  KwKwK special case, 4096-entry table cap), interlaced row order,
  graphic-control extensions (transparency index respected by filling
  with the background color), multi-image streams (first frame is
  rendered; ``gif_info`` counts all frames).
- encode: palette-building encoder for images with <= 256 distinct
  colors (no quantizer — synthetic/test corpora), optional interlace,
  single frame.

The LZW code loop is per-code Python — inherent to the format, same
cost class as the JPEG Huffman loop next door; in the pipeline this
runs inside the multimodal actor pool whose batch sizing assumes
decode-bound payloads. Reference parity note: the reference engine has
no media path (this comes from the LLM-pipeline brief)."""

from __future__ import annotations

import struct

import numpy as np

_MAX_CODE = 4096


# ------------------------------------------------------------------ LZW


def _lzw_decode(data: bytes, min_code_size: int, npix: int) -> bytearray:
    clear = 1 << min_code_size
    end = clear + 1
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = list(base)
    code_size = min_code_size + 1
    out = bytearray()
    prev = None
    acc = 0
    nbits = 0
    pos = 0
    n = len(data)
    while len(out) < npix:
        while nbits < code_size:
            if pos >= n:
                raise ValueError("truncated GIF LZW stream")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        nbits -= code_size
        if code == clear:
            table = list(base)
            code_size = min_code_size + 1
            prev = None
            continue
        if code == end:
            break
        if prev is None:
            if code >= len(table):
                raise ValueError("invalid first GIF LZW code")
            entry = table[code]
        else:
            if code < len(table):
                entry = table[code]
            elif code == len(table):  # KwKwK
                entry = prev + prev[:1]
            else:
                raise ValueError("GIF LZW code out of range")
            if len(table) < _MAX_CODE:
                table.append(prev + entry[:1])
                if len(table) == (1 << code_size) and code_size < 12:
                    code_size += 1
        out += entry
        prev = entry
    return out[:npix]


class _LzwWriter:
    def __init__(self, min_code_size: int):
        self.min = min_code_size
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, size: int):
        self.acc |= code << self.nbits
        self.nbits += size
        while self.nbits >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self) -> bytes:
        if self.nbits:
            self.buf.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.buf)


def _lzw_encode(indices: bytes, min_code_size: int) -> bytes:
    clear = 1 << min_code_size
    end = clear + 1
    w = _LzwWriter(min_code_size)
    table = {bytes([i]): i for i in range(clear)}
    next_code = end + 1
    code_size = min_code_size + 1
    w.put(clear, code_size)
    if not indices:
        w.put(end, code_size)
        return w.flush()
    cur = indices[:1]
    for i in range(1, len(indices)):
        c = indices[i : i + 1]
        if cur + c in table:
            cur += c
            continue
        w.put(table[cur], code_size)
        if next_code < _MAX_CODE:
            table[cur + c] = next_code
            next_code += 1
            if next_code > (1 << code_size) and code_size < 12:
                code_size += 1
        else:
            # table full: emit clear and restart (bounds decoder memory)
            w.put(clear, code_size)
            table = {bytes([j]): j for j in range(clear)}
            next_code = end + 1
            code_size = min_code_size + 1
        cur = c
    w.put(table[cur], code_size)
    w.put(end, code_size)
    return w.flush()


# ------------------------------------------------------------- decoder


def _sub_blocks(buf: bytes, i: int) -> tuple[bytes, int]:
    """Concatenate length-prefixed sub-blocks starting at i; returns
    (data, next offset past the 0 terminator)."""
    out = bytearray()
    n = len(buf)
    while i < n:
        ln = buf[i]
        i += 1
        if ln == 0:
            break
        out += buf[i : i + ln]
        i += ln
    return bytes(out), i


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _deinterlace(rows: np.ndarray) -> np.ndarray:
    h = rows.shape[0]
    order = np.concatenate(
        [np.arange(start, h, step) for start, step in _INTERLACE_PASSES]
    )
    out = np.empty_like(rows)
    out[order] = rows
    return out


MAX_PIXELS = 1 << 28  # flipped dimension bytes must not become GB allocs


def decode_gif(buf: bytes) -> np.ndarray:
    """Decode the FIRST image of a GIF into (H, W, 3) uint8 RGB on the
    logical screen (background-filled; transparent pixels keep the
    background color). Malformed streams raise ValueError (corrupt
    payloads are routine at corpus scale; the decoding actor must see a
    catchable, expected exception type)."""
    try:
        return _decode_gif(buf, max_frames=1)[0][0]
    except (ValueError, NotImplementedError):
        raise
    except (struct.error, IndexError, KeyError, OverflowError) as e:
        raise ValueError(f"corrupt GIF stream ({type(e).__name__})") from e


def decode_gif_frames(buf: bytes, max_frames: int = 64):
    """Decode an animated GIF: (frames, delays_cs) where frames is a list
    of fully-composited (H, W, 3) uint8 RGB screens (transparent pixels
    show the previous composited content, disposal methods 'none/keep'
    and 'restore background' and 'restore previous' per GIF89a) and
    delays_cs the per-frame delays in centiseconds."""
    try:
        return _decode_gif(buf, max_frames=max_frames)
    except (ValueError, NotImplementedError):
        raise
    except (struct.error, IndexError, KeyError, OverflowError) as e:
        raise ValueError(f"corrupt GIF stream ({type(e).__name__})") from e


def _decode_gif(buf: bytes, max_frames: int):
    if buf[:6] not in (b"GIF87a", b"GIF89a") or len(buf) < 13:
        raise ValueError("not a GIF")
    sw, sh, packed, bg, _aspect = struct.unpack_from("<HHBBB", buf, 6)
    if sw < 1 or sh < 1 or sw * sh > MAX_PIXELS:
        raise ValueError("invalid GIF screen dimensions")
    i = 13
    gct = None
    if packed & 0x80:
        gsize = 2 << (packed & 0x07)
        gct = np.frombuffer(buf, np.uint8, 3 * gsize, i).reshape(-1, 3)
        i += 3 * gsize
    transparent = None
    delay = 0
    disposal = 0
    bg_rgb = gct[bg] if gct is not None and bg < len(gct) else np.zeros(
        3, dtype=np.uint8)
    screen = np.zeros((sh, sw, 3), dtype=np.uint8)
    screen[:] = bg_rgb
    frames: list[np.ndarray] = []
    delays: list[int] = []
    prev_disposal = 0
    prev_rect = None
    saved = None
    n = len(buf)
    while i < n and len(frames) < max_frames:
        b = buf[i]
        i += 1
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension
            label = buf[i]
            i += 1
            data, i = _sub_blocks(buf, i)
            if label == 0xF9 and len(data) >= 4:
                flags, delay = struct.unpack_from("<BH", data, 0)
                transparent = data[3] if flags & 0x01 else None
                disposal = (flags >> 2) & 0x07
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02x}")
        # dispose of the PREVIOUS frame's region before drawing this one
        # (copy first: appended frames must not be mutated)
        if prev_rect is not None:
            pt, pl, ph_, pw_ = prev_rect
            if prev_disposal == 2:  # restore background
                screen = screen.copy()
                screen[pt : pt + ph_, pl : pl + pw_] = bg_rgb
            elif prev_disposal == 3 and saved is not None:  # restore prev
                screen = saved
        # image descriptor
        left, top, w, h, ipacked = struct.unpack_from("<HHHHB", buf, i)
        i += 9
        if w < 1 or h < 1 or w * h > MAX_PIXELS or left + w > sw or \
                top + h > sh:
            raise ValueError("invalid GIF image descriptor")
        ct = gct
        if ipacked & 0x80:
            lsize = 2 << (ipacked & 0x07)
            ct = np.frombuffer(buf, np.uint8, 3 * lsize, i).reshape(-1, 3)
            i += 3 * lsize
        if ct is None:
            raise ValueError("GIF image with no color table")
        min_code = buf[i]
        i += 1
        data, i = _sub_blocks(buf, i)
        idx = np.frombuffer(
            _lzw_decode(data, min_code, w * h), np.uint8
        ).reshape(h, w)
        if ipacked & 0x40:
            idx = _deinterlace(idx)
        # a transparent pixel is never looked up: its index may lie past
        # the color table
        opaque = idx if transparent is None else idx[idx != transparent]
        if opaque.max(initial=0) >= len(ct):
            raise ValueError("GIF pixel index out of palette range")
        if disposal == 3:
            saved = screen.copy()
        rgb = ct[np.minimum(idx, len(ct) - 1)]
        if transparent is not None:
            mask = idx == transparent
            rgb = np.where(mask[:, :, None],
                           screen[top : top + h, left : left + w], rgb)
        screen = screen.copy()  # frames must not alias each other
        screen[top : top + h, left : left + w] = rgb
        frames.append(screen)
        delays.append(delay)
        prev_rect = (top, left, h, w)
        prev_disposal = disposal
        transparent = None
        disposal = 0
        delay = 0
    if not frames:
        raise ValueError("no image data in GIF")
    return frames, delays


def gif_info(buf: bytes) -> dict:
    """Header-only walk: dimensions, version, frame count (skips LZW
    payload bytes without decoding them)."""
    if buf[:6] not in (b"GIF87a", b"GIF89a") or len(buf) < 13:
        raise ValueError("not a GIF")
    sw, sh, packed, _bg, _aspect = struct.unpack_from("<HHBBB", buf, 6)
    i = 13
    if packed & 0x80:
        i += 3 * (2 << (packed & 0x07))
    frames = 0
    n = len(buf)
    while i < n:
        b = buf[i]
        i += 1
        if b == 0x3B:
            break
        if b == 0x21:
            i += 1
            _, i = _sub_blocks(buf, i)
            continue
        if b != 0x2C:
            break
        if i + 9 > n:
            break
        ipacked = buf[i + 8]
        i += 9
        if ipacked & 0x80:
            i += 3 * (2 << (ipacked & 0x07))
        i += 1  # LZW min code size
        _, i = _sub_blocks(buf, i)
        frames += 1
    return {"width": sw, "height": sh, "frames": frames,
            "version": buf[3:6].decode("latin1")}


# ------------------------------------------------------------- encoder


def encode_gif_frames(frames, delays_cs=None, *, loop: bool = True) -> bytes:
    """Animated GIF89a encode: full-frame images (disposal 'none'), one
    shared global palette built from ALL frames (<= 256 distinct colors
    total, no quantizer), per-frame delay in centiseconds, optional
    Netscape loop extension."""
    frames = [np.asarray(f) for f in frames]
    if not frames:
        raise ValueError("encode_gif_frames needs at least one frame")
    if any(f.dtype != np.uint8 for f in frames):
        raise ValueError("encode_gif_frames expects uint8 frames")
    norm = [np.stack([f] * 3, axis=2) if f.ndim == 2 else f
            for f in frames]
    h, w = norm[0].shape[:2]
    if any(f.shape != (h, w, 3) for f in norm):
        raise ValueError("all frames must share (H, W, 3) uint8 shape")
    delays = list(delays_cs) if delays_cs is not None else [10] * len(norm)
    if len(delays) != len(norm):
        raise ValueError("delays_cs must match the frame count")
    packed = [
        (f[:, :, 0].astype(np.uint32) << 16)
        | (f[:, :, 1].astype(np.uint32) << 8) | f[:, :, 2]
        for f in norm
    ]
    palette = np.unique(np.concatenate([p.ravel() for p in packed]))
    if palette.size > 256:
        raise ValueError(
            f"encode_gif_frames needs <=256 distinct colors across all "
            f"frames, got {palette.size}"
        )
    depth = max(1, int(palette.size - 1).bit_length())
    tbl_size = 1 << depth
    colors = np.zeros((tbl_size, 3), dtype=np.uint8)
    colors[: palette.size, 0] = (palette >> 16) & 0xFF
    colors[: palette.size, 1] = (palette >> 8) & 0xFF
    colors[: palette.size, 2] = palette & 0xFF
    min_code = max(2, depth)

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += colors.tobytes()
    if loop and len(norm) > 1:  # Netscape 2.0 infinite-loop extension
        out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    for f_packed, delay in zip(packed, delays):
        idx = np.searchsorted(palette, f_packed.ravel()).astype(
            np.uint8).reshape(h, w)
        # GCE: disposal none, no transparency, delay in centiseconds
        out += struct.pack("<BBBBHBB", 0x21, 0xF9, 4, 0, int(delay), 0, 0)
        out += struct.pack("<BHHHHB", 0x2C, 0, 0, w, h, 0)
        out.append(min_code)
        lzw = _lzw_encode(idx.tobytes(), min_code)
        for lo in range(0, len(lzw), 255):
            chunk = lzw[lo : lo + 255]
            out.append(len(chunk))
            out += chunk
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)


def encode_gif(img: np.ndarray, *, interlace: bool = False) -> bytes:
    """Single-frame GIF89a encode of an (H, W, 3) uint8 image with at
    most 256 distinct colors (palette built from the pixels; no
    quantizer) or an (H, W) uint8 grayscale image."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("encode_gif expects uint8")
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=2)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected (H, W) or (H, W, 3)")
    h, w = img.shape[:2]
    packed_px = (
        img[:, :, 0].astype(np.uint32) << 16
    ) | (img[:, :, 1].astype(np.uint32) << 8) | img[:, :, 2]
    palette, inverse = np.unique(packed_px.ravel(), return_inverse=True)
    if palette.size > 256:
        raise ValueError(
            f"encode_gif needs <=256 distinct colors, got {palette.size} "
            "(no quantizer in this codec)"
        )
    depth = max(1, int(palette.size - 1).bit_length())
    tbl_size = 1 << depth
    idx = inverse.astype(np.uint8).reshape(h, w)
    if interlace:
        order = np.concatenate(
            [np.arange(start, h, step) for start, step in _INTERLACE_PASSES]
        )
        idx = idx[order]
    colors = np.zeros((tbl_size, 3), dtype=np.uint8)
    colors[: palette.size, 0] = (palette >> 16) & 0xFF
    colors[: palette.size, 1] = (palette >> 8) & 0xFF
    colors[: palette.size, 2] = palette & 0xFF

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += colors.tobytes()
    out += struct.pack(
        "<BHHHHB", 0x2C, 0, 0, w, h, 0x40 if interlace else 0
    )
    min_code = max(2, depth)
    out.append(min_code)
    lzw = _lzw_encode(idx.tobytes(), min_code)
    for lo in range(0, len(lzw), 255):
        chunk = lzw[lo : lo + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"
    return bytes(out)
