"""Baseline JPEG codec (ITU-T T.81 sequential DCT) in stdlib + numpy.

Shrinks the multimodal stub surface: real-world image corpora are mostly
JPEG, and baseline JPEG needs no external library — the entropy coder is
plain Huffman (Annex F), the transform an 8x8 DCT, both expressible with
ints and numpy. Scope:

- decode: baseline sequential (SOF0/1) AND progressive (SOF2) per T.81
  Annex G — spectral selection, successive approximation (DC and AC
  refinement scans, EOB runs, correction bits), non-interleaved scans
  over the component's own block grid — 8-bit, grayscale or YCbCr with
  any standard sampling (4:4:4 / 4:2:2 / 4:2:0 / ...), multiple DQT/DHT
  segments, restart intervals (DRI + RSTn), byte stuffing. Arithmetic
  coding, hierarchical/lossless frames and 12-bit precision raise
  NotImplementedError.
- encode: baseline 4:4:4 (or single-component grayscale) with the Annex
  K.1 quantization tables scaled by an IJG-style quality factor and the
  Annex K.3 typical Huffman tables; and progressive encode with an
  IJG-style default scan script (or a caller-provided one) using
  per-scan optimal length-limited Huffman tables built in a counting
  pass — enough to generate valid bitstreams for round-trip testing and
  synthetic corpora. A progressive encode carries exactly the same
  quantized coefficients as the baseline encode of the same image, so
  decoded pixels must match bit-for-bit — the main correctness oracle.

The Huffman bit loops are per-symbol Python (inherent to the format); the
numeric heavy lifting — DCT/IDCT over all blocks at once, quantization,
color transforms, upsampling — is vectorized numpy. In the pipeline this
runs inside the multimodal actor pool (`MediaFeatureExtract`), whose
batch sizing already assumes decode-bound payloads.

Reference for WHAT to compute: the reference engine has no media path
(multimodal ops come from the LLM-pipeline brief); the format itself is
the public T.81 spec.
"""

from __future__ import annotations

import struct

import numpy as np

# --------------------------------------------------------------- constants

ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

# Annex K.1 example quantization tables (natural / raster order)
QT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)
QT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# Annex K.3 typical Huffman tables: (BITS[1..16], HUFFVAL)
DC_LUM = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
          list(range(12)))
DC_CHROM = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
            list(range(12)))
AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
     0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
     0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
     0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
     0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
     0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
     0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
     0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
     0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
     0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
     0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
     0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
     0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
     0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
     0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA],
)
AC_CHROM = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
     0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
     0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
     0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
     0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
     0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
     0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
     0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
     0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
     0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
     0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
     0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
     0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
     0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
     0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA],
)


def _dct_matrix() -> np.ndarray:
    """Orthonormal 8x8 DCT-II matrix: forward F = C @ B @ C.T, inverse
    B = C.T @ F @ C."""
    n = np.arange(8)
    c = np.cos((2 * n[None, :] + 1) * n[:, None] * np.pi / 16)
    c *= np.sqrt(2.0 / 8.0)
    c[0] /= np.sqrt(2.0)
    return c


_DCT = _dct_matrix()


def _huff_codes(bits: list[int], vals: list[int]):
    """Annex C code assignment: symbol -> (code, length)."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _huff_decode_table(bits: list[int], vals: list[int]):
    """(length, code) -> symbol, for the bit-serial decoder."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return out


def _quality_scale(table: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling: 50 = the Annex tables, 100 = near-lossless."""
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((table * scale + 50) // 100, 1, 255)


# ----------------------------------------------------------------- encoder


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, length: int):
        if length == 0:
            return
        self.acc = (self.acc << length) | (value & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:  # byte stuffing
                self.buf.append(0x00)
        self.acc &= (1 << self.nbits) - 1

    def pad(self):
        if self.nbits:
            p = 8 - self.nbits
            self.write((1 << p) - 1, p)  # pad with 1s per spec

    def marker(self, m: int):
        """Emit a raw marker (not byte-stuffed) at a byte boundary."""
        self.pad()
        self.buf += bytes([0xFF, m])

    def flush(self) -> bytes:
        self.pad()
        return bytes(self.buf)


def _magnitude(v: int) -> tuple[int, int]:
    """(category/size, amplitude bits) for a DC diff or AC coefficient."""
    if v == 0:
        return 0, 0
    size = int(abs(v)).bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _encode_block(writer: _BitWriter, blk: np.ndarray,
                  dc_codes: dict, ac_codes: dict, pred: int) -> int:
    """Huffman-encode one zigzagged quantized block (64,); returns the new
    DC predictor."""
    diff = int(blk[0]) - pred
    pred = int(blk[0])
    size, bits = _magnitude(diff)
    code, length = dc_codes[size]
    writer.write(code, length)
    writer.write(bits, size)
    run = 0
    nz = np.flatnonzero(blk[1:])
    last = nz[-1] + 1 if nz.size else 0
    for i in range(1, last + 1):
        v = int(blk[i])
        if v == 0:
            run += 1
            continue
        while run >= 16:
            code, length = ac_codes[0xF0]  # ZRL
            writer.write(code, length)
            run -= 16
        size, bits = _magnitude(v)
        code, length = ac_codes[(run << 4) | size]
        writer.write(code, length)
        writer.write(bits, size)
        run = 0
    if last < 63:
        code, length = ac_codes[0x00]  # EOB
        writer.write(code, length)
    return pred


def _component_coeffs(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Level-shift, 8x8 DCT, quantize, zigzag. plane is (H8, W8) float64
    with H8, W8 multiples of 8. Returns (nblocks, 64) int — blocks in
    raster order."""
    h, w = plane.shape
    blocks = (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    ) - 128.0
    f = np.einsum("ij,njk,lk->nil", _DCT, blocks, _DCT)
    q = np.round(f / qt.reshape(8, 8)).astype(np.int64)
    return q.reshape(-1, 64)[:, ZIGZAG]


def _pad_to(plane: np.ndarray, ph: int, pw: int) -> np.ndarray:
    h, w = plane.shape
    if h < ph or w < pw:
        plane = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return plane


def _downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 block-average chroma downsample (odd dims edge-padded first)."""
    p = _pad_to(plane, -(-plane.shape[0] // 2) * 2, -(-plane.shape[1] // 2) * 2)
    return (
        p.reshape(p.shape[0] // 2, 2, p.shape[1] // 2, 2).mean(axis=(1, 3))
    )


def encode_jpeg(
    img: np.ndarray,
    quality: int = 85,
    subsampling: str = "444",
    restart_interval: int = 0,
    progressive: bool = False,
    scan_script: list | None = None,
) -> bytes:
    """JFIF encode: (H, W) grayscale or (H, W, 3) RGB uint8.
    subsampling "444" or "420" (ignored for grayscale); restart_interval
    emits RSTn markers every N MCUs (0 = none). Standard Annex-K
    quantization tables scaled by the IJG-style `quality` factor.

    progressive=True emits an SOF2 frame driven by `scan_script` (or an
    IJG-style default): a list of (component_indices, Ss, Se, Ah, Al)
    scans, validated to cover every coefficient and refine down to Al=0
    so the decoded pixels match the baseline encode exactly. Each scan
    gets optimal Huffman tables from a counting pass (the Annex K.3
    tables lack the EOB-run symbols progressive scans need)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("encode_jpeg expects uint8")
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError("expected (H, W) or (H, W, 3)")
    qt_l = _quality_scale(QT_LUM, quality)
    qt_c = _quality_scale(QT_CHROM, quality)

    if gray:
        planes = [img.astype(np.float64)]
        sampling = [(1, 1)]
    else:
        r = img[:, :, 0].astype(np.float64)
        g = img[:, :, 1].astype(np.float64)
        b = img[:, :, 2].astype(np.float64)
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        if subsampling == "444":
            planes = [y, cb, cr]
            sampling = [(1, 1), (1, 1), (1, 1)]
        elif subsampling == "420":
            planes = [y, _downsample2(cb), _downsample2(cr)]
            sampling = [(2, 2), (1, 1), (1, 1)]
        else:
            raise ValueError("subsampling must be '444' or '420'")

    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    # coeffs[k]: (blocks_y, blocks_x, 64) zigzagged quantized blocks
    coeffs = []
    for k, ((sh, sv), p) in enumerate(zip(sampling, planes)):
        by, bx = mcuy * sv, mcux * sh
        padded = _pad_to(p, by * 8, bx * 8)
        c = _component_coeffs(padded, qt_l if k == 0 else qt_c)
        coeffs.append(c.reshape(by, bx, 64))

    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(
        ">H5sBBBHHBB", 16, b"JFIF\x00", 1, 1, 0, 1, 1, 0, 0
    )  # APP0

    def dqt(tid: int, table: np.ndarray) -> bytes:
        return b"\xff\xdb" + struct.pack(">HB", 67, tid) + bytes(
            int(v) for v in table[ZIGZAG]
        )

    out += dqt(0, qt_l)
    if not gray:
        out += dqt(1, qt_c)

    ncomp = len(planes)
    sof = struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci, (sh, sv) in enumerate(sampling):
        sof += struct.pack(
            "BBB", ci + 1, (sh << 4) | sv, 0 if ci == 0 else 1
        )
    out += (b"\xff\xc2" if progressive else b"\xff\xc0") + sof

    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)

    if progressive:
        scans = (
            [tuple(s) for s in scan_script]
            if scan_script is not None
            else _default_scan_script(ncomp)
        )
        _check_scan_script(scans, ncomp)
        out += _encode_progressive_scans(
            coeffs, sampling, h, w, mcux, mcuy, restart_interval, scans
        )
        out += b"\xff\xd9"
        return bytes(out)

    out += _dht_segment(0, 0, *DC_LUM) + _dht_segment(1, 0, *AC_LUM)
    if not gray:
        out += _dht_segment(0, 1, *DC_CHROM) + _dht_segment(1, 1, *AC_CHROM)

    dc_l = _huff_codes(*DC_LUM)
    ac_l = _huff_codes(*AC_LUM)
    dc_c = _huff_codes(*DC_CHROM)
    ac_c = _huff_codes(*AC_CHROM)
    tables = [
        (dc_l, ac_l) if k == 0 else (dc_c, ac_c)
        for k in range(len(planes))
    ]

    writer = _BitWriter()
    preds = [0] * len(planes)
    nmcu = mcux * mcuy
    rst = 0
    for m in range(nmcu):
        if restart_interval and m and m % restart_interval == 0:
            writer.marker(0xD0 + rst)
            rst = (rst + 1) % 8
            preds = [0] * len(planes)
        my, mx = divmod(m, mcux)
        for k, (sh, sv) in enumerate(sampling):
            dc, ac = tables[k]
            for v in range(sv):
                for hh in range(sh):
                    preds[k] = _encode_block(
                        writer, coeffs[k][my * sv + v, mx * sh + hh],
                        dc, ac, preds[k],
                    )
    scan = writer.flush()

    sos = struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        sos += struct.pack("BB", ci + 1, 0 if ci == 0 else 0x11)
    sos += b"\x00\x3f\x00"
    out += b"\xff\xda" + sos + scan + b"\xff\xd9"  # SOS .. EOI
    return bytes(out)


def _dht_segment(cls: int, tid: int, bits: list[int], vals: list[int]) -> bytes:
    body = bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
    return b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body


# ------------------------------------------------- progressive encoder


def _default_scan_script(ncomp: int) -> list[tuple]:
    """IJG-style default progression: DC at Al=1, luma AC split into a
    low band then the rest, chroma AC whole-band, then refinement scans
    down to Al=0. Each entry is (component_indices, Ss, Se, Ah, Al)."""
    if ncomp == 1:
        return [
            ((0,), 0, 0, 0, 1),
            ((0,), 1, 5, 0, 2),
            ((0,), 6, 63, 0, 2),
            ((0,), 1, 63, 2, 1),
            ((0,), 0, 0, 1, 0),
            ((0,), 1, 63, 1, 0),
        ]
    return [
        ((0, 1, 2), 0, 0, 0, 1),
        ((0,), 1, 5, 0, 2),
        ((2,), 1, 63, 0, 1),
        ((1,), 1, 63, 0, 1),
        ((0,), 6, 63, 0, 2),
        ((0,), 1, 63, 2, 1),
        ((0, 1, 2), 0, 0, 1, 0),
        ((2,), 1, 63, 1, 0),
        ((1,), 1, 63, 1, 0),
        ((0,), 1, 63, 1, 0),
    ]


def _check_scan_script(scans: list[tuple], ncomp: int) -> None:
    """Validate T.81 G.1.1.1 scan-script rules plus the encoder's own
    exactness contract: every coefficient of every component is sent by
    exactly one first scan and refined contiguously down to Al=0 (so the
    decode matches the baseline encode bit-for-bit), DC precedes AC per
    component, AC scans are single-component, refinements lower Al by 1."""
    dc_al: list[int | None] = [None] * ncomp
    ac_al = [[None] * 64 for _ in range(ncomp)]
    for comps_in, ss, se, ah, al in scans:
        if not comps_in or len(set(comps_in)) != len(comps_in):
            raise ValueError("bad component list in scan script")
        if any(not 0 <= k < ncomp for k in comps_in):
            raise ValueError("scan component out of range")
        if not (0 <= ss <= se <= 63):
            raise ValueError("bad spectral band")
        if ss == 0 and se != 0:
            raise ValueError("progressive scans cannot mix DC and AC")
        if ss > 0 and len(comps_in) != 1:
            raise ValueError("AC scans must be single-component")
        if not (0 <= al <= 13):
            raise ValueError("bad point transform")
        if ah and ah != al + 1:
            raise ValueError("refinement must lower Al by exactly 1")
        for k in comps_in:
            if ss > 0 and dc_al[k] is None:
                raise ValueError("AC scan before the component's DC scan")
            for c in ([0] if ss == 0 else range(ss, se + 1)):
                cur = dc_al[k] if ss == 0 else ac_al[k][c]
                if ah == 0 and cur is not None:
                    raise ValueError("coefficient band sent twice")
                if ah != 0 and cur != ah:
                    raise ValueError("refinement without matching first scan")
                if ss == 0:
                    dc_al[k] = al
                else:
                    ac_al[k][c] = al
    for k in range(ncomp):
        if dc_al[k] != 0:
            raise ValueError(f"component {k}: DC not refined to Al=0")
        for c in range(1, 64):
            if ac_al[k][c] != 0:
                raise ValueError(f"component {k}: AC {c} not refined to Al=0")


class _CountingScanWriter:
    """First pass of the two-pass progressive encode: records Huffman
    symbol frequencies per (class, table id); bit payloads and restart
    markers are discarded. Control flow (EOB runs, forced flushes) only
    depends on coefficient values, so both passes take identical paths."""

    def __init__(self):
        self.freq: dict[tuple[int, int], dict[int, int]] = {}

    def symbol(self, cls: int, tid: int, sym: int):
        t = self.freq.setdefault((cls, tid), {})
        t[sym] = t.get(sym, 0) + 1

    def write(self, value: int, length: int):
        pass

    def marker(self, m: int):
        pass


class _EmittingScanWriter:
    """Second pass: emits the entropy-coded scan using the optimal code
    tables built from the counting pass."""

    def __init__(self, codes: dict[tuple[int, int], dict]):
        self.codes = codes
        self.w = _BitWriter()

    def symbol(self, cls: int, tid: int, sym: int):
        code, length = self.codes[(cls, tid)][sym]
        self.w.write(code, length)

    def write(self, value: int, length: int):
        self.w.write(value, length)

    def marker(self, m: int):
        self.w.marker(m)

    def flush(self) -> bytes:
        return self.w.flush()


def _emit_eobrun(out, ac_tid: int, eob: list[int], bitbuf: list[int]):
    """Flush a pending EOB run and the correction bits buffered behind it
    (T.81 G.1.2.2: the run length's low bits follow the (nbits<<4) symbol;
    buffered refinement bits follow the run)."""
    if eob[0] > 0:
        nbits = eob[0].bit_length() - 1
        out.symbol(1, ac_tid, nbits << 4)
        if nbits:
            out.write(eob[0] & ((1 << nbits) - 1), nbits)
        eob[0] = 0
        for b in bitbuf:
            out.write(b, 1)
        bitbuf.clear()


def _encode_first_ac(out, blk, ac_tid: int, ss: int, se: int, al: int,
                     eob: list[int], bitbuf: list[int]):
    """Progressive first-pass AC band encode (G.1.2.2): coefficients
    point-transformed by >> Al (magnitude truncation toward zero), EOB
    runs accumulated across blocks up to the 0x7FFF cap."""
    r = 0
    for k in range(ss, se + 1):
        v = int(blk[k])
        t = abs(v) >> al
        if t == 0:
            r += 1
            continue
        _emit_eobrun(out, ac_tid, eob, bitbuf)
        while r > 15:
            out.symbol(1, ac_tid, 0xF0)
            r -= 16
        size, bits = _magnitude(-t if v < 0 else t)
        out.symbol(1, ac_tid, (r << 4) | size)
        out.write(bits, size)
        r = 0
    if r > 0:
        eob[0] += 1
        if eob[0] == 0x7FFF:
            _emit_eobrun(out, ac_tid, eob, bitbuf)


def _encode_refine_ac(out, blk, ac_tid: int, ss: int, se: int, al: int,
                      eob: list[int], pending: list[int]):
    """Progressive AC refinement encode (G.1.2.3). Two correction-bit
    buffers, as in the IJG encoder: `pending` holds bits from completed
    blocks folded into the running EOB count (emitted right after the
    EOB-run symbol), while the current block's bits are emitted after
    its own next symbol (ZRL or newly-nonzero coefficient) — the
    stream-order contract the refinement decoder depends on."""
    absvals = [abs(int(blk[k])) >> al for k in range(ss, se + 1)]
    eobpos = ss - 1  # position of the last newly-nonzero coefficient
    for idx, t in enumerate(absvals):
        if t == 1:
            eobpos = ss + idx
    r = 0
    br: list[int] = []  # this block's correction bits since last symbol
    for k in range(ss, se + 1):
        t = absvals[k - ss]
        if t == 0:
            r += 1
            continue
        # ZRLs only in front of a newly-nonzero coefficient; runs past
        # the last one fold into the EOB run instead
        while r > 15 and k <= eobpos:
            _emit_eobrun(out, ac_tid, eob, pending)
            out.symbol(1, ac_tid, 0xF0)
            r -= 16
            for b in br:
                out.write(b, 1)
            br.clear()
        if t > 1:
            # history coefficient: next magnitude bit, zero run unaffected
            br.append(t & 1)
            continue
        _emit_eobrun(out, ac_tid, eob, pending)
        out.symbol(1, ac_tid, (r << 4) | 1)
        out.write(1 if int(blk[k]) > 0 else 0, 1)
        for b in br:
            out.write(b, 1)
        br.clear()
        r = 0
    if r > 0 or br:
        eob[0] += 1
        pending.extend(br)
        # force out the run before the counter or the bit buffer overflows
        if eob[0] == 0x7FFF or len(pending) > 900:
            _emit_eobrun(out, ac_tid, eob, pending)


def _run_progressive_scan(out, coeffs, sampling, mcux: int, mcuy: int,
                          fh: int, fw: int, comps_in, ss: int, se: int,
                          ah: int, al: int, restart_interval: int, tids):
    """Drive one scan over the coefficient arrays, emitting through
    `out` (counting or emitting writer). Interleaved scans (ns > 1) walk
    MCUs over the padded grid; single-component scans walk the
    component's own block grid in raster order (T.81 A.2.2)."""
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    if len(comps_in) == 1:
        k0 = comps_in[0]
        sh, sv = sampling[k0]
        cw = -(-fw * sh // hmax)
        ch = -(-fh * sv // vmax)
        bw = -(-cw // 8)
        nunits = bw * -(-ch // 8)

        def unit(u):
            uy, ux = divmod(u, bw)
            return ((k0, uy, ux),)
    else:
        nunits = mcux * mcuy

        def unit(u):
            my, mx = divmod(u, mcux)
            res = []
            for k in comps_in:
                sh, sv = sampling[k]
                for v in range(sv):
                    for hh in range(sh):
                        res.append((k, my * sv + v, mx * sh + hh))
            return res

    preds = {k: 0 for k in comps_in}
    eob = [0]
    bitbuf: list[int] = []
    rst = 0
    ac_tid0 = tids[comps_in[0]][1]
    for u in range(nunits):
        if restart_interval and u and u % restart_interval == 0:
            _emit_eobrun(out, ac_tid0, eob, bitbuf)
            out.marker(0xD0 + rst)
            rst = (rst + 1) % 8
            preds = {k: 0 for k in comps_in}
        for (k, byy, bxx) in unit(u):
            blk = coeffs[k][byy, bxx]
            dc_tid, ac_tid = tids[k]
            if ah > 0:
                if ss == 0:
                    out.write((int(blk[0]) >> al) & 1, 1)
                else:
                    _encode_refine_ac(out, blk, ac_tid, ss, se, al,
                                      eob, bitbuf)
            else:
                if ss == 0:
                    v = int(blk[0]) >> al
                    size, bits = _magnitude(v - preds[k])
                    preds[k] = v
                    out.symbol(0, dc_tid, size)
                    out.write(bits, size)
                if se > 0:
                    _encode_first_ac(out, blk, ac_tid, max(ss, 1), se, al,
                                     eob, bitbuf)
    _emit_eobrun(out, ac_tid0, eob, bitbuf)


def _encode_progressive_scans(coeffs, sampling, fh: int, fw: int,
                              mcux: int, mcuy: int, restart_interval: int,
                              scans) -> bytes:
    """Emit DHT + SOS + entropy data for each scan of the script. Each
    scan is run twice: a counting pass to build optimal Huffman tables
    for exactly its symbol population, then the emitting pass."""
    out = bytearray()
    for comps_in, ss, se, ah, al in scans:
        # table slots: luma -> 0, chroma -> 1 (DC scans may interleave
        # both); AC scans are single-component so slot 0 would do, but
        # keeping the split mirrors the baseline layout
        tids = {k: ((0 if k == 0 else 1), (0 if k == 0 else 1))
                for k in comps_in}
        counter = _CountingScanWriter()
        _run_progressive_scan(counter, coeffs, sampling, mcux, mcuy,
                              fh, fw, comps_in, ss, se, ah, al,
                              restart_interval, tids)
        codes = {}
        for key in sorted(counter.freq):
            bits, vals = _optimal_huffman(counter.freq[key])
            out += _dht_segment(key[0], key[1], bits, vals)
            codes[key] = _huff_codes(bits, vals)
        emitter = _EmittingScanWriter(codes)
        _run_progressive_scan(emitter, coeffs, sampling, mcux, mcuy,
                              fh, fw, comps_in, ss, se, ah, al,
                              restart_interval, tids)
        sos = struct.pack(">HB", 6 + 2 * len(comps_in), len(comps_in))
        for k in comps_in:
            dc_tid, ac_tid = tids[k]
            sos += struct.pack("BB", k + 1, (dc_tid << 4) | ac_tid)
        sos += bytes([ss, se, (ah << 4) | al])
        out += b"\xff\xda" + sos + emitter.flush()
    return bytes(out)


def _optimal_huffman(freq_map: dict[int, int]):
    """Optimal length-limited (<=16 bit) Huffman table for one scan's
    symbol frequencies — the classic JPEG encoder algorithm (T.81 Annex
    K.2 flowcharts, as in the IJG encoder): pairwise merging with a
    reserved 257th symbol so no real symbol gets the all-ones code, then
    the BITS-adjustment loop to pull lengths down to 16. Returns
    (bits[16], huffval) in DHT order."""
    freq = [0] * 257
    for sym, f in freq_map.items():
        freq[sym] = f
    freq[256] = 1  # reserved: claims the all-ones code point
    codesize = [0] * 257
    others = [-1] * 257
    while True:
        c1 = -1
        v = None
        for s in range(257):
            if freq[s] and (v is None or freq[s] <= v):
                v = freq[s]
                c1 = s
        c2 = -1
        v = None
        for s in range(257):
            if freq[s] and s != c1 and (v is None or freq[s] <= v):
                v = freq[s]
                c2 = s
        if c2 < 0:
            break
        freq[c1] += freq[c2]
        freq[c2] = 0
        codesize[c1] += 1
        while others[c1] >= 0:
            c1 = others[c1]
            codesize[c1] += 1
        others[c1] = c2
        codesize[c2] += 1
        while others[c2] >= 0:
            c2 = others[c2]
            codesize[c2] += 1
    bits = [0] * 64
    for s in range(257):
        if codesize[s]:
            if codesize[s] >= 64:
                raise ValueError("Huffman code length out of range")
            bits[codesize[s]] += 1
    for i in range(63, 16, -1):
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    i = 16
    while bits[i] == 0:
        i -= 1
    bits[i] -= 1  # drop the reserved symbol's slot
    vals = [s for _, s in sorted((codesize[s], s)
                                 for s in range(256) if codesize[s])]
    return bits[1:17], vals


# ----------------------------------------------------------------- decoder


class _BitReader:
    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= self.bits.size:
            raise ValueError("truncated JPEG entropy stream")
        b = int(self.bits[self.pos])
        self.pos += 1
        return b

    def read_bits(self, n: int) -> int:
        if n == 0:
            return 0
        if self.pos + n > self.bits.size:
            raise ValueError("truncated JPEG entropy stream")
        chunk = self.bits[self.pos : self.pos + n]
        self.pos += n
        v = 0
        for b in chunk:
            v = (v << 1) | int(b)
        return v

    def read_huff(self, table: dict) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code")


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def _destuff(scan: bytes):
    """Split the entropy-coded scan at RSTn markers and remove byte
    stuffing. Returns (intervals, bytes consumed including any trailing
    marker that ends the scan)."""
    intervals = []
    cur = bytearray()
    i = 0
    n = len(scan)
    while i < n:
        b = scan[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        if i + 1 >= n:
            break
        m = scan[i + 1]
        if m == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:  # RSTn
            intervals.append(bytes(cur))
            cur = bytearray()
            i += 2
        elif m == 0xFF:  # fill byte before a marker (T.81 B.1.1.2)
            i += 1
        else:  # EOI or next marker: scan ends
            break
    intervals.append(bytes(cur))
    return intervals, i


# corrupt-input allocation guard: a bit-flipped dimension or sampling
# byte must produce ValueError, not a multi-GB coefficient store
MAX_PIXELS = 1 << 28


def decode_jpeg(buf: bytes) -> np.ndarray:
    """Decode a baseline-sequential (SOF0/1) or progressive (SOF2) JPEG.
    Returns (H, W) uint8 for single-component images, else (H, W, 3)
    uint8 RGB (JFIF YCbCr). Arithmetic coding, hierarchical/lossless
    frames and 12-bit precision raise NotImplementedError; any malformed
    stream raises ValueError (never IndexError/KeyError/struct.error —
    corrupt payloads are routine in a large media corpus and must not
    kill the decoding actor with an unexpected exception type)."""
    try:
        return _decode_jpeg(buf)
    except (ValueError, NotImplementedError):
        raise
    except (struct.error, IndexError, KeyError, OverflowError,
            ZeroDivisionError, AttributeError) as e:
        raise ValueError(
            f"corrupt JPEG stream ({type(e).__name__})"
        ) from e


def _decode_jpeg(buf: bytes) -> np.ndarray:
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict] = {}
    frame = None
    store = None
    nscans = 0
    restart = 0
    i = 2
    n = len(buf)
    while i < n:
        if buf[i] != 0xFF:
            raise ValueError(f"expected marker at {i}")
        while buf[i + 1] == 0xFF:  # fill bytes (T.81 B.1.1.2)
            i += 1
        marker = buf[i + 1]
        i += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # standalone
        if i + 2 > n:
            raise ValueError("truncated JPEG segment header")
        (seglen,) = struct.unpack_from(">H", buf, i)
        if i + seglen > n:
            raise ValueError("truncated JPEG segment")
        seg = buf[i + 2 : i + seglen]
        i += seglen
        if marker == 0xDB:  # DQT
            j = 0
            while j < len(seg):
                pq, tq = seg[j] >> 4, seg[j] & 0x0F
                j += 1
                if pq == 0:
                    t = np.frombuffer(seg[j : j + 64], dtype=np.uint8)
                    j += 64
                else:
                    t = np.frombuffer(
                        seg[j : j + 128], dtype=">u2"
                    )
                    j += 128
                qts[tq] = t.astype(np.int64)[UNZIGZAG]
        elif marker == 0xC4:  # DHT
            j = 0
            while j < len(seg):
                cls, tid = seg[j] >> 4, seg[j] & 0x0F
                bits = list(seg[j + 1 : j + 17])
                cnt = sum(bits)
                if len(bits) < 16 or j + 17 + cnt > len(seg):
                    raise ValueError("truncated DHT segment")
                vals = list(seg[j + 17 : j + 17 + cnt])
                huff[(cls, tid)] = _huff_decode_table(bits, vals)
                j += 17 + cnt
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1 sequential, SOF2 prog
            prec, fh, fw, ncomp = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise NotImplementedError("only 8-bit precision")
            if frame is not None:
                raise ValueError("multiple SOF markers")
            comps = []
            for c in range(ncomp):
                cid, hv, tq = struct.unpack_from("BBB", seg, 6 + 3 * c)
                comps.append(
                    {"id": cid, "h": hv >> 4, "v": hv & 0x0F, "tq": tq}
                )
            if not comps or fh < 1 or fw < 1:
                raise ValueError("invalid JPEG frame header")
            if any(not (1 <= c["h"] <= 4 and 1 <= c["v"] <= 4)
                   for c in comps):
                raise ValueError("invalid JPEG sampling factors")
            if fh * fw > MAX_PIXELS:
                raise ValueError("JPEG dimensions exceed decoder cap")
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            frame = {
                "h": fh, "w": fw, "comps": comps,
                "progressive": marker == 0xC2,
                "hmax": hmax, "vmax": vmax,
                "mcux": -(-fw // (8 * hmax)),
                "mcuy": -(-fh // (8 * vmax)),
            }
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"unsupported JPEG frame type SOF{marker - 0xC0} "
                "(only sequential and progressive DCT are implemented)"
            )
        elif marker == 0xDD:  # DRI
            (restart,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("SOS before SOF")
            ns = seg[0]
            scomp = []
            for c in range(ns):
                cs, tables = seg[1 + 2 * c], seg[2 + 2 * c]
                scomp.append((cs, tables >> 4, tables & 0x0F))
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ah, al = seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 0x0F
            if store is None:
                store = [
                    np.zeros(
                        (frame["mcuy"] * c["v"], frame["mcux"] * c["h"], 64),
                        dtype=np.int64,
                    )
                    for c in frame["comps"]
                ]
            intervals, used = _destuff(buf[i:])
            i += used
            _decode_scan_into(frame, store, scomp, huff, intervals,
                              restart, ss, se, ah, al)
            nscans += 1
        # else: APPn/COM/etc — skipped
    if frame is None or nscans == 0:
        raise ValueError("no SOS marker found")
    return _reconstruct(frame, store, qts)


def _first_block(reader, blk, dc_table, ac_table, pred, ss, se, al):
    """Sequential / progressive-first decode of one block's [Ss, Se] band
    (T.81 F.2.2 / G.2): DC diff when Ss==0, run-length AC symbols, with
    decoded values shifted left by the point transform Al. Returns
    (new DC predictor, remaining EOB run)."""
    eobrun = 0
    if ss == 0:
        if dc_table is None:
            raise ValueError("missing DC Huffman table")
        s = reader.read_huff(dc_table)
        if s > 15:
            raise ValueError("invalid DC magnitude category")
        pred += _extend(reader.read_bits(s), s)
        blk[0] = pred << al
        k = 1
    else:
        k = ss
    if k <= se and ac_table is None:
        raise ValueError("missing AC Huffman table")
    while k <= se:
        rs = reader.read_huff(ac_table)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:  # ZRL
                k += 16
                continue
            # EOB / EOBn: this block is done, r extra bits extend the run
            eobrun = (1 << r) - 1
            if r:
                eobrun += reader.read_bits(r)
            break
        k += r
        if k > se:
            raise ValueError("AC index overflow")
        blk[k] = _extend(reader.read_bits(s), s) << al
        k += 1
    return pred, eobrun


def _refine_ac_block(reader, blk, ac_table, ss, se, al, eobrun):
    """Progressive AC refinement of one block (T.81 G.1.2.3): newly
    nonzero coefficients arrive as ±1<<Al; coefficients already nonzero
    consume one correction bit each as the band is traversed — including
    inside ZRL skips and EOB runs. Returns the remaining EOB run."""
    p1 = 1 << al
    m1 = -p1
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = reader.read_huff(ac_table)
            r, s = rs >> 4, rs & 0x0F
            val = 0
            if s == 0:
                if r < 15:
                    eobrun = 1 << r
                    if r:
                        eobrun += reader.read_bits(r)
                    break
                # r == 15: ZRL — skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("invalid refinement magnitude")
                val = p1 if reader.read_bit() else m1
            while k <= se:
                if blk[k] != 0:
                    if reader.read_bit() and (blk[k] & p1) == 0:
                        blk[k] += p1 if blk[k] >= 0 else m1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val and k <= se:
                blk[k] = val
            k += 1
    if eobrun > 0:
        # inside an EOB run: only correction bits for nonzero history
        while k <= se:
            if blk[k] != 0:
                if reader.read_bit() and (blk[k] & p1) == 0:
                    blk[k] += p1 if blk[k] >= 0 else m1
            k += 1
        eobrun -= 1
    return eobrun


def _scan_units(frame, order):
    """Data-unit sequence for a scan: interleaved scans (ns > 1) yield
    one unit per MCU covering each component's h x v blocks; single-
    component scans yield one unit per block, raster order over the
    component's own non-MCU-padded block grid (T.81 A.2)."""
    comps = frame["comps"]
    if len(order) == 1:
        k0 = order[0]
        c = comps[k0]
        cw = -(-frame["w"] * c["h"] // frame["hmax"])
        ch = -(-frame["h"] * c["v"] // frame["vmax"])
        bw = -(-cw // 8)
        nunits = bw * -(-ch // 8)

        def unit(u):
            uy, ux = divmod(u, bw)
            return ((k0, uy, ux),)

        return nunits, unit

    mcux = frame["mcux"]

    def unit(u):
        my, mx = divmod(u, mcux)
        res = []
        for k in order:
            c = comps[k]
            for v in range(c["v"]):
                for hh in range(c["h"]):
                    res.append((k, my * c["v"] + v, mx * c["h"] + hh))
        return res

    return frame["mcux"] * frame["mcuy"], unit


def _decode_scan_into(frame, store, scomp, huff, intervals, restart,
                      ss, se, ah, al):
    """Decode one scan's entropy data into the persistent per-component
    zigzag coefficient store."""
    comps = frame["comps"]
    by_id = {c["id"]: k for k, c in enumerate(comps)}
    order = [by_id[cs] for cs, _, _ in scomp]
    dc_t = {by_id[cs]: huff.get((0, td)) for cs, td, _ in scomp}
    ac_t = {by_id[cs]: huff.get((1, ta)) for cs, _, ta in scomp}

    if frame["progressive"]:
        if ss == 0 and se != 0:
            raise ValueError("progressive scan cannot mix DC and AC")
        if ss > 0 and len(order) != 1:
            raise ValueError("progressive AC scans must be single-component")
        if ah and ah != al + 1:
            raise ValueError("refinement must lower Al by exactly 1")
    elif ss != 0 or se != 63 or ah != 0 or al != 0:
        raise ValueError("invalid scan header for a sequential frame")
    if ah > 0 and ss > 0 and any(ac_t[k] is None for k in order):
        raise ValueError("missing AC Huffman table")

    nunits, unit = _scan_units(frame, order)
    per_interval = restart if restart else nunits
    u = 0
    for interval in intervals:
        if u >= nunits:
            break
        reader = _BitReader(interval)
        preds = [0] * len(comps)
        eobrun = 0
        end = min(u + per_interval, nunits)
        while u < end:
            for (k, byy, bxx) in unit(u):
                blk = store[k][byy, bxx]
                if ah > 0:
                    if ss == 0:
                        blk[0] |= reader.read_bit() << al
                    else:
                        eobrun = _refine_ac_block(
                            reader, blk, ac_t[k], ss, se, al, eobrun
                        )
                elif ss > 0 and eobrun > 0:
                    eobrun -= 1
                else:
                    preds[k], eobrun = _first_block(
                        reader, blk, dc_t.get(k), ac_t.get(k),
                        preds[k], ss, se, al,
                    )
            u += 1
    if u < nunits:
        raise ValueError("truncated JPEG scan (missing MCUs)")


def _reconstruct(frame, store, qts):
    """Dequantize, IDCT and color-convert the accumulated coefficients."""
    fh, fw = frame["h"], frame["w"]
    comps = frame["comps"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    planes = []
    for k, c in enumerate(comps):
        qt = qts[c["tq"]].astype(np.float64)
        coeff = store[k].reshape(-1, 64)[:, UNZIGZAG].astype(np.float64)
        coeff *= qt
        blocks = coeff.reshape(-1, 8, 8)
        pix = np.einsum("ji,njk,kl->nil", _DCT, blocks, _DCT) + 128.0
        by, bx = store[k].shape[:2]
        plane = (
            pix.reshape(by, bx, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(by * 8, bx * 8)
        )
        # component dims, then nearest upsample to full MCU-padded grid
        ch = -(-fh * c["v"] // vmax)
        cw = -(-fw * c["h"] // hmax)
        plane = plane[:ch, :cw]
        if c["v"] != vmax or c["h"] != hmax:
            plane = np.repeat(
                np.repeat(plane, vmax // c["v"], axis=0),
                hmax // c["h"], axis=1,
            )
        planes.append(plane[:fh, :fw])

    if len(planes) == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
