"""Deployment bundle: integer weight codes plus per-precision banks.

The device stores each quantized layer once, as codes at the highest
bit-width b1 (one byte per code for b1 <= 8, two for wider), and derives
every lower precision at load time by bit truncation and mean alignment.
Unquantized first/last layers and the BN/clipping banks ride along in
full precision so that evaluation from the bundle reproduces in-memory
evaluation exactly.

Layout (version 1, little-endian, CRC32 trailer over everything before it):
  magic "AQDB" | version u32 | arch JSON (length-prefixed UTF-8)
  per learnable layer: name | code bit-width u8 (0 = full precision)
                       array header | packed codes + mean_b1 f64, or raw f64 weights
  bank: every entry of the network's PrecisionBank, trained or zero-shot:
        n_bits u8, then every bit u8 (descending), then the entries in that
        order, each per BN layer gamma/beta/mean/var f64 arrays, then per
        quantized layer alpha f64 (a checkpoint writes each bit directly
        before its entry; the two share only the entry layout, see
        serialize.write_bank_entry)
The loader checks each field against the architecture the file declares:
layer names in order, code bit-width 0 on exactly the first and last
layers and one b1 in [2, 16] on the rest, every shape, codes below 2^b1,
bank bit-widths unique and within [2, b1], running variances non-negative,
and (in the reader's done()) every float finite; every check raises through
ByteReader.fail, so each error names the file. Its array headers, arch and
bank use the serialize codecs checkpoints share: ByteWriter/ByteReader.dims,
ByteReader.parsed, check_bank_bits and the bank-entry codec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import parse_json
from .network import ArchSpec, BitWidthSet, PrecisionBank, QuantNet
from .quantizers import MAX_BITS, QuantizedWeightView
from .serialize import (ByteWriter, atomic_write_bytes, check_bank_bits, open_reader,
                        read_bank_entry, write_bank_entry)

MAGIC = b"AQDB"
VERSION = 1


def _code_bytes(b1: int) -> int:
    return (b1 + 7) // 8


def _pack_codes(codes: np.ndarray, b1: int) -> bytes:
    dtype = "<u1" if _code_bytes(b1) == 1 else "<u2"
    return np.ascontiguousarray(codes, dtype=dtype).tobytes()


def _unpack_codes(raw: bytes, b1: int, shape: tuple) -> np.ndarray:
    dtype = "<u1" if _code_bytes(b1) == 1 else "<u2"
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.uint16)


@dataclass
class SizeReport:
    code_payload: int       # packed integer codes
    fp_weight_payload: int  # unquantized first/last layer weights (f64)
    bank_payload: int       # BN arrays and clipping values
    framing: int            # magic, headers, names, dims, CRC

    @property
    def total(self) -> int:
        return self.code_payload + self.fp_weight_payload + self.bank_payload + self.framing


class DeploymentBundle:
    """Parsed bundle contents, ready to rebuild an eval-only network.

    A bundle does not record which of its entries were trained, so its bank
    takes every stored bit-width as its set; b1 is the same either way.
    """

    def __init__(self, bank: PrecisionBank, views: dict[str, QuantizedWeightView],
                 fp_weights: dict[str, np.ndarray]):
        self.bank = bank
        self.views = views
        self.fp_weights = fp_weights

    def build_network(self) -> QuantNet:
        """Eval-only network over the bundle's bank (eval never writes to it)."""
        return QuantNet.from_codes(self.bank, self.views, self.fp_weights)


def export_bundle(path: str, net: QuantNet) -> SizeReport:
    """Write the network's codes and every bank entry; returns the byte accounting."""
    arch = net.arch
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.text(json.dumps(arch.to_json(), sort_keys=True))
    code_payload = fp_payload = 0
    for name in arch.learnable_names:
        w.text(name)
        shape = arch.weight_shape(name)
        if name in arch.block_index:
            view = net.codes(name)
            w.u8(view.b1)
            w.dims(shape)
            packed = _pack_codes(view.codes, view.b1)
            w.blob(packed)
            w.f64(view.mean_b1)
            code_payload += len(packed)
        else:
            wd = net.weights[name].data
            w.u8(0)
            w.f64_array(wd)
            w.f64(float(np.mean(wd)))
            fp_payload += wd.size * 8
    bank_start = w.size
    bits = sorted(net.bank.entries, reverse=True)
    w.u8(len(bits))
    for b in bits:
        w.u8(b)
    for b in bits:
        write_bank_entry(w, net.bank.entry(b), arch)
    bank_payload = w.size - bank_start
    blob = w.finish()
    atomic_write_bytes(path, blob)
    framing = len(blob) - code_payload - fp_payload - bank_payload
    return SizeReport(code_payload, fp_payload, bank_payload, framing)


def load_bundle(path: str) -> DeploymentBundle:
    r = open_reader(path, MAGIC, (VERSION,), "bundle")
    arch = r.parsed(lambda text: ArchSpec.from_json(parse_json(text)), "architecture")
    views: dict[str, QuantizedWeightView] = {}
    fp_weights: dict[str, np.ndarray] = {}
    b1 = None  # the code bit-width every quantized layer shares
    for name in arch.learnable_names:
        stored = r.text()
        if stored != name:
            raise r.fail(f"bundle layer {stored!r} where the architecture has {name!r}")
        bw = r.u8()
        shape = arch.weight_shape(name)
        if name not in arch.block_index:
            if bw != 0:
                raise r.fail(f"bundle layer {name!r} is full precision but has code bit-width {bw}")
            fp_weights[name] = r.f64_array(shape, f"bundle layer {name!r}")
            r.f64(f"bundle layer {name!r} mean")  # informational
            continue
        if b1 is None:
            b1 = bw
        if bw != b1 or not 2 <= bw <= MAX_BITS:
            raise r.fail(f"bundle layer {name!r} has code bit-width {bw}; quantized "
                         f"layers share one in [2, {MAX_BITS}]")
        r.dims(shape, f"bundle layer {name!r} code array")
        raw, size = r.blob(), math.prod(shape) * _code_bytes(b1)
        if len(raw) != size:
            raise r.fail(f"bundle layer {name!r} holds {len(raw)} code bytes, expected {size}")
        codes = _unpack_codes(raw, b1, shape)
        if codes.max() >= 1 << b1:
            raise r.fail(f"bundle layer {name!r} has code {codes.max()}, not below 2^{b1}")
        views[name] = QuantizedWeightView(codes=codes, b1=b1,
                                          mean_b1=r.f64(f"bundle layer {name!r} code mean"))
    stored = [r.u8() for _ in range(r.u8())]
    check_bank_bits(r, stored, b1 or MAX_BITS)
    bits = BitWidthSet(stored)
    bank = PrecisionBank(bits, arch)
    for b in bits:
        read_bank_entry(r, bank.entry(b), arch, b)
    r.done()
    return DeploymentBundle(bank, views, fp_weights)
