"""Little-endian length-prefixed binary framing with a CRC32 trailer.

Shared by the deployment bundle and checkpoint formats, as are the array
header codec (ByteWriter/ByteReader.dims: a u8 rank, then a u32 per dim) and
the layout of one precision-bank entry. Writers accumulate bytes and finish
with a CRC over everything written; readers verify the CRC before yielding
any field. ByteReader.fail builds every reader error: "<path>: <message>".
"""

from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .numerics import FlexquantError

MAX_ARRAY_DIMS = 32  # numpy's limit before 2.0; the formats store 4 at most


class CorruptFileError(FlexquantError, ValueError):
    """Checksum mismatch or malformed framing."""


class ByteWriter:
    def __init__(self):
        self._chunks: list[bytes] = []
        self.size = 0

    def _push(self, raw: bytes) -> None:
        self._chunks.append(raw)
        self.size += len(raw)

    def u8(self, v: int) -> None:
        self._push(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self._push(struct.pack("<I", v))

    def f64(self, v: float) -> None:
        self._push(struct.pack("<d", v))

    def raw(self, b: bytes) -> None:
        self._push(b)

    def blob(self, b: bytes) -> None:
        self.u32(len(b))
        self._push(b)

    def text(self, s: str) -> None:
        self.blob(s.encode("utf-8"))

    def dims(self, shape: tuple) -> None:
        """The array header: a u8 rank, then a u32 per dim."""
        self.u8(len(shape))
        for d in shape:
            self.u32(d)

    def f64_array(self, arr: np.ndarray) -> None:
        # asarray keeps 0-d arrays 0-d; ascontiguousarray would promote them
        arr = np.asarray(arr, dtype="<f8", order="C")
        self.dims(arr.shape)
        self._push(arr.tobytes())

    def finish(self) -> bytes:
        body = b"".join(self._chunks)
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class ByteReader:
    def __init__(self, buf: bytes, path: str):
        self.path = path
        if len(buf) < 4:
            raise self.fail("file shorter than its checksum")
        body, trailer = buf[:-4], buf[-4:]
        expect = struct.unpack("<I", trailer)[0]
        got = zlib.crc32(body) & 0xFFFFFFFF
        if got != expect:
            raise self.fail(f"CRC mismatch: computed {got:#010x}, stored {expect:#010x}")
        self.buf = body
        self.pos = 0
        self._floats: list[tuple[str, bytes]] = []  # (name, raw bytes) of each float read

    def fail(self, msg: str) -> CorruptFileError:
        """The error for msg, naming the file; every check on a file raises one."""
        return CorruptFileError(f"{self.path}: {msg}")

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise self.fail(f"truncated at byte {self.pos} (need {n} more)")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def f64(self, what: str) -> float:
        """The next float; done() checks it finite, as every float read, and
        names it by what if it is not."""
        raw = self._take(8)
        self._floats.append((what, raw))
        return struct.unpack("<d", raw)[0]

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self, what: str = "text") -> str:
        start = self.pos
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.fail(f"{what} at byte {start} is not UTF-8: {e}") from None

    def parsed(self, parse, what: str):
        """parse(next text); CorruptFileError naming the file and what if the
        text is not UTF-8 or parse raises a library error or a ValueError."""
        text = self.text(what)
        try:
            return parse(text)
        except CorruptFileError:
            raise  # the reader's own, from a parse that reads on; it names the file
        except (FlexquantError, ValueError) as e:
            raise self.fail(f"{what}: {e}") from None

    def dims(self, shape: tuple, what: str) -> None:
        """The next array header, which must give shape; what names the array."""
        ndim = self.u8()
        if ndim > MAX_ARRAY_DIMS:
            raise self.fail(f"array at byte {self.pos - 1} has {ndim} dims, "
                            f"more than {MAX_ARRAY_DIMS}")
        stored = tuple([self.u32() for _ in range(ndim)])  # a list builds faster here
        if stored != shape:
            raise self.fail(f"{what} has shape {stored}, expected {shape}")

    def f64_array(self, shape: tuple, what: str) -> np.ndarray:
        """The next array, of shape (checked before the payload); what names it."""
        self.dims(shape, what)
        raw = self._take(8 * math.prod(shape))
        self._floats.append((what, raw))
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)

    def done(self) -> None:
        """CorruptFileError unless every byte was read and every float is finite."""
        if self.pos != len(self.buf):
            raise self.fail(f"unread bytes after byte {self.pos}")
        # one pass over every float read; the walk only names the first bad one
        if not np.isfinite(np.frombuffer(b"".join(raw for _, raw in self._floats), "<f8")).all():
            what = next(what for what, raw in self._floats
                        if not np.isfinite(np.frombuffer(raw, "<f8")).all())
            raise self.fail(f"{what} is not finite")


def open_reader(path: str, magic: bytes, versions: tuple[int, ...], kind: str) -> ByteReader:
    """Reader over a framed file, positioned after its magic and version,
    which it keeps as r.version.

    The magic is checked first, so a file of another format is named as
    such rather than as a CRC failure; then the CRC, then the version.
    """
    buf = read_file(path)
    if buf[:len(magic)] != magic:
        raise CorruptFileError(f"{path}: bad magic {buf[:len(magic)]!r}, expected {magic!r}")
    r = ByteReader(buf, path)
    r.raw(len(magic))
    r.version = r.u32()
    if r.version not in versions:
        raise r.fail(f"unsupported {kind} version {r.version}")
    return r


def write_named_arrays(w: ByteWriter, arrays: dict) -> None:
    """A count, then name and array each, sorted by name."""
    w.u32(len(arrays))
    for name in sorted(arrays):
        w.text(name)
        w.f64_array(arrays[name])


def read_named_arrays(r: ByteReader, shapes: dict[str, tuple], what: str) -> dict:
    """Name/array pairs as write_named_arrays wrote them: each name one of
    shapes' keys, at most once, with that shape."""
    out = {}
    for _ in range(r.u32()):
        name = r.text()
        if name not in shapes:
            raise r.fail(f"{what} {name!r} is not one this run has")
        if name in out:
            raise r.fail(f"{what} {name!r} appears twice")
        out[name] = r.f64_array(shapes[name], f"{what} {name!r}")
    return out


def check_bank_bits(r: ByteReader, bits: list[int], top: int) -> None:
    """A bank's bit-widths as r stored them (or as far as read): at least one,
    none twice, each within [2, top]; r's error naming the first bad one."""
    for i, b in enumerate(bits):
        if not 2 <= b <= top or b in bits[:i]:
            problem = f"outside [2, {top}]" if not 2 <= b <= top else "appears twice"
            raise r.fail(f"bank bit-width {b} {problem}: bit-widths {bits} "
                         f"must be unique and within [2, {top}]")
    if not bits:
        raise r.fail("bank holds no bit-width")


def write_bank_entry(w: ByteWriter, entry, arch) -> None:
    """One bank entry: BN gamma/beta/mean/var per BN layer, then the
    clipping value per quantized layer, both in architecture order."""
    for name in arch.bn_names:
        st = entry.bn[name]
        for arr in (st.gamma.data, st.beta.data, st.running_mean, st.running_var):
            w.f64_array(arr)
    for name in arch.quantized_names:
        w.f64(float(entry.alpha[name].data))


def read_bank_entry(r: ByteReader, entry, arch, b: int) -> None:
    """Overwrite bit-width b's entry in place with the fields write_bank_entry
    wrote, each BN array checked against the shape the entry already has and
    each running variance non-negative."""
    for name in arch.bn_names:
        st, what = entry.bn[name], f"bank entry {b} {name}"
        st.gamma.data = r.f64_array(st.gamma.shape, f"{what} gamma")
        st.beta.data = r.f64_array(st.beta.shape, f"{what} beta")
        st.running_mean = r.f64_array(st.running_mean.shape, f"{what} running mean")
        st.running_var = r.f64_array(st.running_var.shape, f"{what} running var")
        if st.running_var.min() < 0.0:  # a NaN passes here and fails in r.done()
            raise r.fail(f"{what} running var is negative")
    for name in arch.quantized_names:
        entry.alpha[name].data = np.asarray(r.f64(f"bank entry {b} {name} alpha"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:  # after a failed write or replace, leave no temp file behind
        if os.path.exists(tmp):
            os.remove(tmp)


def read_file(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()
