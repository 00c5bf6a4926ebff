"""Pure-stdlib pcap and pcapng capture-file I/O.

The scan layers built so far could only be fed synthetic
:class:`repro.traffic.TrafficGenerator` streams; this module is the disk half
of the capture/replay subsystem that lets *real* traffic through them.  Two
container formats are supported:

* classic **pcap** (the tcpdump format): 24-byte global header (either
  endianness, microsecond ``0xA1B2C3D4`` or nanosecond ``0xA1B23C4D`` magic)
  followed by 16-byte-headed records;
* **pcapng**, restricted to the classic block types every writer emits:
  Section Header, Interface Description, Enhanced Packet and Simple Packet
  blocks (options are skipped except ``if_tsresol``, which is honoured so
  timestamps come out right).  Unknown block types are ignored, as the
  pcapng spec requires.

Timestamps are normalised to integer **nanoseconds** (``CaptureRecord.ts_ns``)
regardless of the container's resolution, so records round-trip between
formats without floating-point drift.  Only the container lives here; frame
decoding is :mod:`repro.capture.frames` and scan-layer replay is
:mod:`repro.capture.replay`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple, Union

#: Link-layer types (the registry values pcap and pcapng share).
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_LINUX_SLL = 113

PCAP_MAGIC_MICRO = 0xA1B2C3D4
PCAP_MAGIC_NANO = 0xA1B23C4D
PCAPNG_BLOCK_SHB = 0x0A0D0D0A
PCAPNG_BYTE_ORDER_MAGIC = 0x1A2B3C4D
PCAPNG_BLOCK_IDB = 0x00000001
PCAPNG_BLOCK_SPB = 0x00000003
PCAPNG_BLOCK_EPB = 0x00000006

_OPT_ENDOFOPT = 0
_OPT_IF_TSRESOL = 9

#: Most bytes one ``handle.read`` is asked for.  Every length in a capture is
#: untrusted, and ``read(n)`` sizes its buffer from ``n`` before it looks at
#: the file, so nothing is ever read by a length the file supplied.
READ_BLOCK = 1 << 16
#: libpcap's ``MAXIMUM_SNAPLEN``: no record may claim more captured bytes
#: than the larger of this and the file's own snap length.
MAX_SNAPLEN = 262_144

PathOrIO = Union[str, "os.PathLike[str]", BinaryIO]


class CaptureError(ValueError):
    """Raised when a capture file is malformed or of an unknown format."""


@dataclass
class CaptureRecord:
    """One captured frame: raw link-layer bytes plus capture metadata.

    ``ts_ns`` is nanoseconds since the epoch; ``orig_len`` is the frame's
    length on the wire (``len(data)`` unless the capture was truncated by a
    snap length).
    """

    data: bytes
    ts_ns: int = 0
    orig_len: Optional[int] = None

    @property
    def wire_length(self) -> int:
        return len(self.data) if self.orig_len is None else self.orig_len

    @property
    def truncated(self) -> bool:
        return self.wire_length > len(self.data)


@dataclass
class CaptureFile:
    """A parsed capture: records plus the metadata replay needs.

    ``fmt`` is ``"pcap"`` or ``"pcapng"``; ``nanosecond`` records whether a
    pcap container carried nanosecond timestamps (pcapng resolution is
    per-interface and already folded into ``ts_ns``).
    """

    linktype: int
    records: List[CaptureRecord] = field(default_factory=list)
    fmt: str = "pcap"
    nanosecond: bool = False
    snaplen: int = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(len(record.data) for record in self.records)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _read_exact(handle: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes, at most :data:`READ_BLOCK` per call.

    A length that exceeds what the file has left fails here as a short read
    after buffering only the bytes that exist.
    """
    chunks: List[bytes] = []
    missing = count
    while missing > 0:
        data = handle.read(min(missing, READ_BLOCK))
        if not data:
            raise CaptureError(f"truncated capture: short read in {what}")
        chunks.append(data)
        missing -= len(data)
    return b"".join(chunks)


def _open(source: PathOrIO, mode: str):
    """Return ``(handle, needs_close)`` for a path or an already open file."""
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False
    return open(source, mode), True


def _classic_reader(handle: BinaryIO) -> Optional["PcapBlockReader"]:
    """Sniff the magic number: a block reader for classic pcap, ``None`` for
    pcapng; anything else raises."""
    magic_bytes = _read_exact(handle, 4, "magic number")
    (magic,) = struct.unpack("<I", magic_bytes)
    (magic_be,) = struct.unpack(">I", magic_bytes)
    if {magic, magic_be} & {PCAP_MAGIC_MICRO, PCAP_MAGIC_NANO}:
        return PcapBlockReader(handle, magic_bytes)
    if magic == PCAPNG_BLOCK_SHB:  # block type is endian-independent here
        return None
    raise CaptureError(f"not a pcap or pcapng file (magic 0x{magic:08X})")


def read_capture(source: PathOrIO) -> CaptureFile:
    """Read a pcap or pcapng file, auto-detected from its magic number."""
    handle, needs_close = _open(source, "rb")
    try:
        reader = _classic_reader(handle)
        return _read_pcapng(handle) if reader is None else _read_pcap(reader)
    finally:
        if needs_close:
            handle.close()


#: Frames as the block reader finds them, unsliced: ``(buffer, starts,
#: lengths)`` — frame ``i`` is ``buffer[starts[i]:starts[i] + lengths[i]]``.
FrameBlock = Tuple[bytes, List[int], List[int]]


def read_blocks(
    source: Union[PathOrIO, CaptureFile]
) -> Iterator[Tuple[Optional[int], FrameBlock]]:
    """A capture's frames as ``(linktype, (buffer, starts, lengths))``
    blocks, in file order.

    A classic pcap is streamed: one :class:`PcapBlockReader` block at a time,
    no :class:`CaptureRecord` is built, no frame is sliced out of its block
    and nothing but the blocks handed out is held.  A pcapng file is parsed
    whole by :func:`read_capture`'s reader and an already-parsed
    :class:`CaptureFile` is taken as it is; either comes out as one block,
    its frames joined into one buffer.  ``linktype`` is ``None`` only on a
    block that completed no record before the pcap global header had
    arrived.  Every container error :func:`read_capture` raises is raised
    here, at the block it concerns — a record cut short at the end of the
    file after the blocks before it.
    """
    if not isinstance(source, CaptureFile):
        handle, needs_close = _open(source, "rb")
        try:
            reader = _classic_reader(handle)
            if reader is not None:
                while True:
                    block = reader.read_frames()
                    if block is None:
                        break
                    yield reader.linktype, block
                reader.finish()
                return
            source = _read_pcapng(handle)
        finally:
            if needs_close:
                handle.close()
    lengths = [len(record.data) for record in source.records]
    starts, position = [], 0
    for length in lengths:
        starts.append(position)
        position += length
    yield source.linktype, (b"".join(record.data for record in source.records), starts, lengths)


class PcapBlockReader:
    """Incremental classic-pcap reader: bounded block reads in, whole records out.

    The one container loop behind :func:`read_capture` and the live
    :class:`repro.streaming.ingest.PcapTailSource`.  Each :meth:`read_frames`
    asks the handle for at most :data:`READ_BLOCK` bytes and parses every
    record that is now complete out of the buffer by offset; an incomplete
    tail stays buffered for the next block, so a caller waits (or gives up)
    only when a record really is unfinished.  ``prefix`` holds bytes the
    caller already consumed from the handle (the magic number).

    Lengths are checked against the bytes present, never allocated from: a
    record claiming more than ``max(snaplen, MAX_SNAPLEN)`` captured bytes is
    rejected on sight, and one that merely outruns the file is reported by
    :meth:`finish` — both as :class:`CaptureError` naming the record index.
    ``linktype`` is ``None`` until the 24-byte global header has arrived.
    """

    def __init__(self, handle: BinaryIO, prefix: bytes = b""):
        self.handle = handle
        self.linktype: Optional[int] = None
        self.snaplen = 0
        self.nanosecond = False
        #: records handed out so far (the index of the next one)
        self.index = 0
        self._buffer = prefix
        self._record = struct.Struct("<IIII")
        self._length = struct.Struct("<I")
        self._limit = MAX_SNAPLEN

    def _parse_global_header(self, buffer: bytes) -> None:
        (magic,) = struct.unpack_from("<I", buffer, 0)
        endian = "<"
        if magic not in (PCAP_MAGIC_MICRO, PCAP_MAGIC_NANO):
            (magic_be,) = struct.unpack_from(">I", buffer, 0)
            if magic_be not in (PCAP_MAGIC_MICRO, PCAP_MAGIC_NANO):
                raise CaptureError(
                    f"not a classic pcap file (magic 0x{magic:08X}); "
                    "pcapng does not tail safely, read_capture() reads it whole"
                )
            endian, magic = ">", magic_be
        version_major, version_minor, _, _, snaplen, linktype = struct.unpack_from(
            endian + "HHiIII", buffer, 4
        )
        if version_major != 2:  # pragma: no cover - no other version exists
            raise CaptureError(f"unsupported pcap version {version_major}.{version_minor}")
        self.nanosecond = magic == PCAP_MAGIC_NANO
        self.snaplen = snaplen
        self.linktype = linktype
        self._record = struct.Struct(endian + "IIII")
        self._length = struct.Struct(endian + "I")
        self._limit = max(snaplen, MAX_SNAPLEN)

    def read_frames(self) -> Optional[FrameBlock]:
        """Read one block; return the frames it completed, unsliced.

        ``None`` means the handle had nothing new (end of file, or — for a
        file still being written — nothing *yet*); no frames (empty
        ``starts``) means bytes arrived but the next record is still
        incomplete.  The buffer holds the frames in place: nothing is cut
        out of it.
        """
        block = self.handle.read(READ_BLOCK)
        if not block:
            return None
        buffer = self._buffer + block if self._buffer else block
        size = len(buffer)
        position = 0
        if self.linktype is None:
            if size < 24:
                self._buffer = buffer
                return buffer, [], []
            self._parse_global_header(buffer)
            position = 24
        starts: List[int] = []
        lengths: List[int] = []
        unpack_from = self._length.unpack_from
        limit = self._limit
        while position + 16 <= size:
            (incl_len,) = unpack_from(buffer, position + 8)
            if incl_len > limit:
                raise CaptureError(
                    f"pcap record {self.index + len(starts)} claims {incl_len} "
                    f"captured bytes, above the {limit}-byte snap length limit"
                )
            end = position + 16 + incl_len
            if end > size:
                break
            starts.append(position + 16)
            lengths.append(incl_len)
            position = end
        self.index += len(starts)
        self._buffer = buffer[position:]
        return buffer, starts, lengths

    def finish(self) -> None:
        """The input has ended: whatever is still buffered was cut short."""
        if self.linktype is None:
            raise CaptureError(
                "truncated capture: short read in pcap global header"
                if self._buffer
                else "empty capture file"
            )
        if self._buffer:
            raise CaptureError(
                f"truncated capture: pcap record {self.index} is cut short "
                f"({len(self._buffer)} bytes of it are in the file)"
            )


def _read_pcap(reader: PcapBlockReader) -> CaptureFile:
    records: List[CaptureRecord] = []
    append = records.append
    while True:
        block = reader.read_frames()
        if block is None:
            break
        buffer, starts, lengths = block
        frac_scale = 1 if reader.nanosecond else 1000
        unpack_from = reader._record.unpack_from
        for start, length in zip(starts, lengths):
            ts_sec, ts_frac, _, orig_len = unpack_from(buffer, start - 16)
            append(
                CaptureRecord(
                    buffer[start:start + length],
                    ts_sec * 1_000_000_000 + ts_frac * frac_scale,
                    orig_len if orig_len != length else None,
                )
            )
    reader.finish()
    return CaptureFile(
        linktype=reader.linktype,
        records=records,
        fmt="pcap",
        nanosecond=reader.nanosecond,
        snaplen=reader.snaplen,
    )


def _parse_options(data: bytes, endian: str) -> List[Tuple[int, bytes]]:
    """Parse a pcapng option list (already-sliced block tail)."""
    options: List[Tuple[int, bytes]] = []
    position = 0
    while position + 4 <= len(data):
        code, length = struct.unpack_from(endian + "HH", data, position)
        position += 4
        if code == _OPT_ENDOFOPT:
            break
        options.append((code, data[position:position + length]))
        position += (length + 3) & ~3  # options are padded to 32 bits
    return options


def _tsresol_units(option: bytes) -> int:
    """Timestamp units per second for an ``if_tsresol`` option value.

    Records convert ticks exactly via ``ticks * 1e9 // units`` — no per-unit
    rounding, so power-of-two and sub-nanosecond resolutions cannot silently
    inflate timestamps (sub-ns precision is floored away, the best an
    integer-nanosecond model can do).
    """
    if not option:
        return 1_000_000
    value = option[0]
    if value & 0x80:  # power of two resolution
        return 1 << (value & 0x7F)
    return 10 ** value


def _read_pcapng(handle: BinaryIO) -> CaptureFile:
    capture: Optional[CaptureFile] = None
    endian = "<"
    #: per-interface timestamp units per second (reset at every new section)
    interfaces: List[int] = []
    snaplens: List[int] = []

    # the caller consumed the SHB block-type word already; re-enter the loop
    # with it pre-read
    pending_type: Optional[int] = PCAPNG_BLOCK_SHB
    block_index = -1

    while True:
        block_index += 1
        if pending_type is None:
            type_bytes = handle.read(4)
            if not type_bytes:
                break
            if len(type_bytes) != 4:
                raise CaptureError("truncated capture: short read in pcapng block type")
            (block_type,) = struct.unpack(endian + "I", type_bytes)
        else:
            block_type, pending_type = pending_type, None

        if block_type == PCAPNG_BLOCK_SHB:
            # byte order magic decides endianness for this whole section
            length_and_magic = _read_exact(handle, 8, "pcapng section header")
            (magic,) = struct.unpack("<I", length_and_magic[4:])
            endian = "<" if magic == PCAPNG_BYTE_ORDER_MAGIC else ">"
            (magic,) = struct.unpack(endian + "I", length_and_magic[4:])
            if magic != PCAPNG_BYTE_ORDER_MAGIC:
                raise CaptureError("pcapng section header has a bad byte-order magic")
            (total_length,) = struct.unpack(endian + "I", length_and_magic[:4])
            if total_length < 28 or total_length % 4:
                raise CaptureError(f"bad pcapng section header length {total_length}")
            _read_exact(
                handle, total_length - 12, f"pcapng section header (block {block_index})"
            )
            interfaces = []
            snaplens = []
            continue

        (total_length,) = struct.unpack(
            endian + "I", _read_exact(handle, 4, "pcapng block length")
        )
        if total_length < 12 or total_length % 4:
            raise CaptureError(
                f"bad pcapng block length {total_length} (block {block_index})"
            )
        body = _read_exact(
            handle, total_length - 8, f"pcapng block {block_index} body"
        )[:-4]

        if block_type == PCAPNG_BLOCK_IDB:
            if len(body) < 8:
                raise CaptureError("truncated capture: pcapng interface block body")
            linktype, _, snaplen = struct.unpack_from(endian + "HHI", body, 0)
            units = 1_000_000
            for code, value in _parse_options(body[8:], endian):
                if code == _OPT_IF_TSRESOL:
                    units = _tsresol_units(value)
            interfaces.append(units)
            snaplens.append(snaplen)
            if capture is None:
                capture = CaptureFile(linktype=linktype, fmt="pcapng", snaplen=snaplen)
            elif linktype != capture.linktype:
                raise CaptureError(
                    "pcapng captures mixing link types are not supported "
                    f"({capture.linktype} then {linktype})"
                )
        elif block_type == PCAPNG_BLOCK_EPB:
            if capture is None or not interfaces:
                raise CaptureError("pcapng packet block before interface description")
            if len(body) < 20:
                raise CaptureError("truncated capture: pcapng packet block body")
            interface_id, ts_high, ts_low, captured, orig_len = struct.unpack_from(
                endian + "IIIII", body, 0
            )
            if interface_id >= len(interfaces):
                raise CaptureError(f"pcapng packet references unknown interface {interface_id}")
            data = body[20:20 + captured]
            if len(data) != captured:
                raise CaptureError("truncated capture: pcapng packet data")
            ticks = (ts_high << 32) | ts_low
            capture.records.append(
                CaptureRecord(
                    data=data,
                    ts_ns=ticks * 1_000_000_000 // interfaces[interface_id],
                    orig_len=orig_len if orig_len != captured else None,
                )
            )
        elif block_type == PCAPNG_BLOCK_SPB:
            if capture is None or not interfaces:
                raise CaptureError("pcapng packet block before interface description")
            if len(body) < 4:
                raise CaptureError("truncated capture: pcapng packet block body")
            (orig_len,) = struct.unpack_from(endian + "I", body, 0)
            snaplen = snaplens[0]
            captured = min(orig_len, snaplen) if snaplen else orig_len
            data = body[4:4 + captured]
            if len(data) != captured:
                raise CaptureError("truncated capture: pcapng packet data")
            capture.records.append(
                CaptureRecord(
                    data=data,
                    orig_len=orig_len if orig_len != captured else None,
                )
            )
        # any other block type (name resolution, statistics, custom) is
        # skipped: the spec requires readers to ignore what they don't know

    if capture is None:
        raise CaptureError("pcapng file contains no interface description block")
    return capture


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_pcap(
    destination: PathOrIO,
    records: Iterable[CaptureRecord],
    linktype: int = LINKTYPE_ETHERNET,
    nanosecond: bool = False,
    snaplen: int = 262_144,
) -> int:
    """Write classic pcap; returns the number of records written."""
    handle, needs_close = _open(destination, "wb")
    frac_scale = 1 if nanosecond else 1000
    magic = PCAP_MAGIC_NANO if nanosecond else PCAP_MAGIC_MICRO
    try:
        handle.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype))
        count = 0
        for record in records:
            ts_sec, ts_frac = divmod(record.ts_ns, 1_000_000_000)
            handle.write(
                struct.pack(
                    "<IIII",
                    ts_sec,
                    ts_frac // frac_scale,
                    len(record.data),
                    record.wire_length,
                )
            )
            handle.write(record.data)
            count += 1
        return count
    finally:
        if needs_close:
            handle.close()


def _pad32(data: bytes) -> bytes:
    return data + b"\x00" * (-len(data) % 4)


def _pcapng_block(block_type: int, body: bytes) -> bytes:
    body = _pad32(body)
    total = len(body) + 12
    return struct.pack("<II", block_type, total) + body + struct.pack("<I", total)


def write_pcapng(
    destination: PathOrIO,
    records: Iterable[CaptureRecord],
    linktype: int = LINKTYPE_ETHERNET,
    snaplen: int = 0,
) -> int:
    """Write pcapng (one section, one interface, Enhanced Packet Blocks).

    The interface advertises nanosecond resolution (``if_tsresol`` = 9), so
    ``CaptureRecord.ts_ns`` round-trips exactly.  Returns the record count.
    """
    handle, needs_close = _open(destination, "wb")
    try:
        handle.write(
            _pcapng_block(
                PCAPNG_BLOCK_SHB,
                struct.pack("<IHHq", PCAPNG_BYTE_ORDER_MAGIC, 1, 0, -1),
            )
        )
        tsresol_option = struct.pack("<HH", _OPT_IF_TSRESOL, 1) + _pad32(b"\x09")
        end_option = struct.pack("<HH", _OPT_ENDOFOPT, 0)
        handle.write(
            _pcapng_block(
                PCAPNG_BLOCK_IDB,
                struct.pack("<HHI", linktype, 0, snaplen) + tsresol_option + end_option,
            )
        )
        count = 0
        for record in records:
            body = struct.pack(
                "<IIIII",
                0,  # interface id
                record.ts_ns >> 32,
                record.ts_ns & 0xFFFFFFFF,
                len(record.data),
                record.wire_length,
            ) + _pad32(record.data)
            handle.write(_pcapng_block(PCAPNG_BLOCK_EPB, body))
            count += 1
        return count
    finally:
        if needs_close:
            handle.close()
