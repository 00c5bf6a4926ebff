"""Incremental HTTP/1.x request normalizer: the sticky-buffer substrate.

Snort-style rules can pin a content to a *normalized* protocol buffer
(``http_uri``, ``http_header``) instead of the raw byte stream — the only
way to catch ``GET /%63%6d%64.exe`` with a rule for ``/cmd.exe``.  This
module supplies those buffers: :class:`HttpStream` consumes one flow's
*stream-order* bytes (the reassembler's output, or plain arrival order)
incrementally and maintains two append-only normalized views:

* ``uri`` — every request-target seen on the flow, percent-decoded
  (``%XX`` escapes with valid hex are decoded, malformed ones kept
  literal), one per line (``\\n``-separated so request boundaries cannot be
  spanned by accident);
* ``headers`` — every header line, normalized to ``Name: value\\r\\n`` with
  the name and value stripped of surrounding whitespace and internal runs
  of blanks in the value collapsed to one space.

The parser is deliberately conservative: a flow whose first line does not
look like ``METHOD SP TARGET SP HTTP/…`` is marked non-HTTP and never
produces buffers; bodies are skipped via ``Content-Length`` (a chunked or
length-less keep-alive body ends parsing for the flow rather than guessing
at request boundaries).  Both buffers and the pending-line accumulator are
size-capped so a hostile flow cannot grow them without bound.

State is tiny and JSON-serialisable (:meth:`as_dict` / :meth:`from_dict`),
so the confirm stage can carry normalizer state inside its flow checkpoints
— serial and parallel pipelines stay interchangeable.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Parser cap on one accumulated line; beyond it the flow is non-HTTP.
MAX_LINE_BYTES = 4096
#: Cap on each normalized buffer; further data is dropped, not an error.
MAX_BUFFER_BYTES = 16384

_METHODS = (
    b"GET", b"POST", b"HEAD", b"PUT", b"DELETE", b"OPTIONS", b"TRACE",
    b"CONNECT", b"PATCH",
)

#: Sticky-buffer names, in the order the rule grammar accepts them.
HTTP_BUFFERS = ("http_uri", "http_header")


def percent_decode(raw: bytes) -> bytes:
    """Decode ``%XX`` escapes; malformed escapes stay literal."""
    if b"%" not in raw:
        return raw
    out = bytearray()
    index = 0
    length = len(raw)
    while index < length:
        byte = raw[index]
        if byte == 0x25 and index + 2 < length:
            try:
                out.append(int(raw[index + 1:index + 3], 16))
                index += 3
                continue
            except ValueError:
                pass
        out.append(byte)
        index += 1
    return bytes(out)


def _normalize_header_line(line: bytes) -> Optional[bytes]:
    """``Name: value`` with stripped name/value and collapsed blanks."""
    colon = line.find(b":")
    if colon < 1:
        return None
    name = line[:colon].strip()
    value = b" ".join(line[colon + 1:].split())
    return name + b": " + value + b"\r\n"


class HttpStream:
    """One flow's incremental HTTP/1.x request-line + header normalizer."""

    __slots__ = (
        "_state", "_line", "_body_left", "_uri", "_headers", "requests",
        "_lowered",
    )

    #: parser states
    _REQUEST = 0
    _HEADERS = 1
    _BODY = 2
    _OPAQUE = 3  # not HTTP (or unparseable): buffers are frozen

    def __init__(self):
        self._state = self._REQUEST
        self._line = b""
        self._body_left = 0
        self._uri = b""
        self._headers = b""
        self.requests = 0
        # buffer name -> its lower-cased view, for ``nocase`` contents: not
        # state (never serialised), extended only by what the buffer grew by
        self._lowered: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    @property
    def uri(self) -> bytes:
        """The normalized URI buffer (empty until a request line parsed)."""
        return self._uri

    @property
    def headers(self) -> bytes:
        """The normalized header buffer."""
        return self._headers

    @property
    def is_http(self) -> bool:
        """True once at least one request line has parsed."""
        return self.requests > 0

    def buffer(self, name: str, lowered: bool = False) -> bytes:
        """The normalized buffer for a sticky-buffer name; ``lowered`` gives
        its lower-cased view (what a ``nocase`` content is searched in)."""
        if name == "http_uri":
            data = self._uri
        elif name == "http_header":
            data = self._headers
        else:
            raise ValueError(f"unknown HTTP buffer {name!r}")
        if not lowered:
            return data
        view = self._lowered.get(name, b"")
        if len(view) != len(data):  # append-only: lower what was appended
            view = self._lowered[name] = view + data[len(view):].lower()
        return view

    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> bool:
        """Consume the flow's next stream-order bytes.

        Returns True when either normalized buffer grew: the confirm stage
        re-asks a flow's open sticky-buffer rules on exactly those packets.
        """
        if self._state == self._OPAQUE or not data:
            return False
        before = len(self._uri) + len(self._headers)
        position = 0
        length = len(data)
        while position < length and self._state != self._OPAQUE:
            if self._state == self._BODY:
                skip = min(self._body_left, length - position)
                self._body_left -= skip
                position += skip
                if self._body_left == 0:
                    self._state = self._REQUEST
                continue
            newline = data.find(b"\n", position)
            if newline < 0:
                self._line += data[position:]
                if len(self._line) > MAX_LINE_BYTES:
                    self._state = self._OPAQUE
                break
            line = self._line + data[position:newline]
            self._line = b""
            position = newline + 1
            if len(line) > MAX_LINE_BYTES:
                self._state = self._OPAQUE
                break
            self._consume_line(line.rstrip(b"\r"))
        return len(self._uri) + len(self._headers) > before

    def _consume_line(self, line: bytes) -> None:
        if self._state == self._REQUEST:
            if not line:  # tolerate blank lines between pipelined requests
                return
            parts = line.split()
            if (
                len(parts) != 3
                or parts[0] not in _METHODS
                or not parts[2].startswith(b"HTTP/")
            ):
                self._state = self._OPAQUE
                return
            uri = percent_decode(parts[1])
            if len(self._uri) < MAX_BUFFER_BYTES:
                self._uri += uri + b"\n"
            self.requests += 1
            self._body_left = 0
            self._state = self._HEADERS
            return
        # headers
        if not line:  # end of the header block
            if self._body_left > 0:
                self._state = self._BODY
            elif self._body_left < 0:
                self._state = self._OPAQUE  # chunked/unknown body framing
            else:
                self._state = self._REQUEST
            return
        normalized = _normalize_header_line(line)
        if normalized is None:
            self._state = self._OPAQUE
            return
        if len(self._headers) < MAX_BUFFER_BYTES:
            self._headers += normalized
        lowered = normalized.lower()
        if lowered.startswith(b"content-length:"):
            try:
                self._body_left = int(normalized.split(b":", 1)[1])
            except ValueError:
                self._state = self._OPAQUE
        elif lowered.startswith(b"transfer-encoding:") and b"chunked" in lowered:
            self._body_left = -1  # flag: unframeable body

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        return {
            "state": self._state,
            "line": self._line.hex(),
            "body_left": self._body_left,
            "uri": self._uri.hex(),
            "headers": self._headers.hex(),
            "requests": self.requests,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HttpStream":
        stream = cls()
        stream._state = int(data["state"])
        stream._line = bytes.fromhex(data["line"])
        stream._body_left = int(data["body_left"])
        stream._uri = bytes.fromhex(data["uri"])
        stream._headers = bytes.fromhex(data["headers"])
        stream.requests = int(data.get("requests", 0))
        return stream


__all__ = ["HTTP_BUFFERS", "HttpStream", "MAX_BUFFER_BYTES", "percent_decode"]
