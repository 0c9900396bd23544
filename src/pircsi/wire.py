"""Byte-level framing and a small TCP client/server for remote retrieval.

Frame layout: one message-type byte, a u32 little-endian payload length, then
the payload.  Query payloads carry a model byte, a case byte (0 for the
first model and for the query-free second-model case), a u16 set count, and
per set a u16 size, the 1-based indices as u32 words, then the coefficients
in the canonical field-element encoding.  Answer payloads carry a u16 count
followed by that many canonical element encodings.

Servers greet with (q, m, K) on request.  Messages are vectors over GF(q),
so (q, m) is all a client needs to parse and combine them.

Each client thread keeps one open connection, to the last server it spoke
to, and sends every hello and query over it.  A query is sent a second
time, byte for byte, only when the server had already closed that
connection.  Reuse lets the server link no queries that it could not
already link by the client's address; the privacy guarantee holds for each
query on its own.
"""

import os
import socket
import socketserver
import struct
import threading
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ProtocolError, SetRuleError, ShapeError, WireParseError
from .field import FieldParams
from .model import MODEL_I, MODEL_II, Database, answer_words
from .protocol_rp import Answer, Query, check_set_arrays
from .protocols import PROTOCOLS

MSG_QUERY = 0x01
MSG_ANSWER = 0x02
MSG_ERROR = 0x03
MSG_HELLO = 0x04

_FRAME_HEADER = struct.Struct("<BI")
_HELLO_BODY = struct.Struct("<III")
MAX_FRAME_BYTES = 1 << 20

_MODEL_BYTES = {MODEL_I: 1, MODEL_II: 2}
_MODELS = {byte: model for model, byte in _MODEL_BYTES.items()}

# The encoder checks indices against the u32 limit; K is the server's to check.
_INDEX_LIMIT = 2**32 - 1

# What encode_query and decode_query say about a set-rule fault, by kind.
_REFUSALS = {
    "index": "index {v!r} in set {k}, slot {j} is not an integer in [1, {limit}]",
    "repeat": "index {v!r} in set {k}, slot {j} repeats an earlier index of its set",
    "coefficient": "coefficient {v!r} in set {k}, slot {j} is not an integer in [1, {top}]",
}
_PARSE_ERRORS = {
    "index": "index {v} outside [1, {K}]",
    "repeat": "repeated index {v} inside a set",
    "coefficient": "coefficient {v} outside [1, {top}]",
}


def parse_port(text: str, where: str = "") -> int:
    """The port written in text, at most five decimal digits up to 65535:
    the socket layer would take a larger port modulo 2^16.  Raises
    ParameterError, its message prefixed by where."""
    if not text.isdecimal() or len(text) > 5 or int(text) > 0xFFFF:
        raise ParameterError(f"{where}expected a port in [0, 65535], got {text!r}")
    return int(text)


def default_port() -> int:
    """Port used when none is given; override with the PIRCSI_PORT variable."""
    return parse_port(os.environ.get("PIRCSI_PORT", "7641"), "PIRCSI_PORT: ")


# -- framing ----------------------------------------------------------------


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if msg_type not in (MSG_QUERY, MSG_ANSWER, MSG_ERROR, MSG_HELLO):
        raise ParameterError(f"unknown frame type {msg_type!r}")
    if len(payload) > MAX_FRAME_BYTES:
        raise ParameterError(f"payload of {len(payload)} bytes exceeds the frame cap")
    return _FRAME_HEADER.pack(msg_type, len(payload)) + payload


# -- query payloads ---------------------------------------------------------


def encode_query(query: Query, params: FieldParams) -> bytes:
    """Query payload bytes (frame not included), written from the query's
    index and coefficient arrays after one check_set_arrays."""
    if query.model not in _MODEL_BYTES:
        raise ParameterError(f"cannot encode a query of model {query.model!r}")
    if query.case_tag not in range(0x100):
        raise ParameterError(f"case tag {query.case_tag!r} does not fit in the case byte")
    q, m, (n, s) = params.q, params.m, query.idx.shape
    if n and not s:
        raise ParameterError("set 0 is empty; a query set holds at least one index")
    try:
        check_set_arrays(query.idx, query.coef, _INDEX_LIMIT, q)
    except SetRuleError as fault:
        k, j, v = fault.set_no, fault.slot, fault.value
        text = _REFUSALS[fault.what].format(v=v, k=k, j=j, limit=_INDEX_LIMIT, top=q - 1)
        raise SetRuleError(text, k, j, fault.what, v) from None
    if n > 0xFFFF or s > 0xFFFF:
        raise ParameterError("a query carries at most 65,535 sets of at most 65,535 indices")
    # The checks above bound every cast.
    frame = np.zeros(n, dtype=_set_records(s, m))
    frame["size"] = s
    frame["idx"] = query.idx
    frame["coef"][..., 0] = query.coef
    head = struct.pack("<BBH", _MODEL_BYTES[query.model], query.case_tag, n)
    return head + frame.tobytes()


@lru_cache(maxsize=64)
def _set_records(s: int, m: int) -> np.dtype:
    """One set of s indices on the wire, as a packed numpy record: its size,
    its indices, and its coefficients as element encodings (a coefficient in
    word 0, zeros above it)."""
    return np.dtype([("size", "<u2"), ("idx", "<u4", (s,)), ("coef", "<u2", (s, m))])


def decode_query(data: bytes, params: FieldParams, K: int) -> Query:
    """Parse a query payload into a Query of (n, s) int64 arrays.  Total on
    arbitrary bytes: every failure is a WireParseError carrying the byte
    offset, never a crash.  Framing faults come first, then the model's
    shape, then the first set-rule fault in byte order; a query this returns
    is well formed.  A payload of n sets of one size whose coefficients are
    all scalars is read as one record array; any other is walked set by set
    to find its first fault."""
    end = len(data)
    if not end:
        raise WireParseError("truncated model byte", 0)
    if data[0] not in _MODELS:
        raise WireParseError(f"unknown model byte {data[0]}", 0)
    if end < 2:
        raise WireParseError("truncated case byte", 1)
    if end < 4:
        raise WireParseError("truncated set count", 2)
    model, case_byte, n_sets = _MODELS[data[0]], data[1], data[2] | data[3] << 8
    sizes, starts, idx, coef = _read_records(data, n_sets, params.m) or _walk_sets(
        data, n_sets, params
    )

    try:
        PROTOCOLS[model].check_sizes(case_byte, sizes, K)
    except ShapeError as fault:  # the case byte, the set count, the first set's size
        raise WireParseError(str(fault), {"case": 1, "count": 2, "size": 4}[fault.part]) from None
    shape = (len(sizes), sizes[0] if sizes else 0)  # check_sizes left one set size only
    idx = idx.astype(np.int64).reshape(shape)
    coef = coef.astype(np.int64).reshape(shape)
    try:
        check_set_arrays(idx, coef, K, params.q)
    except SetRuleError as fault:
        k, j = fault.set_no, fault.slot
        if fault.what == "coefficient":
            at = starts[k] + 4 * sizes[k] + params.element_bytes * j
        else:
            at = starts[k] + 4 * j
        text = _PARSE_ERRORS[fault.what].format(v=fault.value, K=K, top=params.q - 1)
        raise WireParseError(text, at) from None
    return Query(idx, coef, model, case_byte)


def _read_records(data: bytes, n_sets: int, m: int):
    """The sets of a payload that holds exactly n_sets nonempty sets of its
    first set's size, with no coefficient word set above word 0, as
    decode_query's (sizes, starts, indices, coefficients), each set's
    indices and coefficients a row of u32 or u16 words; None for any other
    payload."""
    if not n_sets or len(data) < 6:
        return None
    s = data[4] | data[5] << 8
    record = _set_records(s, m)
    if not s or len(data) != 4 + n_sets * record.itemsize:
        return None
    sets = np.frombuffer(data, record, n_sets, 4)
    if (sets["size"] != s).any() or sets["coef"][..., 1:].any():
        return None
    return [s] * n_sets, range(6, len(data), record.itemsize), sets["idx"], sets["coef"][..., 0]


def _walk_sets(data: bytes, n_sets: int, params: FieldParams):
    """decode_query's (sizes, starts, indices, coefficients) of a payload
    walked set by set, the indices and coefficients as flat u32 and u16
    words.  Raises WireParseError for its first framing fault or a
    coefficient word set above word 0, whichever comes first in byte order.
    Python walks only the set headers; numpy the rest."""
    end, width, pos = len(data), params.element_bytes, 4
    sizes, starts, index_runs, coef_runs = [], [], [], []
    try:
        for _ in range(n_sets):
            if pos + 2 > end:
                raise WireParseError("truncated set size", pos)
            size = data[pos] | data[pos + 1] << 8
            if size == 0:
                raise WireParseError("empty query set", pos)
            idx_at, at = pos + 2, pos + 2 + 4 * size
            if at > end:  # reported where the first missing item would start
                raise WireParseError("truncated index", idx_at + (end - idx_at) // 4 * 4)
            pos = at + width * size
            if pos > end:
                raise WireParseError("truncated coefficient", at + (end - at) // width * width)
            sizes.append(size)
            starts.append(idx_at)
            index_runs.append(data[idx_at:at])
            coef_runs.append(data[at:pos])
        if pos != end:
            raise WireParseError("trailing bytes after the query", pos)
        framing = None
    except WireParseError as fault:
        framing = fault
    # A framing fault lies past every set read so far, so a high word in any
    # of them comes first in byte order.
    words = np.frombuffer(b"".join(coef_runs), dtype="<u2").reshape(-1, params.m)
    high = words[:, 1:].any(axis=1)
    if high.any():
        flat = int(high.argmax())
        k = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))  # its set
        at = starts[k] + 4 * sizes[k] + width * (flat - sum(sizes[:k]))
        raise WireParseError("coefficient is not a base-field scalar", at)
    if framing is not None:
        raise framing
    return sizes, starts, np.frombuffer(b"".join(index_runs), dtype="<u4"), words[:, 0]


# -- answer payloads --------------------------------------------------------


def encode_answer(answer: Answer) -> bytes:
    """The count as u16, then every word of the answer, each below q, as
    little-endian u16."""
    return struct.pack("<H", len(answer.words)) + answer.words.astype("<u2", copy=False).tobytes()


def decode_answer(data: bytes, params: FieldParams) -> Answer:
    if len(data) < 2:
        raise WireParseError("truncated element count", 0)
    count = data[0] | data[1] << 8
    q, m, width = params.q, params.m, params.element_bytes
    # The run of elements present is unpacked at once and checked in order
    # before a short run is reported as truncated.
    present = min(count, (len(data) - 2) // width)
    end = 2 + width * present
    words = np.frombuffer(data, dtype="<u2", count=present * m, offset=2).reshape(present, m)
    if present and words.max() >= q:
        at = 2 + width * int((words >= q).any(axis=1).argmax())
        raise WireParseError("coefficient word out of range for this field", at)
    if present < count:
        raise WireParseError("truncated element", end)
    if end != len(data):
        raise WireParseError("trailing bytes after the answer", end)
    return Answer(params, words)


# -- hello payloads ---------------------------------------------------------


def encode_hello(params: FieldParams, K: int) -> bytes:
    return _HELLO_BODY.pack(params.q, params.m, K)


def decode_hello(data: bytes) -> tuple[FieldParams, int]:
    if len(data) != _HELLO_BODY.size:
        raise WireParseError("hello payload must be 12 bytes", len(data))
    q, m, K = _HELLO_BODY.unpack(data)
    try:
        params = FieldParams(q, m)
    except ParameterError as exc:
        raise WireParseError(str(exc), 0) from None
    # An answer frame must hold at least one message; a larger announced m
    # would only have the client allocate vectors no server can send.
    if 2 + params.element_bytes > MAX_FRAME_BYTES:
        raise WireParseError(f"messages of {m} words do not fit in a frame", 4)
    return params, K


# -- sockets ----------------------------------------------------------------


def _read_exact(rfile, n: int) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(rfile) -> tuple[int, bytes] | None:
    """The next frame on a stream as (type, payload), or None if the peer
    hangs up first.  A declared length over MAX_FRAME_BYTES raises
    WireParseError before any of the payload is read."""
    header = _read_exact(rfile, _FRAME_HEADER.size)
    if header is None:
        return None
    msg_type, length = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireParseError(f"declared length {length} exceeds the frame cap", 1)
    payload = _read_exact(rfile, length)
    return None if payload is None else (msg_type, payload)


class _Handler(socketserver.StreamRequestHandler):
    # Seconds a read or write on a connection may wait before the server
    # hangs up; socketserver applies it to the connection's socket.
    timeout = 30.0
    # Every reply goes out in one write; a client waits for it on a
    # connection it keeps, so Nagle's delay would only hold it back.
    disable_nagle_algorithm = True

    def handle(self):
        try:
            self._serve()
        except (TimeoutError, ConnectionResetError, BrokenPipeError):
            return  # an idle client, or one that left: close without a traceback

    def _serve(self):
        db: Database = self.server.db  # type: ignore[attr-defined]
        while True:
            try:
                frame = _read_frame(self.rfile)
            except WireParseError:
                self._send(MSG_ERROR, b"frame too large")
                return  # stream cannot be trusted to stay in sync
            if frame is None:
                return
            msg_type, payload = frame
            if msg_type == MSG_HELLO:
                self._send(MSG_HELLO, encode_hello(db.params, db.K))
            elif msg_type == MSG_QUERY:
                try:
                    query = decode_query(payload, db.params, db.K)
                except WireParseError as exc:
                    self._send(MSG_ERROR, str(exc).encode("utf-8"))
                else:
                    # decode_query returns only well-formed queries, so the
                    # kernel answers without checking them a second time.
                    words = answer_words(db, query.idx, query.coef)
                    self._send(MSG_ANSWER, encode_answer(Answer(db.params, words)))
            else:
                self._send(MSG_ERROR, f"unexpected frame type 0x{msg_type:02x}".encode())

    def _send(self, msg_type: int, payload: bytes):
        self.wfile.write(encode_frame(msg_type, payload))
        self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        # Set before binding: a failed bind calls server_close, which reads them.
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        # Clients keep their connections open, so a closing server hangs up
        # on each: its handler threads end, and a stopped server answers
        # nothing more.
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client is already gone
        super().server_close()


class PirServer:
    """A database served over TCP.  Use as a context manager in tests:

        with PirServer(db, port=0) as srv:
            fetch(srv.address, query)
    """

    def __init__(self, db: Database, host: str = "127.0.0.1", port: int | None = None):
        if port is None:
            port = default_port()
        self._server = _TcpServer((host, port), _Handler)
        self._server.db = db  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "PirServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(db: Database, host: str = "127.0.0.1", port: int | None = None):
    """Serve until interrupted (blocking); the CLI wraps this."""
    server = PirServer(db, host, port)
    try:
        server._server.serve_forever()
    finally:
        server._server.server_close()


# Seconds a client waits to connect, and for each read or write.
_CLIENT_TIMEOUT = 10.0


class _Kept:
    """A connection a client thread keeps open: the server's address, the
    socket, and the reader its replies are parsed from.  It is closed when
    dropped, or when the thread that keeps it ends."""

    def __init__(self, addr: tuple[str, int], sock: socket.socket):
        self.addr, self.sock, self.rfile = addr, sock, sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    __del__ = close


class _Slot(threading.local):
    kept: _Kept | None = None  # the calling thread's connection


_slot = _Slot()


def _drop():
    """Close the calling thread's connection, if it has one."""
    kept, _slot.kept = _slot.kept, None
    if kept is not None:
        kept.close()


def _connect(addr: tuple[str, int]):
    _drop()
    sock = socket.create_connection(addr, timeout=_CLIENT_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _slot.kept = _Kept(addr, sock)


def _round_trip(frame: bytes) -> tuple[int, bytes]:
    """Send a frame on the calling thread's connection and read the reply.
    Any failure closes the connection, so a stream that may be out of step
    is never read again.  EOFError means the server hung up before a whole
    reply."""
    kept = _slot.kept
    try:
        kept.sock.sendall(frame)
        reply = _read_frame(kept.rfile)
        if reply is None:
            raise EOFError
        return reply
    except BaseException:
        _drop()
        raise


def _exchange(addr: tuple[str, int], msg_type: int, payload: bytes) -> tuple[int, bytes]:
    frame = encode_frame(msg_type, payload)
    if _slot.kept is not None and _slot.kept.addr == addr:
        try:
            return _round_trip(frame)
        except (EOFError, ConnectionResetError, BrokenPipeError):
            # The server closed the kept connection, most likely while it was
            # idle.  Requests are read-only, so the same bytes go once more,
            # on a fresh connection.
            pass
    _connect(addr)
    try:
        return _round_trip(frame)
    except EOFError:
        raise ProtocolError("server closed the connection before a whole reply") from None


def hello(addr: tuple[str, int]) -> tuple[FieldParams, int]:
    """Ask a server for its field parameters and message count, over the
    calling thread's connection to it."""
    reply_type, body = _exchange(addr, MSG_HELLO, b"")
    if reply_type != MSG_HELLO:
        _drop()
        raise ProtocolError(f"expected a hello reply, got type 0x{reply_type:02x}")
    return decode_hello(body)


def fetch(addr: tuple[str, int], query, params: FieldParams | None = None) -> Answer:
    """Send one query and return the decoded answer.  When params is omitted
    the server is asked for them first.  Both go over the calling thread's
    connection to addr, opened on first use and kept for the next call; a
    server's ERROR reply leaves it open."""
    if params is None:
        params, _ = hello(addr)
    reply_type, body = _exchange(addr, MSG_QUERY, encode_query(query, params))
    if reply_type == MSG_ERROR:
        raise ProtocolError(f"server rejected the query: {body.decode('utf-8', 'replace')}")
    if reply_type != MSG_ANSWER:
        _drop()
        raise ProtocolError(f"expected an answer, got type 0x{reply_type:02x}")
    return decode_answer(body, params)
