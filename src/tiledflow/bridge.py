"""Remote vector-field evaluation over a framed binary protocol (XFP1).

Frames are magic "XFP1", a u8 type (1 request / 2 response / 3 error),
a u64 request id, a u32 payload length, then the payload; everything is
little-endian.  One connection carries pipelined requests; responses
may return out of order and are matched by id.  An eval request holds
t, a mode byte (1 dense / 2 sparse), four u32 shape fields, opaque
condition bytes, and the float32 latent payload; the response carries
the float32 vector of identical shape.

Batch requests (mode 3) carry many evaluations in one frame: the same
head with the item count in shape[0], zero for the other shape fields
and an empty condition, then per item a u32 length and a mode 1 or 2
request with the head's t.  The response is one frame holding the
items' float32 vectors concatenated in item order.  A batch fails as a
whole: one error frame whose text starts "item N:" when item N is the
one that failed (the client reports it as a ProviderError with `item`
N).  Nested batches, a count the payload cannot hold, and an item whose
t differs from the head's get an error frame, and the connection stays
open.  The server unpacks a batch into one stacked DenseBatch or
SparseBatch, so its items must all be dense of one shape or all sparse
(sorted, unique coordinates); the first item that breaks this is the
failing item.  RemoteProvider packs every evaluation as a batch
straight from the stacked batch, with the bytes per-item packing gives,
and reads the reply as one stacked array; a server that predates mode 3
answers it with an "unknown eval mode 3" error frame.  Frames go out in
gathered writes, so both ends set TCP_NODELAY.

Stage sessions (modes 4 and 6) carry a window field without its
windows, and answer it with the merged field.  A register request
(mode 4) has shape (session id, K, d, kind), kind 1 a dense PatchGrid
and 2 a SparseWindowPlan; its condition section holds the grid's window
conditions in window order, each a u32 length and its bytes, and its
latent section is empty for a dense grid and, for a sparse plan, a u32
n and n x 3 u32 coordinates.  The server builds the layout on its own
Dims with the library's constructors and their checks (K is N or M and
d divides K, one condition per window, coordinates inside the grid,
sorted, unique and covered), keeps it for the session (a plan keeps
there whatever merge layout it builds), and answers with an empty
response.  A field request (mode 6) has shape (session id, 0, 0, 0), no
condition, and the global latent's float32 values: dense (aK, bK, K,
C), or sparse (n, l) in the registered coordinate order.  The server
checks its length, builds the global latent (whose constructor checks
that every value is finite), and answers with `layout_field` on the
session's layout, the engine's one check and merge of its provider's
`evaluate_windows`: the float32 field the client's merge would give,
dense (aK, bK, K, C) or sparse (n, l) in registered order, one value
per voxel and channel whatever the windows' overlap.  A served provider
that answers a layout whole (GlobalOracleProvider on its grid's or
plan's own conditions) takes that path, as in process, and any other
has its window-order reply merged on the server.  A failure that names
a window keeps its "item N:" text.  The client takes the reply as an
`AgreedField`, which its `layout_field` takes as the field.
Mode 5, which answered every window's vector in window order, is
retired: a server answers it with "unknown eval mode 5", and at d = 1,
where the two replies have one length, a peer of the other version
fails loudly instead of misreading one layout as the other.  A
connection holds at most MAX_SESSIONS sessions (a further registration
evicts the oldest), and they are dropped when it closes; a field
request naming any other id gets "unknown session N".  RemoteProvider
registers each layout once per connection under an id it never
reuses, waits for the acknowledgement, and then sends one mode-6 frame
per window field.  It registers anew, once, after "unknown session";
a peer without sessions answers "unknown eval mode 4", failing the field.

The server reads at most MAX_PIPELINED requests of one connection ahead
of its answers; then it stops reading until an answer is sent, and TCP
flow control holds the client back.  A payload is received into a
buffer that grows with the bytes that arrived, so a header alone
reserves no more than _RECV_CHUNK bytes.

Closing: the server answers every request it read before the client's
end of stream, and closes only once those answers are sent (or the
server stops).  A stream that cannot be framed (bad magic, unknown type,
oversize length) gets one type-3 frame with request id 0; the server
then half-closes, discards further input until the client's end of
stream (at most DRAIN_BYTES bytes or DRAIN_SECONDS seconds), and closes,
so unread input does not turn the close into a reset that could destroy
the error frame.
"""

from __future__ import annotations

import itertools
import math
import re
import socket
import struct
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import IncompleteFrameError, ProtocolError, ProviderError
from .flowcore import VectorFieldProvider, check_condition_count, evaluate_one, layout_field
from .lattice import (
    DTYPE,
    DenseBatch,
    DenseLatent,
    Dims,
    PatchBatch,
    SparseBatch,
    SparseLatent,
    batch_coords_problem,
    first_nonfinite_item,
)
from .patchwork import AgreedField, DilatedPartition, PatchGrid, SparseWindowPlan
from .priors import ConditionEmbedding

MAGIC = b"XFP1"
TYPE_REQUEST = 1
TYPE_RESPONSE = 2
TYPE_ERROR = 3

MODE_DENSE = 1
MODE_SPARSE = 2
MODE_BATCH = 3
MODE_REGISTER = 4
# Mode 5, the field request answered in window order, is retired.
MODE_FIELD = 6

MAX_PAYLOAD = 256 * 1024 * 1024
# Bounds on the input a server discards after a framing error before closing.
DRAIN_BYTES = 4 * 1024 * 1024
DRAIN_SECONDS = 2.0
# Requests of one connection the server holds at once (queued or being
# answered); beyond it the server stops reading, and TCP holds the client.
MAX_PIPELINED = 16
# Window layouts one connection holds; a further registration evicts the oldest.
MAX_SESSIONS = 4
# A payload is received into a buffer that starts at this size and at
# most doubles per step, so it grows only with the bytes that arrived.
_RECV_CHUNK = 1 << 20
_HEADER = struct.Struct("<4sBQI")
HEADER_SIZE = _HEADER.size

_REQ_HEAD = struct.Struct("<fB4II")  # t, mode, shape[4], condition_len
_U32 = struct.Struct("<I")
# Bounds on one gathered write (the kernel caps an iovec at 1024 buffers);
# the byte bound keeps few on-the-fly request parts alive at once.
_SEND_BUFFERS = 256
_SEND_BYTES = 1 << 20
_ITEM_ERROR = re.compile(r"item (\d+):")


@dataclass(frozen=True)
class Frame:
    type: int
    request_id: int
    payload: bytes | bytearray


@dataclass(frozen=True)
class EvalRequest:
    t: float
    mode: int
    shape: tuple[int, int, int, int]
    condition: bytes
    latent: bytes


def _frame_header(ftype: int, request_id: int, payload_len: int) -> bytes:
    if ftype not in (TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR):
        raise ProtocolError(f"unknown frame type {ftype}")
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {payload_len} bytes exceeds limit")
    return _HEADER.pack(MAGIC, ftype, request_id, payload_len)


def _parse_header(header) -> tuple[int, int, int]:
    """(type, request id, payload length) of the frame header at the
    head of `header`; ProtocolError when it cannot be framed."""
    magic, ftype, request_id, payload_len = _HEADER.unpack_from(header, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if ftype not in (TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR):
        raise ProtocolError(f"unknown frame type {ftype}")
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {payload_len} bytes exceeds limit")
    return ftype, request_id, payload_len


def encode_frame(frame: Frame) -> bytes:
    return _frame_header(frame.type, frame.request_id, len(frame.payload)) + frame.payload


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of `data`; returns (frame, consumed).

    Raises IncompleteFrameError when more bytes are needed (resumable)
    and ProtocolError on structural violations.
    """
    if len(data) < HEADER_SIZE:
        raise IncompleteFrameError(f"need {HEADER_SIZE} header bytes, have {len(data)}")
    ftype, request_id, payload_len = _parse_header(data)
    end = HEADER_SIZE + payload_len
    if len(data) < end:
        raise IncompleteFrameError(f"need {end} bytes, have {len(data)}")
    return Frame(ftype, request_id, bytes(data[HEADER_SIZE:end])), end


def encode_eval_request(req: EvalRequest) -> bytes:
    head = _REQ_HEAD.pack(req.t, req.mode, *req.shape, len(req.condition))
    return head + bytes(req.condition) + bytes(req.latent)


def _parse_head(payload) -> tuple:
    if len(payload) < _REQ_HEAD.size:
        raise ProtocolError(f"eval request header truncated at {len(payload)} bytes")
    return _REQ_HEAD.unpack_from(payload, 0)


def parse_eval_request(payload: bytes) -> EvalRequest:
    """One dense or sparse (mode 1 or 2) eval request."""
    t, mode, s0, s1, s2, s3, cond_len = _parse_head(payload)
    if mode not in (MODE_DENSE, MODE_SPARSE):
        raise ProtocolError(f"unknown eval mode {mode}")
    off = _REQ_HEAD.size
    if len(payload) < off + cond_len:
        raise ProtocolError("eval request condition truncated")
    condition = payload[off : off + cond_len]
    latent = payload[off + cond_len :]
    shape = (s0, s1, s2, s3)
    if mode == MODE_DENSE:
        count = s0 * s1 * s2 * s3
        if len(latent) != 4 * count:
            raise ProtocolError(
                f"dense latent payload is {len(latent)} bytes, expected {4 * count}"
            )
    else:
        n, l = s0, s1
        expected = 4 + n * (12 + 4 * l)
        if len(latent) != expected:
            raise ProtocolError(
                f"sparse latent payload is {len(latent)} bytes, expected {expected}"
            )
        (declared,) = _U32.unpack_from(latent, 0)
        if declared != n:
            raise ProtocolError(f"sparse count {declared} != shape count {n}")
    return EvalRequest(float(t), int(mode), shape, condition, latent)


def parse_request(payload) -> list[EvalRequest]:
    """The items of an eval request payload: itself for mode 1 or 2, the
    batch's items for mode 3.

    A batch head carries the item count in shape[0] and nothing else;
    each item is a u32 length and a mode 1 or 2 request with the head's
    t.  Items are memoryview slices of `payload`.
    """
    t, mode, count, s1, s2, s3, cond_len = _parse_head(payload)
    if mode != MODE_BATCH:
        return [parse_eval_request(payload)]
    if (s1, s2, s3, cond_len) != (0, 0, 0, 0):
        raise ProtocolError("batch head holds more than an item count")
    if count == 0:
        raise ProtocolError("empty batch")
    view = memoryview(payload).cast("B")
    off = _REQ_HEAD.size
    if count * (_U32.size + _REQ_HEAD.size) > len(view) - off:
        raise ProtocolError(f"batch of {count} items cannot fit in {len(view) - off} bytes")
    items = []
    for n in range(count):
        try:
            if len(view) - off < _U32.size:
                raise ProtocolError("length truncated")
            (size,) = _U32.unpack_from(view, off)
            off += _U32.size
            if size > len(view) - off:
                raise ProtocolError(f"{size} bytes declared, {len(view) - off} left")
            item = view[off : off + size]
            off += size
            if _parse_head(item)[1] == MODE_BATCH:
                raise ProtocolError("nested batch")
            req = parse_eval_request(item)
            if req.t != t:
                raise ProtocolError(f"t = {req.t} differs from the batch's {t}")
        except ProtocolError as exc:
            raise ProtocolError(f"item {n}: {exc}") from None
        items.append(req)
    if off != len(view):
        raise ProtocolError(f"{len(view) - off} bytes after the last batch item")
    return items


def _sparse_rows(coords: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Sparse wire rows, one uint8 row per entry: x, y, z as u32, then
    the features as f32."""
    n, l = features.shape
    rows = np.empty((n, 12 + 4 * l), dtype=np.uint8)
    if n:
        rows[:, :12] = coords.astype("<u4").view(np.uint8).reshape(n, 12)
        rows[:, 12:] = features.astype("<f4").view(np.uint8).reshape(n, 4 * l)
    return rows


def _batch_parts(batch: PatchBatch, conditions, t: float) -> tuple[int, Iterator]:
    """Size and buffers of the mode-3 request payload carrying `batch`,
    packed from its stacked arrays: after the batch head, per item one
    prefix (its u32 length, eval head, condition and, when sparse, row
    count), then its values as a view of the stack, or its wire rows,
    made while the frame is sent so that one item's rows exist at a
    time."""
    if isinstance(batch, DenseBatch):
        data = np.ascontiguousarray(batch.data, dtype="<f4")
        heads = [
            _REQ_HEAD.pack(t, MODE_DENSE, *data.shape[1:], len(c.data)) + c.data for c in conditions
        ]
        sizes = [data[0].nbytes] * len(heads)
        latents = (memoryview(values).cast("B") for values in data)
    else:
        l = batch.dims.l
        spans = list(zip(batch.bounds[:-1].tolist(), batch.bounds[1:].tolist()))
        heads = [
            _REQ_HEAD.pack(t, MODE_SPARSE, hi - lo, l, 0, 0, len(c.data)) + c.data + _U32.pack(hi - lo)
            for (lo, hi), c in zip(spans, conditions)
        ]
        sizes = [(hi - lo) * (12 + 4 * l) for lo, hi in spans]
        latents = (_sparse_rows(batch.coords[lo:hi], batch.features[lo:hi]).reshape(-1) for lo, hi in spans)

    def parts():
        yield _REQ_HEAD.pack(t, MODE_BATCH, len(heads), 0, 0, 0, 0)
        for head, size, latent in zip(heads, sizes, latents):
            yield _U32.pack(len(head) + size) + head
            yield latent

    return _REQ_HEAD.size + sum(map(len, heads)) + sum(sizes) + _U32.size * len(heads), parts()


def _register_parts(session: int, layout: PatchGrid | SparseWindowPlan, conditions) -> tuple[int, list]:
    """Size and buffers of the mode-4 request registering `layout` and
    its window conditions under `session`: the head (t 0, shape
    (session, K, d, kind)), each condition behind its u32 length, then,
    for a sparse plan, a u32 count and the coordinates as u32 triples."""
    sparse = isinstance(layout, SparseWindowPlan)
    grid = layout.grid if sparse else layout
    section = b"".join(_U32.pack(len(c.data)) + c.data for c in conditions)
    kind = MODE_SPARSE if sparse else MODE_DENSE
    parts = [_REQ_HEAD.pack(0.0, MODE_REGISTER, session, grid.K, grid.d, kind, len(section)), section]
    if sparse:
        parts += [_U32.pack(len(layout.coords)), np.ascontiguousarray(layout.coords, dtype="<u4")]
    return sum(memoryview(p).nbytes for p in parts), parts


def _parse_register(payload, dims: Dims) -> tuple[int, PatchGrid | SparseWindowPlan, tuple]:
    """(session, layout, conditions) of a mode-4 request, the layout
    built on `dims` by the library's constructors and their checks: K is
    N or M and d divides K, there is one condition per window, and a
    sparse plan's coordinates are inside the grid, sorted, unique and
    covered."""
    _, _, session, K, d, kind, cond_len = _parse_head(payload)
    if kind not in (MODE_DENSE, MODE_SPARSE):
        raise ProtocolError(f"unknown layout kind {kind}")
    grid = PatchGrid(dims, d, K)
    view = memoryview(payload).cast("B")
    off = _REQ_HEAD.size
    if cond_len > len(view) - off:
        raise ProtocolError("register condition section truncated")
    section, latent = view[off : off + cond_len], view[off + cond_len :]
    conditions, pos = [], 0
    while pos < len(section) and len(conditions) < grid.count:
        if len(section) - pos < _U32.size:
            raise ProtocolError(f"condition {len(conditions)}: length truncated")
        (size,) = _U32.unpack_from(section, pos)
        pos += _U32.size
        if size > len(section) - pos:
            raise ProtocolError(f"condition {len(conditions)}: {size} bytes declared, {len(section) - pos} left")
        conditions.append(ConditionEmbedding(bytes(section[pos : pos + size])))
        pos += size
    if len(conditions) != grid.count or pos != len(section):
        raise ProtocolError(f"register needs exactly one condition per window of {grid.count}")
    if kind == MODE_DENSE:
        if len(latent):
            raise ProtocolError("dense register carries no latent section")
        grid.check_fits(dims.dense_shape)
        return session, grid, tuple(conditions)
    if len(latent) < _U32.size or len(latent) != _U32.size + 12 * _U32.unpack_from(latent, 0)[0]:
        raise ProtocolError(f"sparse register latent section of {len(latent)} bytes is not a count and its coordinates")
    coords = np.frombuffer(latent, dtype="<u4", offset=_U32.size).reshape(-1, 3).astype(np.int64)
    problem = batch_coords_problem(dims, coords, np.array([0, len(coords)]))
    if problem is not None:
        raise ProtocolError(problem[1])
    return session, SparseWindowPlan(grid, coords), tuple(conditions)


def _field_parts(session: int, Z: DenseLatent | SparseLatent, t: float) -> tuple[int, list]:
    """Size and buffers of the mode-6 request evaluating `session`'s
    windows on Z: the head (shape (session, 0, 0, 0)), then Z's float32
    values, a dense lattice or the sparse rows in registered order."""
    values = np.ascontiguousarray(Z.values, dtype="<f4")
    head = _REQ_HEAD.pack(t, MODE_FIELD, session, 0, 0, 0, 0)
    return len(head) + values.nbytes, [head, values]


def _send_frame(sock: socket.socket, ftype: int, request_id: int, size: int, parts) -> None:
    """Send one frame whose payload is the `size` bytes of the buffers
    `parts` yields, in order.  The buffers are never joined: they go out
    in gathered writes of at most _SEND_BUFFERS buffers or about
    _SEND_BYTES bytes, so parts made on the fly are held one write at a
    time."""
    views = [memoryview(_frame_header(ftype, request_id, size))]
    queued = total = 0
    for part in parts:
        view = memoryview(part)
        if view.nbytes:  # a zero-size array of several dimensions cannot be cast
            view = view.cast("B")
            views.append(view)
            queued += len(view)
            total += len(view)
        if len(views) >= _SEND_BUFFERS or queued >= _SEND_BYTES:
            _send_views(sock, views)
            views, queued = [], 0
    _send_views(sock, views)
    if total != size:
        raise ProtocolError(f"frame payload of {total} bytes was declared as {size}")


def _send_views(sock: socket.socket, views: list) -> None:
    i = 0
    while i < len(views):
        sent = sock.sendmsg(views[i:])
        while i < len(views) and sent >= len(views[i]):
            sent -= len(views[i])
            i += 1
        if sent:
            views[i] = views[i][sent:]


def _no_delay(sock: socket.socket) -> None:
    """Frames go out in several writes; without this, Nagle's algorithm
    holds a frame's tail until the peer's delayed ACK."""
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _recv_exact(sock: socket.socket, count: int) -> bytearray:
    """The next `count` bytes of the stream.  The buffer starts at
    _RECV_CHUNK bytes and at most doubles once full, so a peer that
    declares a large payload holds only about twice what it sent."""
    buf = bytearray(min(count, _RECV_CHUNK))
    got = 0
    while got < count:
        if got == len(buf):
            buf += bytes(min(len(buf), count - got))
        with memoryview(buf) as view:
            n = sock.recv_into(view[got:])
        if not n:
            raise ConnectionError("connection closed by peer")
        got += n
    return buf


def _read_frame(sock: socket.socket) -> Frame:
    ftype, request_id, payload_len = _parse_header(_recv_exact(sock, HEADER_SIZE))
    return Frame(ftype, request_id, _recv_exact(sock, payload_len))


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ProviderError(f"endpoint must look like host:port, got {endpoint!r}")
    return host or "127.0.0.1", int(port)


class _RemoteError(ProviderError):
    """An error frame answering a request; `text` is its payload."""

    def __init__(self, message: str, text: str, item: int | None = None):
        super().__init__(message, item)
        self.text = text


class _Pending:
    __slots__ = ("event", "frame", "error")

    def __init__(self):
        self.event = threading.Event()
        self.frame: Frame | None = None
        self.error: Exception | None = None


class RemoteProvider(VectorFieldProvider):
    """VectorFieldProvider backed by an XFP1 peer.

    Safe for concurrent calls; requests are pipelined on one connection
    and matched to responses by request id.  Each `evaluate_batch` call
    is one mode-3 frame and `evaluate` is a batch of one.  A dilated
    field (`evaluate_windows` on a DilatedPartition) takes the default
    path: its gathered samples in one such batch.

    A window field (`evaluate_windows`) is one mode-6 frame on a stage
    session, answered with the merged field, which it returns as an
    `AgreedField`; the engine's `layout_field` takes it as the field,
    so the client neither holds a window-order reply nor builds a
    plan's merge layout.  The first call on a layout registers it and
    its conditions (mode 4) under a fresh id and waits for the
    acknowledgement.  The registry holds layouts by weak reference.  A
    session the peer has evicted is registered once more under a fresh
    id.  A peer without sessions ("unknown eval mode 4") fails the call.
    """

    def __init__(self, endpoint: str | socket.socket, timeout: float = 30.0):
        if isinstance(endpoint, socket.socket):
            self._sock = endpoint
        else:
            host, port = _parse_endpoint(endpoint)
            self._sock = socket.create_connection((host, port))
        _no_delay(self._sock)
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._send_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._pending_lock = threading.Lock()
        self._closed = False
        self._session_ids = itertools.count(1)
        # layout -> (conditions, session id), for layouts still alive
        self._sessions = weakref.WeakKeyDictionary()
        self._session_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self):
        try:
            while True:
                frame = _read_frame(self._sock)
                with self._pending_lock:
                    slot = self._pending.pop(frame.request_id, None)
                if slot is not None:
                    slot.frame = frame
                    slot.event.set()
        except Exception as exc:
            self._fail_all(exc)

    def _fail_all(self, exc: Exception):
        self._closed = True
        with self._pending_lock:
            slots = list(self._pending.values())
            self._pending.clear()
        for slot in slots:
            slot.error = exc
            slot.event.set()

    def evaluate(self, patch, condition, t):
        return evaluate_one(self, patch, condition, t)

    def evaluate_batch(self, batch, conditions, t):
        check_condition_count(batch, conditions)
        if not len(batch):
            return np.empty_like(batch.values)
        request_id, payload = self._exchange(*_batch_parts(batch, conditions, t))
        expected = 4 * batch.values.size
        if len(payload) != expected:
            raise ProtocolError(
                f"response {request_id}: payload {len(payload)} bytes != expected {expected}"
            )
        return np.frombuffer(payload, dtype="<f4").reshape(batch.values.shape)

    def evaluate_windows(self, Z, layout, conditions, t):
        """One mode-6 frame on the layout's session, answered with the
        merged field as an `AgreedField`; the default's one mode-3 batch
        for a dilated partition (a new one every step, so a session would
        not pay)."""
        if isinstance(layout, DilatedPartition):
            return super().evaluate_windows(Z, layout, conditions, t)
        session = self._session(layout, conditions, None)
        try:
            request_id, payload = self._exchange(*_field_parts(session, Z, t))
        except _RemoteError as exc:
            if not exc.text.startswith("unknown session"):
                raise
            session = self._session(layout, conditions, session)
            request_id, payload = self._exchange(*_field_parts(session, Z, t))
        shape = Z.values.shape
        expected = 4 * math.prod(shape)
        if len(payload) != expected:
            raise ProtocolError(f"response {request_id}: payload {len(payload)} bytes != expected {expected}")
        return AgreedField(np.frombuffer(payload, dtype="<f4").reshape(shape))

    def _session(self, layout, conditions, stale: int | None) -> int:
        """The id of this connection's session holding `layout` with
        `conditions`, registered under a fresh id when there is none or
        it is `stale`."""
        with self._session_lock:
            entry = self._sessions.get(layout)
            if entry is not None and entry[1] != stale and (entry[0] is conditions or entry[0] == tuple(conditions)):
                return entry[1]
            session = next(self._session_ids)
            self._exchange(*_register_parts(session, layout, conditions))
            self._sessions[layout] = (tuple(conditions), session)
            return session

    def _exchange(self, size: int, parts) -> tuple[int, bytearray]:
        """Send one request frame and wait for its response payload."""
        if self._closed:
            raise ProviderError("provider connection is closed")
        request_id = next(self._ids)
        slot = _Pending()
        with self._pending_lock:
            self._pending[request_id] = slot
        try:
            with self._send_lock:
                _send_frame(self._sock, TYPE_REQUEST, request_id, size, parts)
        except (OSError, ProtocolError) as exc:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ProviderError(f"send failed for request {request_id}: {exc}") from exc
        if not slot.event.wait(self.timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ProviderError(f"timeout waiting for response to request {request_id}")
        if slot.error is not None:
            raise ProviderError(f"connection failed for request {request_id}: {slot.error}")
        reply = slot.frame
        if reply.type == TYPE_ERROR:
            text = reply.payload.decode("utf-8", "replace")
            item = _ITEM_ERROR.match(text)
            raise _RemoteError(
                f"remote error for request {request_id}: {text}", text,
                item=int(item.group(1)) if item else None,
            )
        return request_id, reply.payload

    def close(self):
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class _Connection:
    """One accepted socket: serialized sends, a count of answers in
    flight, and its sessions (at most MAX_SESSIONS, oldest evicted)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        _no_delay(sock)
        self.send_lock = threading.Lock()
        self.idle = threading.Condition()
        self.in_flight = 0
        self.sessions: OrderedDict[int, tuple] = OrderedDict()
        self.sessions_lock = threading.Lock()

    def register(self, session: int, layout, conditions: tuple):
        with self.sessions_lock:
            if session in self.sessions:
                raise ProviderError(f"session {session} is already registered")
            while len(self.sessions) >= MAX_SESSIONS:
                self.sessions.popitem(last=False)
            self.sessions[session] = (layout, conditions)

    def session(self, session: int) -> tuple:
        """(layout, conditions) of a registered session."""
        with self.sessions_lock:
            entry = self.sessions.get(session)
        if entry is None:
            raise ProviderError(f"unknown session {session}")
        return entry

    def send(self, ftype: int, request_id: int, parts: list):
        try:
            with self.send_lock:
                _send_frame(self.sock, ftype, request_id, sum(memoryview(p).nbytes for p in parts), parts)
        except OSError:
            pass

    def send_error(self, request_id: int, text: str):
        self.send(TYPE_ERROR, request_id, [text.encode("utf-8")])

    def answer_started(self):
        with self.idle:
            self.in_flight += 1

    def answer_done(self):
        with self.idle:
            self.in_flight -= 1
            self.idle.notify_all()

    def drain(self):
        """Half-close, then discard input until EOF or a byte/time bound."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
            budget = DRAIN_BYTES
            deadline = time.monotonic() + DRAIN_SECONDS
            while budget > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self.sock.settimeout(remaining)
                chunk = self.sock.recv(min(budget, 65536))
                if not chunk:
                    return
                budget -= len(chunk)
        except OSError:
            pass


class ProviderServer:
    """Serves a VectorFieldProvider over XFP1.

    Handles concurrent requests per connection; responses go out as
    they complete, matched by request id.  A session's field request is
    answered through `layout_field`, the engine's own check and merge,
    with the merged field; the session's layout, and a plan's merge
    layout once built, stay on the server until the session is evicted
    or the connection closes.  Malformed payloads produce
    type-3 error frames and the connection survives; an unframeable
    stream (bad magic) gets one error frame and the connection closes,
    since resynchronization is impossible.

    Close contract: every request read before the client's end of
    stream is answered before the server closes the connection, so a
    client may send its requests and half-close.  After a framing error
    the server sends its one error frame, waits for the answers already
    in flight, half-closes, drains the input (bounded by DRAIN_BYTES and
    DRAIN_SECONDS) and closes.  stop() closes every connection at once,
    without waiting for answers in flight.
    """

    def __init__(self, provider: VectorFieldProvider, dims: Dims, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 8):
        self.provider = provider
        self.dims = dims
        self._listener = socket.create_server((host, port))
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._conns: set[_Connection] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def start(self):
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            conn = _Connection(sock)
            with self._lock:
                if self._stopping:
                    sock.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: _Connection):
        framing_lost = False
        try:
            while True:
                with conn.idle:
                    # stop() wakes this wait and shuts the socket down, so the read ends.
                    conn.idle.wait_for(lambda: conn.in_flight < MAX_PIPELINED or self._stopping)
                try:
                    frame = _read_frame(conn.sock)
                except ProtocolError as exc:
                    # Framing is lost; answer once, then drain and close.
                    conn.send_error(0, str(exc))
                    framing_lost = True
                    break
                except OSError:  # EOF, reset, or stop()
                    break
                if frame.type != TYPE_REQUEST:
                    conn.send_error(frame.request_id, f"expected request frame, got type {frame.type}")
                    continue
                conn.answer_started()
                try:
                    self._pool.submit(self._answer, conn, frame)
                except RuntimeError:  # the pool was shut down by stop()
                    conn.answer_done()
                    break
            with conn.idle:
                conn.idle.wait_for(lambda: not conn.in_flight or self._stopping)
            if framing_lost and not self._stopping:
                conn.drain()
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.sock.close()

    def _answer(self, conn: _Connection, frame: Frame):
        try:
            conn.send(TYPE_RESPONSE, frame.request_id, self._evaluate(conn, frame.payload))
        except Exception as exc:
            item = exc.item if isinstance(exc, ProviderError) else None
            conn.send_error(frame.request_id, str(exc) if item is None else f"item {item}: {exc}")
        finally:
            conn.answer_done()

    def _evaluate(self, conn: _Connection, payload) -> list[np.ndarray]:
        """The buffers answering a request: nothing for a registration,
        the merged field of a session's windows (`layout_field`, the
        engine's own check and merge), or the float32 vectors of a
        batch's items (`evaluate_batch`) in item order, as one buffer."""
        t, mode, session, s1, s2, s3, cond_len = _parse_head(payload)
        if mode == MODE_REGISTER:
            conn.register(*_parse_register(payload, self.dims))
            return []
        if mode == MODE_FIELD:
            if (s1, s2, s3, cond_len) != (0, 0, 0, 0):
                raise ProtocolError("field head holds more than a session id")
            layout, conditions = conn.session(session)
            Z = self._field_latent(layout, memoryview(payload)[_REQ_HEAD.size :])
            merged = layout_field(Z, layout, self.provider, conditions, t)
            return [np.ascontiguousarray(merged.values, dtype="<f4")]
        requests = parse_request(payload)
        batch = self._batch(requests)
        conditions = [ConditionEmbedding(bytes(req.condition)) for req in requests]
        values = np.asarray(self.provider.evaluate_batch(batch, conditions, requests[0].t))
        if values.shape != batch.values.shape:
            raise ProviderError(f"provider returned values of shape {values.shape}, expected {batch.values.shape}")
        return [np.ascontiguousarray(values, dtype="<f4")]

    def _field_latent(self, layout, latent: memoryview) -> DenseLatent | SparseLatent:
        """The global latent a mode-6 request carries on `layout`, once
        its length is checked; the latent constructors check that every
        value is finite."""
        sparse = isinstance(layout, SparseWindowPlan)
        shape = (len(layout.coords), self.dims.l) if sparse else self.dims.dense_shape
        if len(latent) != 4 * math.prod(shape):
            raise ProtocolError(f"field latent is {len(latent)} bytes, expected {4 * math.prod(shape)}")
        values = np.frombuffer(latent, dtype="<f4").reshape(shape).astype(DTYPE)  # aligned copy
        if sparse:
            return SparseLatent._on_checked_coords(self.dims, layout.coords, values)
        return DenseLatent(self.dims, values)

    def _batch(self, requests: list[EvalRequest]) -> PatchBatch:
        """The stacked batch of a request's items, unpacked straight from
        the payload: all dense of one cubic shape, or all sparse."""
        first = requests[0]
        for n, req in enumerate(requests):
            if req.mode != first.mode or (req.mode == MODE_DENSE and req.shape != first.shape):
                raise ProviderError("batch items must share one mode and dense shape", item=n)
        if first.mode == MODE_SPARSE:
            return self._sparse_batch(requests)
        k0, k1, k2, c = first.shape
        if k0 != k1 or k1 != k2:
            raise ProviderError(f"dense patch must be cubic, got {first.shape}", item=0)
        try:
            patch_dims = Dims(1, 1, k0, k0 * self.dims.ratio, c, self.dims.l)
        except Exception as exc:
            raise ProviderError(str(exc), item=0) from exc
        data = np.empty((len(requests),) + first.shape, dtype=DTYPE)
        for n, req in enumerate(requests):
            data[n] = np.frombuffer(req.latent, dtype="<f4").reshape(first.shape)
        item = first_nonfinite_item(data)
        if item is not None:
            raise ProviderError("dense latent contains non-finite entries", item=item)
        return DenseBatch._of_finite(patch_dims, data)

    def _sparse_batch(self, requests: list[EvalRequest]) -> SparseBatch:
        """Each item's rows are unpacked and checked while they are in
        cache, straight into the stacked coordinates and features."""
        l = self.dims.l
        patch_dims = self.dims.patch_dims()
        bounds = np.cumsum([0] + [req.shape[0] for req in requests])
        coords = np.empty((bounds[-1], 3), dtype=np.int64)
        features = np.empty((bounds[-1], l), dtype=DTYPE)
        for n, (req, lo, hi) in enumerate(zip(requests, bounds[:-1].tolist(), bounds[1:].tolist())):
            if req.shape[1] != l:
                raise ProviderError(f"sparse feature width {req.shape[1]} != {l}", item=n)
            rows = np.frombuffer(req.latent, dtype=np.uint8)[4:].reshape(hi - lo, 12 + 4 * l)
            coords[lo:hi] = rows[:, :12].view("<u4")
            features[lo:hi] = rows[:, 12:].view("<f4")
            problem = batch_coords_problem(patch_dims, coords[lo:hi], np.array([0, hi - lo]))
            if problem is not None:
                raise ProviderError(problem[1], item=n)
            if first_nonfinite_item(features[lo:hi]) is not None:
                raise ProviderError("sparse latent contains non-finite features", item=n)
        return SparseBatch._on_checked_coords(patch_dims, coords, features, bounds)

    def stop(self):
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
        try:
            # close() alone leaves a blocked accept() running on Linux,
            # still taking connections; shutdown() ends it.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for conn in conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            with conn.idle:
                conn.idle.notify_all()
        self._pool.shutdown(wait=False)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def serve_provider(provider: VectorFieldProvider, endpoint: str, dims: Dims, workers: int = 8):
    """Blocking serving loop (runs until the process is interrupted)."""
    host, port = _parse_endpoint(endpoint)
    server = ProviderServer(provider, dims, host=host, port=port, workers=workers)
    server.start()
    print(f"serving vector-field evaluations on {server.address}", flush=True)
    try:
        threading.Event().wait()
    finally:
        server.stop()
