import socket
import struct
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiledflow.bridge import (
    Frame,
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    MAX_PIPELINED,
    MAX_SESSIONS,
    MODE_BATCH,
    MODE_FIELD,
    MODE_REGISTER,
    ProviderServer,
    RemoteProvider,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    _Connection,
    _read_frame,
    decode_frame,
    encode_eval_request,
    encode_frame,
    EvalRequest,
    parse_eval_request,
    parse_request,
)
from tiledflow.errors import IncompleteFrameError, ProtocolError, ProviderError
from tiledflow.flowcore import (
    GlobalOracleProvider,
    OracleConditioner,
    VectorFieldProvider,
    dilated_field,
    extended_field,
    read_oracle_conditions,
)
from tiledflow.lattice import DenseLatent, Dims, SparseLatent, init_sparse_noise, stack_patches
from tiledflow.patchwork import (
    SparseWindowPlan,
    dilated_partition,
    make_patch_grid,
    merge_dense,
    patch_dense,
    patch_sparse,
)
from tiledflow.priors import ConditionEmbedding

from reference_copies import ZeroFieldProvider


DIMS = Dims(2, 2, 4, 8, C=1, l=3)


def random_dense(dims, seed):
    rng = np.random.default_rng(seed)
    return DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))


class TestFraming:
    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ftype = int(rng.choice([TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR]))
            rid = int(rng.integers(0, 2**63))
            payload = rng.bytes(int(rng.integers(0, 200)))
            frame = Frame(ftype, rid, payload)
            decoded, consumed = decode_frame(encode_frame(frame))
            assert decoded == frame
            assert consumed == HEADER_SIZE + len(payload)

    def test_magic_bytes(self):
        blob = encode_frame(Frame(TYPE_REQUEST, 1, b""))
        assert blob[:4] == bytes([0x58, 0x46, 0x50, 0x31])
        assert MAGIC == b"XFP1"

    def test_cut_mid_payload_is_incomplete(self):
        blob = encode_frame(Frame(TYPE_RESPONSE, 7, b"payload-bytes"))
        for cut in (0, 5, HEADER_SIZE, len(blob) - 1):
            with pytest.raises(IncompleteFrameError):
                decode_frame(blob[:cut])

    def test_bad_magic(self):
        blob = bytearray(encode_frame(Frame(TYPE_REQUEST, 1, b"x")))
        blob[0] = 0x59
        with pytest.raises(ProtocolError):
            decode_frame(bytes(blob))

    def test_unknown_type(self):
        blob = bytearray(encode_frame(Frame(TYPE_REQUEST, 1, b"x")))
        blob[4] = 99
        with pytest.raises(ProtocolError):
            decode_frame(bytes(blob))

    def test_oversize_payload_rejected(self):
        import struct

        header = struct.pack("<4sBQI", MAGIC, TYPE_REQUEST, 1, MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError):
            decode_frame(header)

    def test_decoder_never_reads_past_payload_len(self):
        a = encode_frame(Frame(TYPE_REQUEST, 1, b"abc"))
        b = encode_frame(Frame(TYPE_RESPONSE, 2, b"defg"))
        frame, consumed = decode_frame(a + b)
        assert frame.payload == b"abc"
        frame2, _ = decode_frame((a + b)[consumed:])
        assert frame2.payload == b"defg"


class TestEvalPayloads:
    def test_dense_round_trip(self):
        patch = random_dense(DIMS.patch_dims(), 1)
        req = EvalRequest(0.5, 1, patch.data.shape, b"cond", patch.data.tobytes())
        back = parse_eval_request(encode_eval_request(req))
        assert back == req

    def test_mode_validated(self):
        with pytest.raises(ProtocolError):
            parse_eval_request(encode_eval_request(EvalRequest(0.5, 9, (1, 1, 1, 1), b"", b"\x00" * 4)))

    def test_dense_payload_length_checked(self):
        req = EvalRequest(0.5, 1, (2, 2, 2, 1), b"", b"\x00" * 7)
        with pytest.raises(ProtocolError):
            parse_eval_request(encode_eval_request(req))


@pytest.fixture()
def oracle_server():
    target = random_dense(DIMS, 5)
    rng = np.random.default_rng(6)
    coords = np.argwhere(rng.random(DIMS.grid_shape) < 0.1)
    slat_target = init_sparse_noise(coords, DIMS, seed=7)
    provider = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
    server = ProviderServer(provider, DIMS).start()
    yield server, target, slat_target
    server.stop()


class TestRemoteProvider:
    def test_zero_echo_server(self):
        server = ProviderServer(ZeroFieldProvider(), DIMS).start()
        try:
            with RemoteProvider(server.address, timeout=10) as remote:
                Z = random_dense(DIMS, 8)
                grid = make_patch_grid(DIMS, 2, DIMS.N)
                out = extended_field(Z, 0.5, grid, remote, OracleConditioner())
                assert np.all(out.data == 0)
        finally:
            server.stop()

    def test_loopback_oracle_matches_in_process_bitwise(self, oracle_server):
        server, target, slat_target = oracle_server
        local = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        Z = random_dense(DIMS, 9)
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        with RemoteProvider(server.address, timeout=10) as remote:
            a = extended_field(Z, 0.7, grid, remote, OracleConditioner())
        b = extended_field(Z, 0.7, grid, local, OracleConditioner())
        assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_sparse_loopback_matches(self, oracle_server):
        server, _, slat_target = oracle_server
        local = GlobalOracleProvider(slat_target=slat_target)
        Z = slat_target.with_features(np.float32(0.5) * slat_target.features + 1)
        grid = make_patch_grid(DIMS, 2, DIMS.M)
        with RemoteProvider(server.address, timeout=10) as remote:
            a = extended_field(Z, 0.4, grid, remote, OracleConditioner())
        b = extended_field(Z, 0.4, grid, local, OracleConditioner())
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.features.view(np.uint32), b.features.view(np.uint32))

    def test_many_concurrent_requests(self, oracle_server):
        server, target, _ = oracle_server
        cond = OracleConditioner().window_condition(
            make_patch_grid(DIMS, 2, DIMS.N).window(0, 0)
        )
        with RemoteProvider(server.address, timeout=30) as remote:
            patches = [random_dense(DIMS.patch_dims(), 100 + i) for i in range(100)]
            results = [None] * 100

            def work(i):
                results[i] = remote.evaluate(patches[i], cond, 0.5)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(100)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            sub = target.data[:4, :4, :4]
            for i, out in enumerate(results):
                expected = (patches[i].data - sub) / np.float32(0.5)
                assert np.array_equal(out.data, expected)

    def test_error_frame_for_bad_request_connection_survives(self, oracle_server):
        server, _, _ = oracle_server
        sock = socket.create_connection(tuple(server.address.rsplit(":", 1)) if False else ("127.0.0.1", int(server.address.rsplit(":", 1)[1])))
        try:
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 42, b"not an eval request")))
            frame = _read_one_frame(sock)
            assert frame.type == TYPE_ERROR
            assert frame.request_id == 42
            # the same connection still answers a valid request
            patch = random_dense(DIMS.patch_dims(), 11)
            cond = OracleConditioner().window_condition(
                make_patch_grid(DIMS, 2, DIMS.N).window(0, 0)
            )
            req = EvalRequest(0.5, 1, patch.data.shape, cond.data, patch.data.tobytes())
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 43, encode_eval_request(req))))
            reply = _read_one_frame(sock)
            assert reply.type == TYPE_RESPONSE
            assert reply.request_id == 43
        finally:
            sock.close()

    def test_server_closing_mid_stream_raises_provider_error(self):
        class Hanging(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                time.sleep(5)
                return patch

        server = ProviderServer(Hanging(), DIMS).start()
        remote = RemoteProvider(server.address, timeout=20)
        patch = random_dense(DIMS.patch_dims(), 12)
        result = {}

        def work():
            try:
                remote.evaluate(patch, ConditionEmbedding(b""), 0.5)
            except ProviderError as exc:
                result["error"] = exc

        th = threading.Thread(target=work)
        th.start()
        time.sleep(0.3)
        server.stop()
        th.join(timeout=10)
        assert "error" in result
        remote.close()

    def test_timeout(self):
        class Sleepy(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                time.sleep(2)
                return patch

        server = ProviderServer(Sleepy(), DIMS).start()
        try:
            remote = RemoteProvider(server.address, timeout=0.2)
            with pytest.raises(ProviderError, match="timeout"):
                remote.evaluate(random_dense(DIMS.patch_dims(), 13), ConditionEmbedding(b""), 0.5)
            remote.close()
        finally:
            server.stop()

    def test_idle_connection_survives(self, oracle_server):
        server, _, _ = oracle_server
        with RemoteProvider(server.address, timeout=10) as remote:
            patch = random_dense(DIMS.patch_dims(), 14)
            cond = OracleConditioner().window_condition(
                make_patch_grid(DIMS, 2, DIMS.N).window(0, 0)
            )
            remote.evaluate(patch, cond, 0.5)
            time.sleep(0.5)  # idle, then reuse
            remote.evaluate(patch, cond, 0.5)

    def test_preconnected_socket_transport(self, oracle_server):
        # the client also accepts an already-open byte stream
        server, target, _ = oracle_server
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        with RemoteProvider(sock, timeout=10) as remote:
            patch = random_dense(DIMS.patch_dims(), 15)
            cond = OracleConditioner().window_condition(
                make_patch_grid(DIMS, 2, DIMS.N).window(0, 0)
            )
            out = remote.evaluate(patch, cond, 0.5)
            expected = (patch.data - target.data[:4, :4, :4]) / np.float32(0.5)
            assert np.array_equal(out.data, expected)


class TestConfigDrivenRemote:
    def test_build_provider_connects_and_runs(self, oracle_server, tmp_path):
        from tiledflow.fixtures import build_demo_scene
        from tiledflow.optim import AdamParams
        from tiledflow.pipeline import PipelineConfig, build_provider, generate_sparse_structure

        server, _, _ = oracle_server
        # rebuild a server around the demo scene's targets so the remote
        # oracle matches the prior being completed
        scene = build_demo_scene(DIMS)
        demo_server = ProviderServer(
            GlobalOracleProvider(ss_target=scene.ss_target, slat_target=scene.slat_target),
            DIMS,
        ).start()
        try:
            config = PipelineConfig(
                dims=DIMS,
                d=2,
                schedule_steps=6,
                n_iter=1,
                ss_adam=AdamParams(steps=0),
                slat_adam=AdamParams(steps=0),
                provider=f"remote:{demo_server.address}",
            )
            bundle = build_provider(config)
            try:
                coords = generate_sparse_structure(scene.prior, config, bundle)
            finally:
                bundle.close()
            assert np.array_equal(coords, scene.occ_target.coords())
        finally:
            demo_server.stop()


def _read_one_frame(sock):
    buf = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed")
        buf += chunk
        try:
            frame, _ = decode_frame(buf)
            return frame
        except IncompleteFrameError:
            continue


class TestServerFuzz:
    def test_random_and_mutated_frames_never_crash(self, oracle_server):
        server, target, _ = oracle_server
        rng = np.random.default_rng(20)
        host, port = server.address.rsplit(":", 1)
        address = (host, int(port))

        patch = random_dense(DIMS.patch_dims(), 21)
        cond = OracleConditioner().window_condition(
            make_patch_grid(DIMS, 2, DIMS.N).window(0, 0)
        )
        valid = encode_frame(
            Frame(TYPE_REQUEST, 1, encode_eval_request(
                EvalRequest(0.5, 1, patch.data.shape, cond.data, patch.data.tobytes())
            ))
        )

        def exchange(blob):
            sock = socket.create_connection(address)
            sock.settimeout(5)
            try:
                sock.sendall(blob)
                sock.shutdown(socket.SHUT_WR)  # EOF so truncated frames resolve fast
                try:
                    return _read_one_frame(sock)
                except (socket.timeout, ConnectionError, OSError):
                    return None
            finally:
                sock.close()

        error_frames = 0
        # 1000 random byte blobs
        for _ in range(1000):
            blob = rng.bytes(int(rng.integers(1, 120)))
            reply = exchange(blob)
            if reply is not None:
                assert reply.type == TYPE_ERROR
                error_frames += 1
        # 1000 single-byte mutations of a valid frame
        for _ in range(1000):
            blob = bytearray(valid)
            pos = int(rng.integers(0, len(blob)))
            blob[pos] = int(rng.integers(0, 256))
            reply = exchange(bytes(blob))
            if reply is not None and reply.type == TYPE_ERROR:
                error_frames += 1
        assert error_frames > 0
        # the server is still healthy afterwards
        reply = exchange(valid)
        assert reply is not None and reply.type == TYPE_RESPONSE


def _valid_request_blob(request_id):
    patch = random_dense(DIMS.patch_dims(), 30)
    cond = OracleConditioner().window_condition(make_patch_grid(DIMS, 2, DIMS.N).window(0, 0))
    req = EvalRequest(0.5, 1, patch.data.shape, cond.data, patch.data.tobytes())
    return encode_frame(Frame(TYPE_REQUEST, request_id, encode_eval_request(req)))


class TestConnectionClose:
    def _connect(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        sock.settimeout(5)
        return sock

    def test_request_then_half_close_is_answered(self):
        class Sleepy(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                time.sleep(0.2)  # the server reads the client's EOF first
                return patch

        server = ProviderServer(Sleepy(), DIMS).start()
        try:
            sock = self._connect(server)
            try:
                sock.sendall(_valid_request_blob(77))
                sock.shutdown(socket.SHUT_WR)
                reply = _read_one_frame(sock)
                assert reply.type == TYPE_RESPONSE
                assert reply.request_id == 77
            finally:
                sock.close()
        finally:
            server.stop()

    def test_framing_error_with_unread_input_closes_cleanly(self, oracle_server):
        server, _, _ = oracle_server
        sock = self._connect(server)
        try:
            header = bytearray(encode_frame(Frame(TYPE_REQUEST, 5, b"")))
            header[:4] = b"BAD!"
            sock.sendall(bytes(header) + bytes(range(100)))
            time.sleep(0.2)  # the server has read the header and answered by now
            sock.shutdown(socket.SHUT_WR)
            reply = _read_one_frame(sock)
            assert reply.type == TYPE_ERROR
            assert reply.request_id == 0
            assert sock.recv(65536) == b""  # clean EOF, not ECONNRESET
        finally:
            sock.close()

    def test_stopped_server_refuses_connections(self):
        server = ProviderServer(ZeroFieldProvider(), DIMS).start()
        host, port = server.address.rsplit(":", 1)
        time.sleep(0.1)  # let the accept loop block in accept()
        server.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), timeout=2)

    def test_stop_wakes_connection_waiting_on_answer(self):
        release = threading.Event()

        class Blocked(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                release.wait(10)
                return patch

        server = ProviderServer(Blocked(), DIMS).start()
        sock = self._connect(server)
        try:
            sock.sendall(_valid_request_blob(1))
            sock.shutdown(socket.SHUT_WR)  # the connection now waits on its answer
            time.sleep(0.2)
            assert len(server._conns) == 1
            server.stop()
            deadline = time.monotonic() + 2
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._conns
            assert sock.recv(65536) == b""
        finally:
            release.set()
            sock.close()

    def test_frame_read_after_stop_ends_connection_quietly(self):
        server = ProviderServer(ZeroFieldProvider(), DIMS)
        server.stop()  # the pool is shut down
        client, served = socket.socketpair()
        try:
            client.sendall(_valid_request_blob(3))
            client.shutdown(socket.SHUT_WR)
            server._serve_connection(_Connection(served))  # must not raise
            client.settimeout(5)
            assert client.recv(65536) == b""
        finally:
            client.close()


_REQ_HEAD = struct.Struct("<fB4II")  # t, mode, shape[4], condition_len (the XFP1 eval head)


def _dense_item(t, seed=30, window=(0, 0)):
    """A mode-1 eval request for one dense window of the d = 2 grid."""
    patch = random_dense(DIMS.patch_dims(), seed)
    cond = OracleConditioner().window_condition(make_patch_grid(DIMS, 2, DIMS.N).window(*window))
    return encode_eval_request(EvalRequest(t, 1, patch.data.shape, cond.data, patch.data.tobytes()))


def _batch(t, items, count=None):
    """A mode-3 payload: the batch head, then each item behind its u32 length."""
    body = b"".join(struct.pack("<I", len(item)) + item for item in items)
    return _REQ_HEAD.pack(t, MODE_BATCH, len(items) if count is None else count, 0, 0, 0, 0) + body


def _read_frames(sock, count):
    """The next `count` frames of the stream."""
    frames, buf = [], b""
    while len(frames) < count:
        try:
            frame, used = decode_frame(buf)
        except IncompleteFrameError:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed")
            buf += chunk
            continue
        frames.append(frame)
        buf = buf[used:]
    return frames


class TestBatch:
    def _connect(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        sock.settimeout(5)
        return sock

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_remote_fields_bit_equal_in_process(self, oracle_server, workers):
        server, target, slat_target = oracle_server
        local = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        cond = OracleConditioner()
        Z = random_dense(DIMS, 40)
        S = slat_target.with_features(np.float32(0.5) * slat_target.features + 1)
        dense_grid = make_patch_grid(DIMS, 2, DIMS.N)
        sparse_grid = make_patch_grid(DIMS, 2, DIMS.M)
        partition = dilated_partition(DIMS, DIMS.N, seed=1)

        def fields(provider):
            return (
                extended_field(Z, 0.7, dense_grid, provider, cond, workers).data,
                extended_field(S, 0.4, sparse_grid, provider, cond, workers).features,
                dilated_field(Z, 0.6, partition, provider, cond, workers).data,
            )

        with RemoteProvider(server.address, timeout=10) as remote:
            remote_fields = fields(remote)
        for a, b in zip(remote_fields, fields(local)):
            assert a.tobytes() == b.tobytes()

    def test_large_and_many_item_batches_round_trip(self):
        # Frames past the gathered-write bounds: 2.8 MB in 3 sparse items,
        # 1,201 buffers in 600 dense items.
        class Echo(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                return patch

        dims = Dims(1, 1, 8, 32, l=4)
        rng = np.random.default_rng(42)
        full = np.argwhere(np.ones(dims.grid_shape, dtype=bool))
        sparse = [init_sparse_noise(full, dims, seed=s) for s in range(3)]
        dense = [random_dense(dims, s) for s in range(600)]
        cond = ConditionEmbedding(rng.bytes(7))
        server = ProviderServer(Echo(), dims).start()
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        # a socket timeout and a small send buffer make sendmsg return short counts
        sock.settimeout(30)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
        try:
            with RemoteProvider(sock, timeout=30) as remote:
                for patches, values in ((sparse, lambda x: x.features), (dense, lambda x: x.data)):
                    batch = stack_patches(patches)
                    out = batch.with_values(remote.evaluate_batch(batch, [cond] * len(patches), 0.5))
                    assert [values(x).tobytes() for x in out] == [values(x).tobytes() for x in patches]
        finally:
            server.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_remote_failure_on_one_window_names_it(self, workers):
        class FailsAtOneWindow(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                if read_oracle_conditions([condition])["box"][0, :2].tolist() == [2, 2]:  # window (1, 1)
                    raise RuntimeError("boom")
                return patch.with_data(np.zeros_like(patch.data))

        server = ProviderServer(FailsAtOneWindow(), DIMS).start()
        try:
            with RemoteProvider(server.address, timeout=10) as remote:
                grid = make_patch_grid(DIMS, 2, DIMS.N)
                with pytest.raises(ProviderError, match=r"patch \(1, 1\): .*boom"):
                    extended_field(random_dense(DIMS, 41), 0.5, grid, remote, OracleConditioner(), workers)
                # the connection still serves a field without that window
                grid = make_patch_grid(DIMS, 1, DIMS.N)
                out = extended_field(random_dense(DIMS, 41), 0.5, grid, remote, OracleConditioner(), workers)
                assert not out.data.any()
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "payload,text",
        [
            (_batch(0.5, [_dense_item(0.5)], count=1000), "cannot fit"),
            (_batch(0.5, [_dense_item(0.5), _dense_item(0.5)])[:-3], "item 1"),
            (_batch(0.5, [_batch(0.5, [_dense_item(0.5)])]), "nested"),
            (_batch(0.5, [_dense_item(0.5), _dense_item(0.25)]), "item 1: t"),
        ],
        ids=["count-exceeds-payload", "truncated-item", "nested-batch", "t-mismatch"],
    )
    def test_malformed_batch_gets_one_error_frame(self, oracle_server, payload, text):
        server, _, _ = oracle_server
        sock = self._connect(server)
        try:
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 50, payload)))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_ERROR, 50)
            assert text in reply.payload.decode()
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 51, _batch(0.5, [_dense_item(0.5)]))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_RESPONSE, 51)
        finally:
            sock.close()

    def test_single_patch_request_still_answered(self, oracle_server):
        server, target, _ = oracle_server
        sock = self._connect(server)
        try:
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 60, _dense_item(0.5, seed=61))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_RESPONSE, 60)
            patch = random_dense(DIMS.patch_dims(), 61)
            expected = (patch.data - target.data[:4, :4, :4]) / np.float32(0.5)
            assert reply.payload == expected.astype("<f4").tobytes()
        finally:
            sock.close()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        t=st.just(0.5) | st.floats(width=32),  # 0.5 is the valid items' t
        count=st.integers(0, 6) | st.integers(0, 2**32 - 1),
        rest=st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 3)]),
        items=st.lists(
            st.binary(max_size=64)
            | st.sampled_from([_dense_item(0.5), _batch(0.5, [_dense_item(0.5)])])
            | st.tuples(st.integers(0, 400), st.integers(0, 255)).map(
                lambda m: bytes(_mutate(_dense_item(0.5), *m))
            ),
            max_size=4,
        ),
        prefixed=st.booleans(),
        tail=st.binary(max_size=16),
    )
    # a second item whose u32 length is cut short
    @example(t=0.5, count=2, rest=(0, 0, 0, 0), items=[_dense_item(0.5)], prefixed=True, tail=b"\x01")
    def test_parser_maps_any_batch_payload_to_protocol_error(self, t, count, rest, items, prefixed, tail):
        body = b"".join(struct.pack("<I", len(i)) + i if prefixed else i for i in items)
        payload = _REQ_HEAD.pack(t, MODE_BATCH, count, *rest) + body + tail
        try:
            requests = parse_request(payload)
        except ProtocolError:
            return
        assert len(requests) == count and all(r.mode in (1, 2) for r in requests)


def _mutate(blob, pos, value):
    out = bytearray(blob)
    out[pos % len(out)] = value
    return out


class TestPipelineBound:
    def _blocked_server(self):
        release = threading.Event()
        lock = threading.Lock()
        seen = {"now": 0, "max": 0}

        class Blocking(VectorFieldProvider):
            def evaluate(self, patch, condition, t):
                with lock:
                    seen["now"] += 1
                    seen["max"] = max(seen["max"], seen["now"])
                release.wait(10)
                with lock:
                    seen["now"] -= 1
                return patch

        # more pool threads than the bound, so only the bound can hold requests back
        server = ProviderServer(Blocking(), DIMS, workers=MAX_PIPELINED + 5).start()
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        sock.settimeout(5)
        total = MAX_PIPELINED + 5
        sock.sendall(b"".join(_valid_request_blob(i) for i in range(1, total + 1)))
        deadline = time.monotonic() + 5
        while seen["now"] < MAX_PIPELINED and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # time enough for the reader to take more, were it not held
        return server, sock, release, seen, total

    def test_reader_holds_at_bound_and_answers_all(self):
        server, sock, release, seen, total = self._blocked_server()
        try:
            assert seen["now"] == MAX_PIPELINED
            release.set()
            frames = _read_frames(sock, total)
            assert sorted(f.request_id for f in frames) == list(range(1, total + 1))
            assert all(f.type == TYPE_RESPONSE for f in frames)
            assert seen["max"] == MAX_PIPELINED
        finally:
            release.set()
            sock.close()
            server.stop()

    def test_stop_wakes_reader_held_at_bound(self):
        server, sock, release, seen, _ = self._blocked_server()
        try:
            assert seen["now"] == MAX_PIPELINED
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 1
            deadline = time.monotonic() + 2
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._conns
        finally:
            release.set()
            sock.close()


class EvaluateOnly(VectorFieldProvider):
    """Delegates `evaluate` only, as a timing or tracing wrapper does, so
    batches reach it through the default per-item loop.  With
    `poison = k`, the k-th evaluation answers a well-formed reply of NaNs
    in a plain namespace (a latent type would refuse to hold them)."""

    def __init__(self, inner, poison=None):
        self.inner = inner
        self.poison = poison
        self.evals = 0
        self.lock = threading.Lock()

    def evaluate(self, patch, condition, t):
        vector = self.inner.evaluate(patch, condition, t)
        with self.lock:
            self.evals += 1
            poison = self.evals == self.poison
        if poison:
            values = vector.features if hasattr(vector, "features") else vector.data
            return SimpleNamespace(data=np.full_like(values, np.nan))
        return vector


def _stacked_fields(provider, target, slat_target, workers):
    """Dense, sparse and dilated fields of one provider, as bytes."""
    cond = OracleConditioner()
    Z = random_dense(DIMS, 41)
    S = slat_target.with_features(np.float32(0.25) * slat_target.features - 1)
    return (
        extended_field(Z, 0.7, make_patch_grid(DIMS, 2, DIMS.N), provider, cond, workers).data.tobytes(),
        extended_field(S, 0.4, make_patch_grid(DIMS, 2, DIMS.M), provider, cond, workers).features.tobytes(),
        dilated_field(Z, 0.6, dilated_partition(DIMS, DIMS.N, seed=2), provider, cond, workers).data.tobytes(),
    )


class TestEvaluateOnlyProvider:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fallback_fields_bit_equal_in_process_and_remote(self, oracle_server, workers):
        server, target, slat_target = oracle_server
        oracle = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        expected = _stacked_fields(oracle, target, slat_target, workers)
        assert _stacked_fields(EvaluateOnly(oracle), target, slat_target, workers) == expected
        wrapped = ProviderServer(EvaluateOnly(oracle), DIMS).start()
        try:
            with RemoteProvider(wrapped.address, timeout=10) as remote:
                assert _stacked_fields(remote, target, slat_target, workers) == expected
                # and the client side of the wrapper: per-item frames
                assert _stacked_fields(EvaluateOnly(remote), target, slat_target, workers) == expected
        finally:
            wrapped.stop()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_poisoned_reply_fails_on_the_client(self, oracle_server, sparse):
        _, target, slat_target = oracle_server
        oracle = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        grid = make_patch_grid(DIMS, 2, DIMS.M if sparse else DIMS.N)
        Z = slat_target if sparse else random_dense(DIMS, 42)
        with pytest.raises(ProviderError, match=r"non-finite values for patch \(1, 0\)"):
            extended_field(Z, 0.5, grid, EvaluateOnly(oracle, poison=4), OracleConditioner())
        server = ProviderServer(EvaluateOnly(oracle, poison=4), DIMS).start()
        try:
            with RemoteProvider(server.address, timeout=10) as remote:
                with pytest.raises(ProviderError, match=r"non-finite values for patch \(1, 0\)"):
                    extended_field(Z, 0.5, grid, remote, OracleConditioner())
                # the connection survives; the next call is clean
                extended_field(Z, 0.5, grid, remote, OracleConditioner())
        finally:
            server.stop()


def _sparse_item(coords, t=0.5):
    """A mode-2 eval request for window (0, 0) of the fine d = 2 grid,
    with the given coordinates in the given order."""
    rows = b"".join(struct.pack("<3I3f", *c, 1.0, 2.0, 3.0) for c in coords)
    cond = OracleConditioner().window_condition(make_patch_grid(DIMS, 2, DIMS.M).window(0, 0))
    latent = struct.pack("<I", len(coords)) + rows
    return encode_eval_request(EvalRequest(t, 2, (len(coords), DIMS.l, 0, 0), cond.data, latent))


class TestStackedServer:
    @pytest.mark.parametrize(
        "items,text",
        [
            ([_dense_item(0.5), _sparse_item([(0, 0, 0)])], "item 1: batch items must share"),
            ([_sparse_item([(0, 0, 0)]), _sparse_item([(0, 0, 2), (0, 0, 1)])], "item 1: coordinates are not sorted"),
            ([_sparse_item([(0, 0, 99)])], "item 0: coordinate (0, 0, 99) outside grid"),
        ],
        ids=["mixed-modes", "unsorted-coordinates", "coordinate-outside"],
    )
    def test_batch_the_server_cannot_stack_names_its_item(self, oracle_server, items, text):
        server, _, _ = oracle_server
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 70, _batch(0.5, items))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_ERROR, 70)
            assert reply.payload.decode().startswith(text)
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 71, _batch(0.5, [_sparse_item([(0, 0, 1)])]))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id, len(reply.payload)) == (TYPE_RESPONSE, 71, 4 * DIMS.l)


class TestStackedWireBytes:
    """The stacked client and server put the same XFP1 mode-3 bytes on the
    wire as the per-latent code before them; the digests were taken from
    that code on these inputs."""

    GOLDEN = {
        ("dense", "request"): (1687, "9a531d7d5bf47267dfdab5d34f68780beafd0abaf9e44f37171d4840ebbe6ebc"),
        ("dense", "reply"): (1536, "90fc83176781c56ef7a0ff00a530907479d299ee524d9e7232db9ef985a08747"),
        ("sparse", "request"): (5443, "09da75063bd22209c70dff5c957aa38f72a7e7eea2b969339110e1663bc8196f"),
        ("sparse", "reply"): (2640, "67bf5344430f924de8cf94f3ff57a7e123bbcf7793f9c691ad263646aa0dd8e6"),
    }

    @staticmethod
    def _scene():
        dims = Dims(2, 2, 4, 8, C=2, l=3)
        shape = dims.dense_shape
        count = int(np.prod(shape))
        Z = DenseLatent(dims, np.arange(count, dtype=np.float32).reshape(shape) * np.float32(0.25) - 7)
        T = DenseLatent(dims, np.cos(np.arange(count, dtype=np.float32)).reshape(shape))
        g = np.indices(dims.grid_shape).reshape(3, -1).T
        coords = g[(g[:, 0] + 2 * g[:, 1] + 3 * g[:, 2]) % 7 == 0]
        rows = np.arange(len(coords) * 3, dtype=np.float32).reshape(-1, 3)
        S = SparseLatent(dims, coords, (rows - 40) * np.float32(0.125))
        ST = SparseLatent(dims, coords, np.sin(rows.reshape(-1)).reshape(-1, 3))
        return dims, Z, T, S, ST

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_three_window_batch_bytes_unchanged(self, kind):
        import hashlib

        dims, Z, T, S, ST = self._scene()
        grid = make_patch_grid(dims, 2, dims.N if kind == "dense" else dims.M)
        windows = grid.windows()[:3]
        patches = [patch_dense(Z, w) if kind == "dense" else patch_sparse(S, w) for w in windows]
        conditions = [OracleConditioner().window_condition(w) for w in windows]
        oracle = GlobalOracleProvider(ss_target=T, slat_target=ST)
        server = ProviderServer(oracle, dims).start()
        host, port = server.address.rsplit(":", 1)
        client_end, relay_end = socket.socketpair()
        seen = {}

        def relay():
            # records the request, forwards it to the server, records and returns the reply
            frame = _read_frame(relay_end)
            seen["request"] = bytes(frame.payload)
            with socket.create_connection((host, int(port))) as upstream:
                upstream.sendall(encode_frame(frame))
                reply = _read_frame(upstream)
            seen["reply"] = bytes(reply.payload)
            relay_end.sendall(encode_frame(reply))

        thread = threading.Thread(target=relay)
        thread.start()
        try:
            batch = stack_patches(patches)
            with RemoteProvider(client_end, timeout=10) as remote:
                values = remote.evaluate_batch(batch, conditions, 0.5)
            thread.join(10)
        finally:
            server.stop()
            relay_end.close()
        assert values.tobytes() == oracle.evaluate_batch(batch, conditions, 0.5).tobytes()
        for part in ("request", "reply"):
            length, digest = self.GOLDEN[(kind, part)]
            assert (len(seen[part]), hashlib.sha256(seen[part]).hexdigest()) == (length, digest)

    # Stage sessions on the same scene, whole 3 x 3 window grids: the
    # mode-4 registration, the mode-5 request and its reply, which is
    # mode 3's reply layout for all nine windows.
    SESSION_GOLDEN = {
        ("dense", "register"): (178, "3b273fb6e2ea95951c17798b7ab1db90a726ca86d78ce8f28491b96372193e19"),
        ("dense", "field"): (2073, "bc4884769f2b43041dc804c280b26f29651b42c1cfaf7c39837d6c87a37d07c8"),
        ("dense", "reply"): (4608, "f935068b8220714faf17f54cd7fa8d000aa7f46319516c487d47712f136f1748"),
        ("sparse", "register"): (3698, "6a2b7075317ceb836ffd0cb55353af1ea90a76aaddf73c8fb74b350f9d5e0f4d"),
        ("sparse", "field"): (3541, "a224dc415258219124f890328a5eabcbc774e51840277b55c25376d1a612b309"),
        ("sparse", "reply"): (7896, "0ba8436c9e5a1b3517804007355381cc34e06bb2cbb163c656ebb3bd42139569"),
    }

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_session_bytes_pinned(self, kind):
        import hashlib

        dims, Z, T, S, ST = self._scene()
        grid = make_patch_grid(dims, 2, dims.N if kind == "dense" else dims.M)
        oracle = GlobalOracleProvider(ss_target=T, slat_target=ST)
        server = ProviderServer(oracle, dims).start()
        relay = _Relay(server)
        try:
            with RemoteProvider(relay.client, timeout=10) as remote:
                field = extended_field(Z if kind == "dense" else S, 0.5, grid, remote, OracleConditioner())
        finally:
            relay.close()
            server.stop()
        expected = extended_field(Z if kind == "dense" else S, 0.5, grid, oracle, OracleConditioner())
        values = (lambda X: X.data) if kind == "dense" else (lambda X: X.features)
        assert values(field).tobytes() == values(expected).tobytes()
        register, request = relay.requests
        seen = {"register": register.payload, "field": request.payload, "reply": relay.replies[1].payload}
        # the layout of those bytes, spelled out
        latent = Z.data if kind == "dense" else S.features
        conditions = [OracleConditioner().window_condition(w) for w in grid.windows()]
        section = b"".join(struct.pack("<I", len(c.data)) + c.data for c in conditions)
        coords = b"" if kind == "dense" else struct.pack("<I", len(S)) + S.coords.astype("<u4").tobytes()
        head = _REQ_HEAD.pack(0.0, MODE_REGISTER, 1, grid.K, 2, 1 if kind == "dense" else 2, len(section))
        assert seen["register"] == head + section + coords
        assert seen["field"] == _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 0, 0, 0) + latent.tobytes()
        patches = [patch_dense(Z, w) if kind == "dense" else patch_sparse(S, w) for w in grid.windows()]
        assert seen["reply"] == oracle.evaluate_batch(stack_patches(patches), conditions, 0.5).tobytes()
        for part, payload in seen.items():
            assert (len(payload), hashlib.sha256(payload).hexdigest()) == self.SESSION_GOLDEN[(kind, part)]


class TestBoundedReceive:
    def test_header_alone_pins_no_payload_buffer(self):
        import tracemalloc

        sender, receiver = socket.socketpair()
        try:
            sender.sendall(struct.pack("<4sBQI", MAGIC, TYPE_REQUEST, 1, 64 << 20) + bytes(1024))
            sender.close()
            tracemalloc.start()
            try:
                with pytest.raises(ConnectionError):
                    _read_frame(receiver)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            receiver.close()
        assert peak < 4 << 20

    def test_payloads_past_the_first_buffer_arrive_whole(self):
        sender, receiver = socket.socketpair()
        payload = np.random.default_rng(3).bytes(5 * (1 << 20) + 7)
        thread = threading.Thread(target=sender.sendall, args=(encode_frame(Frame(TYPE_RESPONSE, 4, payload)),))
        thread.start()
        try:
            frame = _read_frame(receiver)
        finally:
            thread.join(10)
            sender.close()
            receiver.close()
        assert (frame.type, frame.request_id, bytes(frame.payload)) == (TYPE_RESPONSE, 4, payload)


class _Relay:
    """Forwards XFP1 frames between a client on `self.client` (one end of
    a socketpair) and `server`, recording both directions.  `answer(frame)`
    may return a reply to send the client instead of forwarding the
    request."""

    def __init__(self, server, answer=None):
        self.client, self._end = socket.socketpair()
        host, port = server.address.rsplit(":", 1)
        self._up = socket.create_connection((host, int(port)))
        self._answer = answer
        self._lock = threading.Lock()
        self.requests, self.replies = [], []
        self._threads = [threading.Thread(target=f, daemon=True) for f in (self._forward, self._back)]
        for thread in self._threads:
            thread.start()

    def _to_client(self, frame):
        with self._lock:
            self._end.sendall(encode_frame(frame))

    def _forward(self):
        try:
            while True:
                frame = _read_frame(self._end)
                self.requests.append(frame)
                reply = self._answer(frame) if self._answer else None
                if reply is None:
                    self._up.sendall(encode_frame(frame))
                else:
                    self._to_client(reply)
        except OSError:
            pass
        finally:
            self._up.shutdown(socket.SHUT_WR)

    def _back(self):
        try:
            while True:
                frame = _read_frame(self._up)
                self.replies.append(frame)
                self._to_client(frame)
        except OSError:
            pass

    def modes(self):
        return [_REQ_HEAD.unpack_from(f.payload)[1] for f in self.requests]

    def close(self):
        for thread in self._threads:
            thread.join(10)
        self._end.close()
        self._up.close()


class TestSessions:
    def _connect(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        sock.settimeout(5)
        return sock

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_window_field_is_one_frame_after_one_registration(self, oracle_server, workers):
        server, target, slat_target = oracle_server
        local = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        cond = OracleConditioner()
        Z = random_dense(DIMS, 43)
        S = slat_target.with_features(np.float32(0.75) * slat_target.features + 2)
        dense_grid, sparse_grid = make_patch_grid(DIMS, 2, DIMS.N), make_patch_grid(DIMS, 2, DIMS.M)
        plan = SparseWindowPlan(sparse_grid, S.coords)

        def fields(provider):
            return [
                extended_field(Z, t, dense_grid, provider, cond, workers).data.tobytes()
                + extended_field(S, t, sparse_grid, provider, cond, workers, plan).features.tobytes()
                for t in (0.7, 0.3)
            ]

        relay = _Relay(server)
        try:
            with RemoteProvider(relay.client, timeout=10) as remote:
                assert fields(remote) == fields(local)
        finally:
            relay.close()
        assert relay.modes() == [MODE_REGISTER, MODE_FIELD, MODE_REGISTER, MODE_FIELD, MODE_FIELD, MODE_FIELD]

    def test_concurrent_fields_register_each_layout_once(self, oracle_server):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        server, target, slat_target = oracle_server
        local = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        cond = OracleConditioner()
        Z = random_dense(DIMS, 46)
        dense_grid, sparse_grid = make_patch_grid(DIMS, 2, DIMS.N), make_patch_grid(DIMS, 2, DIMS.M)
        plan = SparseWindowPlan(sparse_grid, slat_target.coords)

        def field(provider, n):
            if n % 2:
                return extended_field(slat_target, 0.5, sparse_grid, provider, cond, plan=plan).features.tobytes()
            return extended_field(Z, 0.5, dense_grid, provider, cond).data.tobytes()

        expected = [field(local, n) for n in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        relay = _Relay(server)
        try:
            with RemoteProvider(relay.client, timeout=10) as remote:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(lambda n: field(remote, n), range(32)))
        finally:
            sys.setswitchinterval(interval)
            relay.close()
        assert results == [expected[n % 2] for n in range(32)]
        modes = relay.modes()
        assert (modes.count(MODE_REGISTER), modes.count(MODE_FIELD)) == (2, 32)

    def test_peer_without_sessions_gets_batches_for_the_connection(self, oracle_server):
        server, target, slat_target = oracle_server
        oracle = GlobalOracleProvider(ss_target=target, slat_target=slat_target)

        def as_parent_server(frame):
            # the error frame a server that predates sessions answers mode 4 with
            if _REQ_HEAD.unpack_from(frame.payload)[1] == MODE_REGISTER:
                return Frame(TYPE_ERROR, frame.request_id, b"unknown eval mode 4")
            return None

        for workers in (1, 2):
            expected = _stacked_fields(oracle, target, slat_target, workers)
            relay = _Relay(server, as_parent_server)
            try:
                with RemoteProvider(relay.client, timeout=10) as remote:
                    assert _stacked_fields(remote, target, slat_target, workers) == expected
                    assert _stacked_fields(remote, target, slat_target, workers) == expected
            finally:
                relay.close()
            modes = relay.modes()
            assert modes.count(MODE_REGISTER) == 1 and MODE_FIELD not in modes
            # three fields, each in `workers` batches, twice
            assert modes.count(MODE_BATCH) == 2 * 3 * workers

    def test_registration_beyond_the_bound_evicts_the_oldest(self, oracle_server):
        server, target, _ = oracle_server
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        conditions = [OracleConditioner().window_condition(w).data for w in grid.windows()]
        section = b"".join(struct.pack("<I", len(c)) + c for c in conditions)
        Z = random_dense(DIMS, 44)
        field = lambda session: _REQ_HEAD.pack(0.5, MODE_FIELD, session, 0, 0, 0, 0) + Z.data.tobytes()
        sock = self._connect(server)
        try:
            for session in range(1, MAX_SESSIONS + 2):
                register = _REQ_HEAD.pack(0.0, MODE_REGISTER, session, DIMS.N, 2, 1, len(section)) + section
                sock.sendall(encode_frame(Frame(TYPE_REQUEST, session, register)))
                (reply,) = _read_frames(sock, 1)
                assert (reply.type, reply.request_id, reply.payload) == (TYPE_RESPONSE, session, b"")
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 100, field(1))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_ERROR, 100)
            assert reply.payload.decode() == "unknown session 1"
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 101, field(MAX_SESSIONS + 1))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_RESPONSE, 101)
            expected = extended_field(Z, 0.5, grid, GlobalOracleProvider(ss_target=target), OracleConditioner())
            values = np.frombuffer(reply.payload, dtype="<f4").reshape(grid.count, 4, 4, 4, 1)
            assert merge_dense(values, grid).data.tobytes() == expected.data.tobytes()
            sock.sendall(_valid_request_blob(102))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_RESPONSE, 102)
        finally:
            sock.close()

    def test_evicted_session_is_registered_again(self, oracle_server):
        server, target, slat_target = oracle_server
        local = GlobalOracleProvider(ss_target=target, slat_target=slat_target)
        cond = OracleConditioner()
        Z = random_dense(DIMS, 45)
        grids = [make_patch_grid(DIMS, d, DIMS.N) for d in (1, 2, 4)]
        grids += [make_patch_grid(DIMS, d, DIMS.M) for d in (1, 2, 4)]
        plans = [SparseWindowPlan(g, slat_target.coords) for g in grids[3:]]

        def fields(provider):
            out = [extended_field(Z, 0.5, g, provider, cond).data.tobytes() for g in grids[:3]]
            out += [extended_field(slat_target, 0.5, p.grid, provider, cond, plan=p).features.tobytes() for p in plans]
            out.append(extended_field(Z, 0.5, grids[0], provider, cond).data.tobytes())
            return out

        relay = _Relay(server)
        try:
            with RemoteProvider(relay.client, timeout=10) as remote:
                assert fields(remote) == fields(local)
        finally:
            relay.close()
        # six layouts, then the first again: its session was evicted, so
        # the field is refused once and the layout registered anew
        assert relay.modes() == [MODE_REGISTER, MODE_FIELD] * 6 + [MODE_FIELD, MODE_REGISTER, MODE_FIELD]
        (refused,) = [f for f in relay.replies if f.request_id == relay.requests[-3].request_id]
        assert refused.type == TYPE_ERROR and refused.payload.decode() == "unknown session 1"

    @pytest.mark.parametrize(
        "layout,text",
        [
            (("dense", DIMS.N, 3), "division factor d=3 must divide K=4"),
            (("dense", 5, 1), "K=5 must be one of N=4, M=8"),
            (("dense", DIMS.M, 2), "exceed lattice"),
            (("sparse-unsorted", DIMS.M, 2), "not sorted"),
            (("sparse-uncovered", DIMS.N, 2), "not covered"),
            (("conditions", DIMS.N, 2), "one condition per window"),
        ],
    )
    def test_bad_registration_gets_an_error_frame(self, oracle_server, layout, text):
        server, _, slat_target = oracle_server
        kind, K, d = layout
        count = ((DIMS.a - 1) * d + 1) * ((DIMS.b - 1) * d + 1)
        conditions = [b"c"] * (count - (kind == "conditions"))
        section = b"".join(struct.pack("<I", len(c)) + c for c in conditions)
        latent = b""
        if kind.startswith("sparse"):
            coords = slat_target.coords[::-1] if kind == "sparse-unsorted" else slat_target.coords
            latent = struct.pack("<I", len(coords)) + coords.astype("<u4").tobytes()
        payload = _REQ_HEAD.pack(0.0, MODE_REGISTER, 1, K, d, 2 if latent else 1, len(section)) + section + latent
        sock = self._connect(server)
        try:
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 80, payload)))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_ERROR, 80)
            assert text in reply.payload.decode()
            sock.sendall(_valid_request_blob(81))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_RESPONSE, 81)
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "field,text",
        [
            (lambda Z: _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 0, 0, 0) + Z[:-4], "field latent is"),
            (lambda Z: _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 0, 0, 0) + Z[:-4] + struct.pack("<f", np.nan), "non-finite"),
            (lambda Z: _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 1, 0, 0) + Z, "more than a session id"),
            (lambda Z: _REQ_HEAD.pack(0.5, MODE_FIELD, 2, 0, 0, 0, 0) + Z, "unknown session 2"),
        ],
        ids=["short-latent", "non-finite", "shape-fields", "unknown-session"],
    )
    def test_bad_field_request_gets_an_error_frame(self, oracle_server, field, text):
        server, _, _ = oracle_server
        grid = make_patch_grid(DIMS, 2, DIMS.N)
        conditions = [OracleConditioner().window_condition(w).data for w in grid.windows()]
        section = b"".join(struct.pack("<I", len(c)) + c for c in conditions)
        Z = random_dense(DIMS, 47).data.tobytes()
        sock = self._connect(server)
        try:
            register = _REQ_HEAD.pack(0.0, MODE_REGISTER, 1, DIMS.N, 2, 1, len(section)) + section
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 90, register)))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.payload) == (TYPE_RESPONSE, b"")
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 91, field(Z))))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id) == (TYPE_ERROR, 91)
            assert text in reply.payload.decode()
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 92, _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 0, 0, 0) + Z)))
            (reply,) = _read_frames(sock, 1)
            assert (reply.type, reply.request_id, len(reply.payload)) == (TYPE_RESPONSE, 92, 4 * grid.count * DIMS.N**3 * DIMS.C)
        finally:
            sock.close()


_FUZZ_DIMS = Dims(2, 2, 4, 8, C=1, l=2)


def _fuzz_layouts():
    """Valid register payloads for sessions 1 (dense) and 2 (sparse) on
    _FUZZ_DIMS, and valid field payloads on them."""
    dims = _FUZZ_DIMS
    rng = np.random.default_rng(50)
    coords = np.argwhere(rng.random(dims.grid_shape) < 0.05)
    sections = []
    for grid in (make_patch_grid(dims, 2, dims.N), make_patch_grid(dims, 2, dims.M)):
        conditions = [OracleConditioner().window_condition(w).data for w in grid.windows()]
        sections.append(b"".join(struct.pack("<I", len(c)) + c for c in conditions))
    coord_section = struct.pack("<I", len(coords)) + coords.astype("<u4").tobytes()
    registers = [
        _REQ_HEAD.pack(0.0, MODE_REGISTER, 1, dims.N, 2, 1, len(sections[0])) + sections[0],
        _REQ_HEAD.pack(0.0, MODE_REGISTER, 2, dims.M, 2, 2, len(sections[1])) + sections[1] + coord_section,
    ]
    dense = rng.standard_normal(dims.dense_shape).astype("<f4")
    features = rng.standard_normal((len(coords), dims.l)).astype("<f4")
    fields = [
        _REQ_HEAD.pack(0.5, MODE_FIELD, 1, 0, 0, 0, 0) + dense.tobytes(),
        _REQ_HEAD.pack(0.5, MODE_FIELD, 2, 0, 0, 0, 0) + features.tobytes(),
    ]
    return registers, fields, coords


_REGISTERS, _FIELDS, _FUZZ_COORDS = _fuzz_layouts()


@pytest.fixture(scope="module")
def fuzz_server():
    dims = _FUZZ_DIMS
    rng = np.random.default_rng(51)
    target = DenseLatent(dims, rng.standard_normal(dims.dense_shape, dtype=np.float32))
    slat_target = init_sparse_noise(_FUZZ_COORDS, dims, seed=52)
    server = ProviderServer(GlobalOracleProvider(ss_target=target, slat_target=slat_target), dims).start()
    yield server
    server.stop()


class TestSessionFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        payload=st.tuples(
            st.sampled_from(_REGISTERS + _FIELDS), st.integers(0, 10**6), st.integers(0, 255),
            st.sampled_from(["mutate", "cut", "extend"]), st.binary(max_size=16),
        ).map(lambda m: bytes(
            _mutate(m[0], m[1], m[2]) if m[3] == "mutate"
            else m[0][: m[1] % len(m[0])] if m[3] == "cut" else m[0] + m[4]
        ))
        | st.tuples(
            st.floats(width=32), st.sampled_from([MODE_REGISTER, MODE_FIELD]),
            st.lists(st.integers(0, 9) | st.integers(0, 2**32 - 1), min_size=4, max_size=4),
            st.integers(0, 64) | st.integers(0, 2**32 - 1), st.binary(max_size=96),
        ).map(lambda h: _REQ_HEAD.pack(h[0], h[1], *h[2], h[3]) + h[4]),
    )
    # a registration that re-uses a live session id
    @example(payload=_REGISTERS[0])
    def test_any_session_payload_gets_one_answer_and_the_connection_serves_on(self, fuzz_server, payload):
        host, port = fuzz_server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            for n, register in enumerate(_REGISTERS, 1):
                sock.sendall(encode_frame(Frame(TYPE_REQUEST, n, register)))
                (reply,) = _read_frames(sock, 1)
                assert (reply.type, reply.payload) == (TYPE_RESPONSE, b"")
            sock.sendall(encode_frame(Frame(TYPE_REQUEST, 10, payload)))
            (reply,) = _read_frames(sock, 1)
            assert reply.type in (TYPE_RESPONSE, TYPE_ERROR) and reply.request_id == 10
            for n, field in enumerate(_FIELDS, 11):
                sock.sendall(encode_frame(Frame(TYPE_REQUEST, n, field)))
                (reply,) = _read_frames(sock, 1)
                assert (reply.type, reply.request_id) == (TYPE_RESPONSE, n)
