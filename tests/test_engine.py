"""Three-party sessions over loopback: correctness, hiding, aborts."""

import contextlib
import math
from collections import Counter
import re
import threading
import time
import warnings

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import Mope2Oracle, bound_orders, fh_gap_distribution, \
    min_max_orders, rank_interval_holds, sandwich_holds, table_snapshot, \
    textbook_encrypt

from oope import (datastore, garbling, integrity, ope_state, ot, paillier,
                  transport)
from oope.cluster import LocalCluster, build_cluster
from oope.engine import (BOUND_HIGH, BOUND_LOW, DEFAULT_COLUMN, CspEngine,
                         DaEngine, DoEngine, ProtocolParams)
from oope.errors import (ConfigurationError, FramingError, HandshakeError,
                         KeyMismatchError, OopeError, ProtocolError,
                         SessionAborted, UsageError)
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.transport import Frame

EXAMPLE = [32, 20, 25, 69, 10]
# the abort reason of an output label that matches neither decode hash
DECODE_FAILED = "garbled output label failed to decode"


def flip_label_bit(blob: bytes) -> bytes:
    """blob with one bit of its first byte flipped: in an analyst's
    SHARES, a bit of its first output label."""
    return bytes([blob[0] ^ 0b0100]) + blob[1:]


def flip_tables(cluster, lane):
    """A GC_PAYLOAD edit that flips every byte of comparator lane's
    tables (lanes counted from 0), which round 1 carries behind the
    owner's labels; a later round's payload, the labels alone, passes
    unchanged."""
    circuit = cluster.da.circuit
    width = 32 * len(circuit.nonfree_gates())
    at = 16 * len(circuit.gen_inputs) + width * lane
    return lambda blob: blob[:at] + bytes(
        b ^ 0xff for b in blob[at:at + width]) + blob[at + width:]


def small_params(**kw):
    base = dict(l=16, k=16, m=(1 << 20) - 3, key_bits=256)
    base.update(kw)
    return ProtocolParams(**base)


def record(c, pk) -> bytes:
    """Ciphertext c as frames carry it: exactly cipher_width bytes."""
    return c.to_bytes(paillier.cipher_width(pk.key_bits), "big")


def make_cluster(dataset, seed=7, params=None, **kw):
    params = params or small_params()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_cluster(dataset, params, seed=seed, ot_group=GROUP_TEST,
                             **kw)


@pytest.fixture(scope="module")
def example_cluster():
    cluster, ctx = make_cluster(EXAMPLE, params=small_params(m=28))
    yield cluster, ctx
    cluster.close()


def test_example_queries(example_cluster):
    cluster, ctx = example_cluster
    assert cluster.encrypt(25) == 11      # existing plaintext, equality path
    assert cluster.encrypt(15) == 6       # between 10 (order 4) and 20 (7)
    assert cluster.encrypt(100) == 25     # beyond the maximum, toward M=28
    assert not cluster.errors


def test_inserted_entries_are_tagged_and_decrypt(example_cluster):
    cluster, ctx = example_cluster
    table, sk = ctx["table"], ctx["sk"]
    tagged = [e for e in table.entries() if e.tag is not None]
    assert {paillier.decrypt(sk, e.cipher) for e in tagged} == {15, 100}


def test_key_size_off_a_byte_boundary_serves_sessions():
    # at 66 bits a residue mod N^2 takes 132 bits, so its record is 17
    # bytes, not 16
    params = small_params(key_bits=66)
    data = [5, 900, 31000, 12, 4444]
    cluster, ctx = make_cluster(data, seed=19, params=params)
    oracle = Mope2Oracle(params.m).load(data)
    try:
        assert ctx["pk"].n.bit_length() == 66
        for xbar in (900, 1000, 0, 65535):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        assert not cluster.errors
    finally:
        cluster.close()


def test_bound_rejects_an_unknown_side(example_cluster):
    cluster, _ = example_cluster
    with pytest.raises(UsageError, match="side"):
        cluster.da.bound(25, 2)


def test_oracle_equivalence_random_datasets():
    rng = make_rng(123)
    for trial in range(6):
        n = rng.randrange(1, 33)
        data = [rng.randrange(1 << 16) for _ in range(n)]
        params = small_params()
        cluster, ctx = make_cluster(data, seed=1000 + trial, params=params)
        oracle = Mope2Oracle(params.m).load(data)
        sk = ctx["sk"]
        try:
            for _ in range(10):
                xbar = rng.randrange(1 << 16)
                ybar = cluster.encrypt(xbar)
                assert ybar == oracle.encrypt(xbar)
                decs = [(paillier.decrypt(sk, e.cipher), e.order)
                        for e in ctx["table"].entries()]
                assert sandwich_holds(decs, ybar, xbar)
            assert not cluster.errors
        finally:
            cluster.close()


def test_round_count_always_equals_tree_height():
    rng = make_rng(5)
    data = [rng.randrange(1 << 16) for _ in range(20)]
    cluster, ctx = make_cluster(data, seed=17, record=True)
    table = ctx["table"]
    to_owner = next(ch for ch in cluster.channels if ch.name == "csp->do")

    def rounds_sent():
        return sum(b[4] == transport.RANDOMIZED_NODE
                   for b in to_owner.transcript)

    try:
        queries = [data[0],                     # equality at some node
                   0, (1 << 16) - 1,            # extremes
                   rng.randrange(1 << 16)]
        # equality at the first node of the search specifically
        root_entry = table.entry_at(len(table) // 2)
        queries.append(paillier.decrypt(ctx["sk"], root_entry.cipher))
        # ascending inserts, like timestamps, must not lengthen the
        # search beyond the balanced height
        fresh = sorted(set(rng.sample(range(1 << 16), 60)) - set(data))
        queries += fresh[:40]
        for xbar in queries:
            h = table.height
            assert h == len(table).bit_length()
            before = rounds_sent()
            cluster.encrypt(xbar)
            assert rounds_sent() - before == h
        n = len(table)
        assert n >= 60
        assert table.height == math.ceil(math.log2(n + 1))
        assert not cluster.errors
    finally:
        cluster.close()


def test_empty_dataset_session():
    params = small_params()
    cluster, ctx = make_cluster([], seed=3, params=params)
    try:
        assert cluster.encrypt(500) == (params.m + 1) // 2
        assert ctx["table"].orders() == [(params.m + 1) // 2]
    finally:
        cluster.close()


def test_flipped_share_bit_detected_and_state_rolled_back():
    # a flipped bit in the analyst's output label matches neither of the
    # owner's decode hashes of that output
    params = small_params(m=28)
    cluster, ctx = make_cluster(EXAMPLE, seed=11, params=params)
    try:
        table_before = table_snapshot(ctx["table"])
        orig_send = cluster.da.csp_ch.send

        def tampered(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              flip_label_bit(frame.payload))
            orig_send(frame)

        cluster.da.csp_ch.send = tampered
        with pytest.raises(SessionAborted, match=DECODE_FAILED):
            cluster.encrypt(15)
        cluster.da.csp_ch.send = orig_send
        assert table_snapshot(ctx["table"]) == table_before
        # the cluster stays usable for the next session
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@contextlib.contextmanager
def failing_after_upload(cluster):
    """The server parses each upload, then fails its session before the
    commit point, which must leave the table as it was."""
    real = cluster.csp._parse_upload

    def parse_then_fail(*args):
        real(*args)
        raise ProtocolError("fault after the upload")

    cluster.csp._parse_upload = parse_then_fail
    try:
        yield
    finally:
        del cluster.csp._parse_upload


def test_aborted_insert_restores_table():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=41, params=params)
    try:
        table_before = table_snapshot(ctx["table"])
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(15)
        assert table_snapshot(ctx["table"]) == table_before
        oracle = Mope2Oracle(params.m).load(EXAMPLE)
        assert cluster.encrypt(15) == oracle.encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (sender, frame type, record edit); with integrity off, an
# upload and a node are one ciphertext of exactly cipher_width bytes, the
# upload behind the output labels of the last round's SHARES
RECORD_DAMAGE = {
    "upload-oversize": ("da", transport.SHARES, lambda p: b"\0" + p),
    "upload-undersize": ("da", transport.SHARES, lambda p: p[1:]),
    "upload-trailing": ("da", transport.SHARES, lambda p: p + b"\0"),
    "node-oversize": ("csp", transport.RANDOMIZED_NODE, lambda p: b"\0" + p),
    "node-trailing": ("csp", transport.RANDOMIZED_NODE, lambda p: p + b"\0"),
}


@pytest.mark.parametrize("damage", sorted(RECORD_DAMAGE))
def test_malformed_cipher_record_aborts_and_leaves_the_table(damage):
    # a ciphertext one byte wider or narrower than cipher_width, or a
    # byte after it, never reaches the table or a decryption, so the
    # table keeps only cipher_width residues and the next encrypt still
    # matches the oracle
    sender, ftype, edit = RECORD_DAMAGE[damage]
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=47, params=params)
    try:
        table_before = table_snapshot(ctx["table"])
        ch = cluster.da.csp_ch if sender == "da" else cluster.csp.do_ch
        orig_send = ch.send
        # a SHARES's record is the upload behind its labels, if any
        labels = 16 * len(cluster.da.circuit.outputs) \
            if ftype == transport.SHARES else 0

        def damaged(frame):
            head, record = frame.payload[:labels], frame.payload[labels:]
            if frame.ftype == ftype and record:
                frame = Frame(ftype, frame.session_id, head + edit(record))
            orig_send(frame)

        ch.send = damaged
        with pytest.raises(SessionAborted, match=(
                f"{transport.type_name(ftype)} of \\d+ bytes, expected")):
            cluster.encrypt(15)
        ch.send = orig_send
        assert table_snapshot(ctx["table"]) == table_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


def test_unknown_column_query_aborts_and_service_continues():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=43, params=params)
    try:
        cluster.csp.rows = datastore.RowStore(
            public_columns=[], ope_columns=[""],
            rows=[datastore.EncryptedRow(i, {}, {"": y})
                  for i, (_, y) in enumerate(ctx["owner"].pairs)])
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="unknown encoded column"):
            cluster.da.query({"nope": (1, 5, True, True)})
        assert time.monotonic() - t0 < 5
        assert cluster.da.query({"": (0, params.m, True, True)}) == \
            len(EXAMPLE)
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


def test_malformed_requests_abort_and_serve_loops_survive():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=45, params=params)
    try:
        cluster.csp.rows = datastore.RowStore(
            public_columns=[], ope_columns=[""],
            rows=[datastore.EncryptedRow(i, {}, {"": y})
                  for i, (_, y) in enumerate(ctx["owner"].pairs)])
        # a dead serve thread fails this test in seconds, not minutes
        cluster.da.csp_ch.timeout = cluster.da.da_do_ch.timeout = 5
        # the third nests too deep for the JSON parser
        for i, spec in enumerate((b"{", b"[1]", b"[" * 100000)):
            sid = bytes([i + 1]) * 16
            t0 = time.monotonic()
            cluster.da.csp_ch.send(Frame(transport.QUERY_EXEC, sid, spec))
            with pytest.raises(SessionAborted):
                cluster.da.csp_ch.recv(transport.QUERY_RESULT, session=sid)
            assert time.monotonic() - t0 < 5
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="malformed interval"):
            cluster.da.query({"": (1, 5)})
        assert time.monotonic() - t0 < 5
        # a frame of a type no request starts with, at the top of either
        # serve loop, is dropped
        stray = Frame(transport.SHARES, bytes([9]) * 16, b"\x00")
        cluster.da.csp_ch.send(stray)
        cluster.csp.do_ch.send(stray)
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert cluster.da.query({"": (0, params.m, True, True)}) == \
            len(EXAMPLE)
        assert not cluster.errors
    finally:
        cluster.close()


def test_truncated_randomized_node_aborts_and_owner_survives():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=47, params=params)
    try:
        orders_before = ctx["table"].orders()
        orig_send = cluster.csp.do_ch.send

        def truncated(frame):
            if frame.ftype == transport.RANDOMIZED_NODE:
                frame = Frame(frame.ftype, frame.session_id,
                              frame.payload[:10])
            orig_send(frame)

        cluster.csp.do_ch.send = truncated
        t0 = time.monotonic()
        with pytest.raises(SessionAborted,
                           match="RANDOMIZED_NODE of 10 bytes, expected"):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        cluster.csp.do_ch.send = orig_send
        assert ctx["table"].orders() == orders_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("damage", ["short", "long", "tables"])
def test_malformed_garbled_payload_aborts_at_analyst(damage):
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=53, params=params)
    try:
        orders_before = ctx["table"].orders()
        edit = {"short": lambda blob: blob[:-1],
                "long": lambda blob: blob + b"\0",
                "tables": flip_tables(cluster, 0)}[damage]
        orig_send = cluster.do.da_ch.send

        def damaged(frame):
            if frame.ftype == transport.GC_PAYLOAD:
                frame = Frame(frame.ftype, frame.session_id,
                              edit(frame.payload))
            orig_send(frame)

        cluster.do.da_ch.send = damaged
        t0 = time.monotonic()
        # damaged tables evaluate to labels that the server fails to
        # decode
        match = DECODE_FAILED if damage == "tables" else \
            "malformed GC_PAYLOAD"
        with pytest.raises(SessionAborted, match=match):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        cluster.do.da_ch.send = orig_send
        assert ctx["table"].orders() == orders_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (frame type, payload edit, sender, abort reason).  A SHARES
# is 16 bytes per circuit output from the analyst, and from the owner 32
# per output of each of the session's h = 3 comparators, so one a byte
# short or long is malformed
BIT_VECTOR_DAMAGE = {
    "session_start": (transport.SESSION_START, lambda p: b"", "da->csp",
                      "no known op"),
    "session_op": (transport.SESSION_START, lambda p: b"\3", "da->csp",
                   "no known op"),
    "da_shares": (transport.SHARES, lambda p: p[:-1], "da->csp",
                  "SHARES of (15|31) bytes, expected (16|32)"),
    "do_shares": (transport.SHARES, lambda p: p + b"\0", "do->csp",
                  "SHARES of (193|97) bytes, expected (192|96)"),
}


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("damage", sorted(BIT_VECTOR_DAMAGE))
def test_malformed_bit_vectors_abort_and_service_continues(mode, damage):
    params = small_params(mode=mode)
    cluster, ctx = make_cluster(EXAMPLE, seed=55, params=params)
    try:
        # a dead serve thread fails this test in seconds, not minutes
        cluster.da.csp_ch.timeout = cluster.da.da_do_ch.timeout = 5
        table_before = table_snapshot(ctx["table"])
        ftype, edit, sender, reason = BIT_VECTOR_DAMAGE[damage]
        end = next(ch for ch in cluster.channels if ch.name == sender)
        orig_send = end.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(frame.ftype, frame.session_id,
                              edit(frame.payload))
            orig_send(frame)

        end.send = damaged
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        end.send = orig_send
        assert table_snapshot(ctx["table"]) == table_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("plaintext", ["bound", "N-1", "full-range r"])
def test_out_of_range_blinded_node_aborts_at_owner(plaintext):
    # the owner decrypts blinded nodes mod P; a node at the bound or at
    # N-1 must still fail its range check, and one in range whose
    # randomness lies outside the key's subgroup must fail decryption
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=49, params=params)
    try:
        pk = ctx["pk"]
        bound = (1 << (params.l + params.k)) + (1 << params.l)
        cipher, reason = {
            "bound": (paillier.encrypt(pk, bound, make_rng(1)),
                      "out of range"),
            "N-1": (paillier.encrypt(pk, pk.n - 1, make_rng(1)),
                    "out of range"),
            "full-range r": (textbook_encrypt(pk, 5, make_rng(1)),
                             "subgroup")}[plaintext]
        orders_before = ctx["table"].orders()
        orig_send = cluster.csp.do_ch.send

        def substituted(frame):
            if frame.ftype == transport.RANDOMIZED_NODE:
                frame = Frame(frame.ftype, frame.session_id,
                              record(cipher, pk))
            orig_send(frame)

        cluster.csp.do_ch.send = substituted
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        cluster.csp.do_ch.send = orig_send
        assert ctx["table"].orders() == orders_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("upload", ["out-of-range", "outside-subgroup"])
def test_hostile_upload_poisons_its_node_until_cleanup(upload):
    # the server cannot check an upload, so one that decrypts out of
    # range, or not at all since its randomness lies outside <h^N>,
    # aborts every later session that visits its node (here the root, so
    # every session) and leaves the table as it was; cleaning up the
    # upload's session restores service
    params = small_params()
    data = list(range(100, 800, 100))
    cluster, ctx = make_cluster(data, seed=3, params=params)
    try:
        pk = ctx["pk"]
        cipher, reason = {
            "out-of-range": (paillier.encrypt(pk, 450 + (1 << 70),
                                              make_rng(5)), "out of range"),
            "outside-subgroup": (textbook_encrypt(pk, 450, make_rng(5)),
                                 "subgroup")}[upload]
        orig_send = cluster.da.csp_ch.send
        hostile = []
        labels = 16 * len(cluster.da.circuit.outputs)

        def substituted(frame):
            # the upload behind the last round's output labels
            if frame.ftype == transport.SHARES and \
                    len(frame.payload) > labels:
                hostile.append(frame.session_id)
                frame = Frame(frame.ftype, frame.session_id,
                              frame.payload[:labels] + record(cipher, pk))
            orig_send(frame)

        cluster.da.csp_ch.send = substituted
        cluster.encrypt(450)
        cluster.da.csp_ch.send = orig_send
        table_before = table_snapshot(ctx["table"])
        for op in (lambda: cluster.encrypt(50), lambda: cluster.encrypt(350),
                   lambda: cluster.encrypt(450), lambda: cluster.encrypt(750),
                   lambda: cluster.da.bound(550, BOUND_LOW)):
            with pytest.raises(SessionAborted, match=reason):
                op()
            assert table_snapshot(ctx["table"]) == table_before
        assert cluster.da.cleanup(hostile) == 1
        oracle = Mope2Oracle(params.m).load(data)
        for xbar in (50, 350, 450, 750):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        assert not cluster.errors
    finally:
        cluster.close()


def test_no_blind_is_sent_twice():
    # each session draws its own offsets, which all go out with its
    # first node, and the server makes only an Enc(0) ahead, so across
    # aborts no offset record and no blinded node repeats, and each
    # node, a table plaintext or after the search stops the sentinel
    # 2^l, minus its own round's r decrypts to that plaintext
    params = small_params()
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=51, params=params, record=True)
    try:
        def sent(name, ftype):
            ch = next(c for c in cluster.channels if c.name == name)
            by_session = {}
            for blob in ch.transcript:
                frame = transport.decode_frame(blob[4:])
                if frame.ftype == ftype:
                    by_session.setdefault(frame.session_id, []).append(
                        frame.payload)
            return by_session

        orig_send = cluster.da.csp_ch.send

        def flip_share(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              flip_label_bit(frame.payload))
            orig_send(frame)

        h = ctx["table"].height
        queries = (150, 250, 350, 1000, 5000)
        cluster.encrypt(150)
        # aborted after its first round, then after its last one
        cluster.da.csp_ch.send = flip_share
        with pytest.raises(SessionAborted, match=DECODE_FAILED):
            cluster.encrypt(250)
        cluster.da.csp_ch.send = orig_send
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(250)
        for xbar in queries[1:]:
            cluster.encrypt(xbar)
        offsets = {sid: [int.from_bytes(p[i:i + 16], "big")
                         for i in range(0, len(p), 16)]
                   for sid, (p,) in sent("csp->da",
                                         transport.RANDOM_OFFSET).items()}
        nodes = sent("csp->do", transport.RANDOMIZED_NODE)
        assert offsets.keys() == nodes.keys() and len(offsets) == 7
        records = [r for rs in offsets.values() for r in rs]
        assert len(records) >= 7 * h
        assert len(set(records)) == len(records)
        sk, plain = ctx["sk"], set(data) | set(queries) | {1 << params.l}
        for sid, blobs in nodes.items():
            # the first aborted session sent one node for h offsets
            assert len(blobs) in (1, len(offsets[sid]))
            for blob, r in zip(blobs, offsets[sid]):
                assert paillier.decrypt(sk, int.from_bytes(blob, "big")) - \
                    r in plain
        blobs = [b for bs in nodes.values() for b in bs]
        assert len(blobs) >= h + 1 + h + 4 * h
        assert len(set(blobs)) == len(blobs)
        assert not cluster.errors
    finally:
        cluster.close()


def test_no_garbled_instance_is_sent_twice(monkeypatch):
    # the owner garbles a session's h instances in its first round and
    # sends all their tables then, and the session's rounds evaluate one
    # each, so no garbled table repeats across sessions and aborts, and
    # no instance's decode hashes decode two rounds
    params = small_params()
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=52, params=params, record=True)
    oracle = Mope2Oracle(params.m).load(data)
    decoded = []
    real_decode = garbling.decode
    monkeypatch.setattr(garbling, "decode", lambda hashes, labels: (
        decoded.append(hashes), real_decode(hashes, labels))[1])
    try:
        ch = next(c for c in cluster.channels if c.name == "do->da")
        circuit = cluster.da.circuit
        labels = 16 * len(circuit.gen_inputs)
        width = 32 * len(circuit.nonfree_gates())
        orig_send = cluster.da.csp_ch.send
        orig_ot_send = cluster.da.da_do_ch.send

        def flip_share(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              flip_label_bit(frame.payload))
            orig_send(frame)

        def short_ot_msg(frame):
            if frame.ftype == transport.OT_MSG:
                frame = Frame(frame.ftype, frame.session_id,
                              frame.payload[:-1])
            orig_ot_send(frame)

        assert cluster.encrypt(150) == oracle.encrypt(150)
        cluster.da.csp_ch.send = flip_share
        with pytest.raises(SessionAborted, match=DECODE_FAILED):
            cluster.encrypt(250)
        cluster.da.csp_ch.send = orig_send
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(250)
        # a short OT_MSG cuts its extension batch short
        cluster.da.da_do_ch.send = short_ot_msg
        with pytest.raises(SessionAborted, match="wrong size"):
            cluster.encrypt(250)
        cluster.da.da_do_ch.send = orig_ot_send
        # each session brings its own OT extension batch, so service
        # goes on
        for xbar in (250, 350, 1000, 5000, 7000, 9000, 11000):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        # round 1's GC_PAYLOAD: the owner's labels, h comparators' tables,
        # then the OT reply, 32 bytes per analyst input of each
        tables = []
        for b in ch.transcript:
            if b[4] == transport.GC_PAYLOAD:
                payload = transport.decode_frame(b[4:]).payload
                h = (len(payload) - labels) // (
                    width + 32 * len(circuit.eval_inputs))
                tables += [payload[labels + width * i:labels + width * (i + 1)]
                           for i in range(h)]
        assert len(tables) > 32
        assert len(set(tables)) == len(tables)
        assert len(decoded) > 32
        assert len(set(decoded)) == len(decoded)
        assert not cluster.errors
    finally:
        cluster.close()


def _node_out_of_range(params, pk):
    bound = (1 << (params.l + params.k)) + (1 << params.l)
    return lambda blob: record(paillier.encrypt(pk, bound, make_rng(1)), pk)


# abort -> (sending end, frame type, which one of the session's frames of
# that type, counted from 1, or "last" for the h-th, payload edit, abort
# reason)
PAD_SYNC_ABORTS = {
    "node-out-of-range-first": ("csp->do", transport.RANDOMIZED_NODE, 1,
                                _node_out_of_range, "out of range"),
    "node-out-of-range-third": ("csp->do", transport.RANDOMIZED_NODE, 3,
                                _node_out_of_range, "out of range"),
    "share-mismatch": ("da->csp", transport.SHARES, 2, flip_label_bit,
                       DECODE_FAILED),
    # the owner's decode hashes of the session's comparators, cut short
    "hashes": ("do->csp", transport.SHARES, 1, lambda blob: blob[:-1],
               "SHARES of"),
    "pedersen-authentication": ("csp->da", transport.INTEGRITY_TAG, 2,
                                lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]),
                                "authentication"),
}


@pytest.mark.parametrize("abort", sorted(PAD_SYNC_ABORTS))
def test_ot_pads_stay_in_step_after_an_abort(abort):
    # after the abort, each peer returns at once, and the next sessions
    # bring their own OT extension batches: an aborted round 1 whose
    # OT_MSG the owner never read leaves it stale, not out of step
    sender, ftype, nth, edit, reason = PAD_SYNC_ABORTS[abort]
    mac_params = None
    params = small_params()
    if abort.startswith("pedersen"):
        mac_params = integrity.gen_mac_params(512, 64, rng=make_rng(3))
        params = small_params(integrity=integrity.SCHEME_PEDERSEN,
                              mac_subgroup_bits=64)
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=57, params=params,
                                mac_params=mac_params)
    oracle = Mope2Oracle(params.m).load(data)
    if edit is _node_out_of_range:
        edit = edit(params, ctx["pk"])
    timeout = 3
    try:
        for ch in cluster.channels:
            ch.timeout = timeout
        assert cluster.encrypt(150) == oracle.encrypt(150)
        h = ctx["table"].height
        nth = h if nth == "last" else nth
        end = next(ch for ch in cluster.channels if ch.name == sender)
        seen = []

        def damaged(frame):
            if frame.ftype == ftype:
                seen.append(frame)
                if len(seen) == nth:
                    frame = Frame(ftype, frame.session_id,
                                  edit(frame.payload))
            transport.Channel.send(end, frame)

        end.send = damaged
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(250)
        assert time.monotonic() - t0 < timeout
        del end.send
        assert len(seen) >= nth
        for xbar in (250, 350, 1000, 5000, 120):
            t0 = time.monotonic()
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
            assert time.monotonic() - t0 < timeout
        assert not any(ch.poisoned for ch in cluster.channels)
        assert not cluster.errors
    finally:
        cluster.close()


# finder -> (its role, the sending end, frame type and payload edit of a
# fault it finds, the abort reason, the links of the ABORT frames): the
# finder sends one to each peer, and its ring successor (server, owner,
# analyst, server) passes it on to the third role, which may be waiting
# on the successor alone
ABORT_FINDERS = {
    "server": (transport.ROLE_CSP, "da->csp", transport.SHARES,
               flip_label_bit, DECODE_FAILED,
               ["csp->da", "csp->do", "do->da"]),
    "owner": (transport.ROLE_DO, "csp->do", transport.RANDOMIZED_NODE, None,
              "out of range", ["da->csp", "do->csp", "do->da"]),
    "analyst": (transport.ROLE_DA, "do->da", transport.GC_PAYLOAD,
                lambda blob: blob[:-1], "malformed GC_PAYLOAD",
                ["csp->do", "da->csp", "da->do"]),
}


@pytest.mark.parametrize("finder", sorted(ABORT_FINDERS))
def test_an_abort_costs_three_frames(finder):
    # a fault found in a session's second round costs three ABORT
    # frames, each naming the role that found it, and fails the encrypt
    # well inside the channel timeout; the next session runs as before
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=57, params=params, record=True)
    role, sender, ftype, edit, reason, links = ABORT_FINDERS[finder]
    edit = edit or _node_out_of_range(params, ctx["pk"])
    try:
        for ch in cluster.channels:
            ch.timeout = 5
        end = next(ch for ch in cluster.channels if ch.name == sender)
        seen = []

        def damaged(frame):
            if frame.ftype == ftype:
                seen.append(frame)
                if len(seen) == 2:
                    frame = Frame(ftype, frame.session_id,
                                  edit(frame.payload))
            transport.Channel.send(end, frame)

        start = {n: len(t) for n, t in cluster.transcripts().items()}
        end.send = damaged
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        del end.send
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        aborts = sorted(
            (name, frame.payload[0]) for name, blobs in
            cluster.transcripts().items() for blob in blobs[start[name]:]
            for frame in [transport.decode_frame(blob[4:])]
            if frame.ftype == transport.ABORT)
        assert aborts == [(name, role) for name in links]
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("mode", ["det", "fh"])
def test_no_session_state_outlives_its_session(mode):
    # after each session, ended or aborted at any of the three roles,
    # every attribute of the engines and OT ends is the object or value
    # it was, but the server's next Enc(0) and the OT ends' last batch
    # index: a session's offsets, OT batch and garbled comparators, and
    # in fh its coins, live in the session's own locals alone, and the
    # one server value that crosses sessions decrypts to 0
    params = small_params(mode=mode)
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=61, params=params)
    outlive = {"csp": {"_zeros"}, "ot_sender": {"_batch"},
               "ot_receiver": {"_batch"}}

    def state():
        return {"csp": cluster.csp, "do": cluster.do, "da": cluster.da,
                "ot_sender": cluster.do.ot_sender,
                "ot_receiver": cluster.da.ot_receiver}

    def damaged(end, ftype, edit, nth):
        # the session's nth frame of ftype from end, edited
        seen = []

        def send(frame):
            if frame.ftype == ftype:
                seen.append(frame)
                if len(seen) == nth:
                    frame = Frame(ftype, frame.session_id,
                                  edit(frame.payload))
            transport.Channel.send(end, frame)
        return send

    # round 1's GC_PAYLOAD carries the second comparator's tables, and
    # the owner's SHARES, the last case, the session's decode hashes
    aborts = [
        (cluster.csp.do_ch, transport.RANDOMIZED_NODE,
         _node_out_of_range(params, ctx["pk"]), 2, "out of range"),
        (cluster.do.da_ch, transport.GC_PAYLOAD, flip_tables(cluster, 1), 1,
         DECODE_FAILED),
        (cluster.da.csp_ch, transport.SHARES, flip_label_bit, 2,
         DECODE_FAILED),
        (cluster.do.csp_ch, transport.SHARES, lambda blob: blob[:-1], 1,
         "SHARES of")]
    try:
        cluster.encrypt(150)
        before = {name: dict(vars(obj)) for name, obj in state().items()}

        def assert_unchanged():
            # an aborted encrypt can return while the server still makes
            # its next Enc(0), right after the session's last node
            deadline = time.monotonic() + 5
            while cluster.csp._zeros is None and \
                    time.monotonic() < deadline:
                time.sleep(0.001)
            zeros = cluster.csp._zeros
            assert len(zeros) == 1
            assert paillier.decrypt(ctx["sk"], zeros[0]) == 0
            for name, obj in state().items():
                now = vars(obj)
                assert now.keys() == before[name].keys(), name
                for attr, was in before[name].items():
                    if attr in outlive.get(name, ()):
                        continue
                    value = now[attr]
                    assert value is was or (
                        not isinstance(value, np.ndarray) and value == was), \
                        f"{name}.{attr}"

        cluster.encrypt(250)
        assert_unchanged()
        cluster.da.bound(1000, BOUND_HIGH)
        assert_unchanged()
        for end, ftype, edit, nth, reason in aborts:
            end.send = damaged(end, ftype, edit, nth)
            with pytest.raises(SessionAborted, match=reason):
                cluster.encrypt(350)
            del end.send
            assert_unchanged()
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("mode", ["det", "fh"])
def test_an_ot_batch_too_small_for_the_rounds_aborts_where_it_runs_out(
        mode):
    # the analyst's batch holds the choices of every round but the last,
    # so the owner reads h - 1 rounds from its size and garbles as many
    # comparators; the analyst, which reads h comparators' tables from
    # round 1's GC_PAYLOAD, aborts there, before the server reads h
    # rounds' decode hashes, and the next sessions, each with its own
    # batch, run as before
    params = small_params(mode=mode)
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=63, params=params)
    oracle = Mope2Oracle(params.m).load(data)
    n = len(cluster.da.circuit.eval_inputs)
    receiver = cluster.da.ot_receiver
    try:
        for ch in cluster.channels:
            ch.timeout = 3
        receiver.extend = lambda bits: type(receiver).extend(receiver,
                                                             bits[:-n])
        with pytest.raises(SessionAborted, match="malformed GC_PAYLOAD"):
            cluster.encrypt(250)
        del receiver.extend
        assert len(ctx["table"]) == len(data)
        for xbar in (250, 350, 1000):
            y = cluster.encrypt(xbar)
            if mode == "det":
                assert y == oracle.encrypt(xbar)
        assert not any(ch.poisoned for ch in cluster.channels)
        assert not cluster.errors
    finally:
        cluster.close()


def test_bits_after_the_search_stops_are_ignored(monkeypatch):
    # over [10, 20, 25, 32, 69] the search for 25 stops at its first
    # node, an equal one; the later rounds compare the sentinel 2^l, and
    # bits that would move the search from there change nothing
    cluster, ctx = make_cluster(EXAMPLE, seed=65)
    real = garbling.decode
    bits = []

    def moving_after_the_first(*args):
        got = real(*args)
        bits.append(got)
        return got if len(bits) == 1 else (1, len(bits) % 2)

    try:
        monkeypatch.setattr(garbling, "decode", moving_after_the_first)
        assert ctx["table"].height == 3
        assert cluster.encrypt(25) == \
            Mope2Oracle(cluster.da.params.m).load(EXAMPLE).encrypt(25)
        assert bits == [(0, 0), (1, 0), (1, 0)]
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("damage", ["truncated", "flipped", "oversized",
                                    "round-more", "no-round"])
def test_damaged_ot_batch_aborts_its_session_alone(damage):
    # the session's OT_MSG, its extension batch of m OTs (KAPPA columns
    # of m/8 bytes behind a u32 batch index), cut by a byte, with one
    # byte of the matrix flipped, with a matrix of more OTs than
    # M.bit_length() rounds need, with each column one round longer, so
    # that m names h + 1 rounds: the owner garbles h + 1 comparators, and
    # the analyst refuses round 1's GC_PAYLOAD, which carries their
    # tables, or with m = 8 OTs, fewer than one round's n
    params = small_params()
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=59, params=params)
    oracle = Mope2Oracle(params.m).load(data)
    n = len(cluster.da.circuit.eval_inputs)
    timeout = 3
    try:
        for ch in cluster.channels:
            ch.timeout = timeout
        assert cluster.encrypt(150) == oracle.encrypt(150)
        h = ctx["table"].height
        # IKNP ignores column i of the matrix where the owner's s_i = 0,
        # so the flip goes where s_i = 1, into the first round's OTs
        column = next(i for i, bit in enumerate(np.unpackbits(
            cluster.do.ot_sender._s_row)) if bit)
        end = cluster.da.da_do_ch
        seen = []

        def damaged(frame):
            if frame.ftype == transport.OT_MSG:
                blob = frame.payload
                row_bytes, rest = divmod(len(blob) - 4, ot.KAPPA)
                seen.append((row_bytes, rest))
                if damage == "truncated":
                    blob = blob[:-1]
                elif damage == "oversized":
                    most = params.m.bit_length() * n
                    blob = blob[:4] + bytes(ot.KAPPA * (most // 8 + 2))
                elif damage == "no-round":
                    blob = blob[:4] + bytes(ot.KAPPA)
                elif damage == "round-more":
                    more = bytes(-(-n // 8))
                    blob = blob[:4] + b"".join(
                        blob[at:at + row_bytes] + more
                        for at in range(4, len(blob), row_bytes))
                else:
                    at = 4 + column * row_bytes
                    blob = blob[:at] + bytes([blob[at] ^ 0xff]) + \
                        blob[at + 1:]
                frame = Frame(frame.ftype, frame.session_id, blob)
            transport.Channel.send(end, frame)

        end.send = damaged
        t0 = time.monotonic()
        reason = {"flipped": "decode", "round-more": "malformed GC_PAYLOAD",
                  "no-round": "too small"}.get(damage, "wrong size")
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(250)
        assert time.monotonic() - t0 < timeout
        del end.send
        # one batch, of exactly m = 8·ceil(h·n / 8) OTs
        assert seen == [(-(-h * n // 8), 0)]
        for xbar in (250, 350, 1000, 5000, 120):
            t0 = time.monotonic()
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
            assert time.monotonic() - t0 < timeout
        assert not any(ch.poisoned for ch in cluster.channels)
        assert not cluster.errors
    finally:
        cluster.close()


def test_a_node_past_the_sessions_comparators_aborts_at_the_owner():
    # a server that sends the owner one node more than the session's h
    # rounds finds it out of garbled comparators: the owner aborts "used
    # up", the analyst, done with its rounds, still gets its order, and
    # the owner goes on serving
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=67, params=params, record=True)
    oracle = Mope2Oracle(params.m).load(EXAMPLE)
    h = ctx["table"].height
    real = cluster.csp._blind_node
    nodes = []

    def one_more(*args):
        real(*args)
        nodes.append(args)
        if len(nodes) == h:
            real(*args)

    try:
        for ch in cluster.channels:
            ch.timeout = 3
        cluster.csp._blind_node = one_more
        assert cluster.encrypt(15) == oracle.encrypt(15)
        del cluster.csp._blind_node
        from_owner = next(c for c in cluster.channels if c.name == "do->csp")
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline and not any(
                b[4] == transport.ABORT for b in from_owner.transcript):
            time.sleep(0.001)
        abort, = [frame for b in from_owner.transcript
                  for frame in [transport.decode_frame(b[4:])]
                  if frame.ftype == transport.ABORT]
        assert b"used up" in abort.payload
        for xbar in (25, 40):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        assert not cluster.errors
    finally:
        cluster.close()


def test_aborted_rebalance_leaves_rows_on_table_orders(monkeypatch):
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, sk = ctx["table"], ctx["sk"]
    rows = rows_of(ctx["owner"])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    real_apply = rows.apply_remap

    def slow_apply(column, remap):
        # a slow row store makes a session that returns before its rows
        # follow the table fail on every run, not just on some
        time.sleep(0.2)
        real_apply(column, remap)

    monkeypatch.setattr(rows, "apply_remap", slow_apply)

    def in_step():
        # no settling session: the rows followed every remap before the
        # session that made it returned
        assert row_plaintexts(rows, table, sk) == data

    def consistent():
        # a session for a stored value changes nothing
        assert cluster.encrypt(10) == oracle.encrypt(10)
        in_step()

    try:
        for xbar in (15, 17, 25):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
            in_step()
        consistent()
        rebalances = count_rebalances(monkeypatch)
        # the server finds a unit gap, parses the upload, then fails
        # before its commit point
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(19)
        assert rebalances == [6]
        consistent()
        assert cluster.encrypt(19) == oracle.encrypt(19)
        in_step()
        assert len(rebalances) == 2
        consistent()
        assert not cluster.errors
    finally:
        cluster.close()


def test_rebalance_that_leaves_no_room_rolls_back(monkeypatch):
    # at M=11 ten entries take every order: the session for a new value
    # finds a unit gap, its rebalance finds the table full, the session
    # aborts and the table stays as it was
    params = small_params(m=11)
    data = list(range(10, 110, 10))
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, sk = ctx["table"], ctx["sk"]
    rows = rows_of(ctx["owner"])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    try:
        assert table.orders() == list(range(1, 11))
        before = table_snapshot(table)
        rebalances = count_rebalances(monkeypatch)
        with pytest.raises(SessionAborted, match="exhausted"):
            cluster.encrypt(15)
        assert rebalances == [10]
        assert table_snapshot(table) == before
        assert row_plaintexts(rows, table, sk) == data
        assert cluster.encrypt(10) == oracle.encrypt(10)
        assert not cluster.errors
    finally:
        cluster.close()


def test_an_fh_table_fills_every_order_of_m(monkeypatch):
    # at M = 67, eight seeded values and seeded encrypts fill all 66
    # orders, each rebalance making room for the entry that set it off;
    # only then does an encrypt abort, and the table stays as it was
    params = small_params(m=67, mode="fh")
    rng = make_rng(7)
    data = [rng.randrange(1 << 16) for _ in range(8)]
    cluster, ctx = make_cluster(data, seed=7, params=params)
    table, sk = ctx["table"], ctx["sk"]
    rebalances = count_rebalances(monkeypatch)
    try:
        xs = list(data)
        while len(table) < params.m - 1:
            xs.append(rng.choice(xs) if rng.random() < 0.3 else
                      rng.randrange(1 << 16))
            y = cluster.encrypt(xs[-1])
            pairs = [(paillier.decrypt(sk, e.cipher), e.order)
                     for e in table.entries()]
            assert rank_interval_holds(pairs, xs[-1], y)
        assert rebalances
        assert table.orders() == list(range(1, params.m))
        plain = [x for x, _ in pairs]
        assert plain == sorted(plain) == sorted(xs)
        before = table_snapshot(table)
        with pytest.raises(SessionAborted, match="exhausted"):
            cluster.encrypt(xs[0])
        assert table_snapshot(table) == before
        assert not cluster.errors
    finally:
        cluster.close()


def test_failed_order_result_leaves_rows_on_table_orders(monkeypatch):
    # the server's ORDER_RESULT send fails once, after a session that
    # rebalances: its commit stands, entry and remap alike, so every row
    # still decrypts through the table and the next encrypt is right
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, sk = ctx["table"], ctx["sk"]
    rows = rows_of(ctx["owner"])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    real_send = cluster.csp.da_ch.send

    def failing_order(frame):
        if frame.ftype == transport.ORDER_RESULT:
            cluster.csp.da_ch.send = real_send
            raise FramingError("ORDER_RESULT send failed")
        real_send(frame)

    try:
        for xbar in (15, 17, 25):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        rebalances = count_rebalances(monkeypatch)
        cluster.csp.da_ch.send = failing_order
        with pytest.raises(SessionAborted,
                           match="ORDER_RESULT send failed") as aborted:
            cluster.encrypt(19)
        assert rebalances == [6]
        assert row_plaintexts(rows, table, sk) == data
        oracle.encrypt(19)
        assert table.orders() == oracle.ys
        assert cluster.encrypt(16) == oracle.encrypt(16)
        assert row_plaintexts(rows, table, sk) == data
        # the abort names the session, so the analyst can remove its entry
        assert cluster.da.cleanup([aborted.value.session_id]) == 1
        assert 19 not in [paillier.decrypt(sk, table.get(y).cipher)
                          for y in table.orders()]
        assert row_plaintexts(rows, table, sk) == data
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (frame type the server sends the analyst, payload edit), at
# l = k = 16 and M = 2^20 - 3
OFFSET_DAMAGE = {
    "offset-empty": (transport.RANDOM_OFFSET, lambda p: b""),
    "offset-long": (transport.RANDOM_OFFSET, lambda p: p + b"\0"),
    "offset-too-large": (transport.RANDOM_OFFSET,
                         lambda p: (1 << 32).to_bytes(16, "big")),
    # more rounds than a table under M = 2^20 - 3 can take, each one
    # more OT batch row
    "offset-too-many": (transport.RANDOM_OFFSET, lambda p: p[:16] * 21),
}


@pytest.mark.parametrize("damage", sorted(OFFSET_DAMAGE))
def test_malformed_offset_or_order_aborts_before_the_commit(damage):
    ftype, edit = OFFSET_DAMAGE[damage]
    params = small_params()
    data = [32, 20, 25, 69, 10, 500, 900, 4000]
    cluster, ctx = make_cluster(data, seed=5, params=params)
    try:
        table_before = table_snapshot(ctx["table"])
        orig_send = cluster.csp.da_ch.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(ftype, frame.session_id, edit(frame.payload))
            orig_send(frame)

        cluster.csp.da_ch.send = damaged
        with pytest.raises(SessionAborted, match="malformed"):
            cluster.encrypt(15)
        cluster.csp.da_ch.send = orig_send
        assert table_snapshot(ctx["table"]) == table_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(data).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("damage", ["order-long", "order-above-m"])
def test_malformed_order_aborts_after_the_commit(damage):
    # ORDER_RESULT follows the commit point, so the analyst that refuses
    # it holds an abort naming the session, whose entry cleanup removes
    edit = {"order-long": lambda p: b"\0" + p,
            "order-above-m": lambda p: (1 << 20).to_bytes(16, "big")}[damage]
    params = small_params()
    data = [32, 20, 25, 69, 10, 500, 900, 4000]
    cluster, ctx = make_cluster(data, seed=5, params=params)
    try:
        table_before = table_snapshot(ctx["table"])
        orig_send = cluster.csp.da_ch.send

        def damaged(frame):
            if frame.ftype == transport.ORDER_RESULT:
                frame = Frame(frame.ftype, frame.session_id,
                              edit(frame.payload))
            orig_send(frame)

        cluster.csp.da_ch.send = damaged
        with pytest.raises(SessionAborted, match="malformed") as aborted:
            cluster.encrypt(15)
        cluster.csp.da_ch.send = orig_send
        assert table_snapshot(ctx["table"]) != table_before
        assert cluster.da.cleanup([aborted.value.session_id]) == 1
        assert table_snapshot(ctx["table"]) == table_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(data).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (frame type the server answers the analyst with, payload)
REPLY_DAMAGE = {
    "result-not-utf8": (transport.QUERY_RESULT, b"\xff\xfe"),
    "result-not-json": (transport.QUERY_RESULT, b"{"),
    "result-an-object": (transport.QUERY_RESULT, b'{"count": 1}'),
    "result-a-float": (transport.QUERY_RESULT, b"1.5"),
    "result-too-deep": (transport.QUERY_RESULT, b"[" * 100000),
    "cleanup-short": (transport.CLEANUP_DONE, b"\0\0\1"),
    "cleanup-long": (transport.CLEANUP_DONE, b"\0\0\0\0\1"),
}


def test_malformed_query_or_cleanup_reply_is_a_protocol_error():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=41, params=params)
    try:
        cluster.csp.rows = rows_of(ctx["owner"])
        everything = {"": (0, params.m, True, True)}
        orig_send = cluster.csp.da_ch.send
        for damage, (ftype, payload) in sorted(REPLY_DAMAGE.items()):
            def damaged(frame, ftype=ftype, payload=payload):
                if frame.ftype == ftype:
                    frame = Frame(ftype, frame.session_id, payload)
                orig_send(frame)

            cluster.csp.da_ch.send = damaged
            with pytest.raises(ProtocolError) as err:
                if ftype == transport.QUERY_RESULT:
                    cluster.da.query(everything)
                else:
                    cluster.da.cleanup()
            assert type(err.value) is ProtocolError, damage
            cluster.csp.da_ch.send = orig_send
            assert cluster.da.query(everything) == len(EXAMPLE)
            assert cluster.da.cleanup() == 0
        assert not cluster.errors
    finally:
        cluster.close()


def test_every_single_share_bit_flip_detected():
    # the owner's SHARES holds the decode hashes of each of the
    # session's comparators, each output's zero-hash, then its one-hash,
    # the first round's comparator first.  Over EXAMPLE the first node is 25, so the first round's
    # outputs for 15 are [15 != 25] = 1 and [15 > 25] = 0, and hashes 1
    # and 2 are the ones its labels match.  A flipped bit in either
    # aborts the session; one in hash 0 or 3, which no label matches,
    # changes nothing.  Each flip goes to a new cluster.
    params = small_params(m=28)
    want = Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
    aborted = []
    for k in range(4):
        cluster, ctx = make_cluster(EXAMPLE, seed=13, params=params)
        end = cluster.do.csp_ch
        try:
            table_before = table_snapshot(ctx["table"])
            seen = []

            def tampered(frame, at=16 * k + k):
                if frame.ftype == transport.SHARES:
                    seen.append(frame)
                    if len(seen) == 1:
                        blob = bytearray(frame.payload)
                        blob[at] ^= 1 << k
                        frame = Frame(frame.ftype, frame.session_id,
                                      bytes(blob))
                transport.Channel.send(end, frame)

            end.send = tampered
            try:
                assert cluster.encrypt(15) == want
                assert cluster.da.cleanup() == 1
            except SessionAborted as e:
                assert e.reason == DECODE_FAILED
                aborted.append(k)
            del end.send
            assert table_snapshot(ctx["table"]) == table_before
            assert cluster.encrypt(15) == want
            assert not cluster.errors
        finally:
            cluster.close()
    assert aborted == [1, 2]


def test_rebalance_mid_session():
    # tiny order space forces a unit gap quickly
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    rows = rows_of(ctx["owner"])
    cluster.csp.rows = rows
    try:
        oracle = Mope2Oracle(params.m).load(data)
        for xbar in (15, 17, 18, 19, 16):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        sk = ctx["sk"]
        decs = sorted((e.order, paillier.decrypt(sk, e.cipher))
                      for e in ctx["table"].entries())
        plain = [x for _, x in decs]
        assert plain == sorted(plain)
        # the row store followed the remap
        assert row_plaintexts(rows, ctx["table"], sk) == data
        assert not cluster.errors
    finally:
        cluster.close()


OWNER_LINKS = ("csp->do", "do->csp", "da->do", "do->da")


def owner_views_by_height(mode, seed, rebalances):
    """{table height: [(rebalanced, the owner's frames)]} over 24
    encrypts into a seeded table of 8 at M = 67, a copy of a stored
    value in every third; a frame is its (type, length) on each of the
    owner's links, and rebalances is count_rebalances's list."""
    rng = make_rng(seed)
    data = [rng.randrange(1 << 16) for _ in range(8)]
    queries = [rng.choice(data) if i % 3 == 0 else rng.randrange(1 << 16)
               for i in range(24)]
    cluster, ctx = make_cluster(data, seed=seed, record=True,
                                params=small_params(m=67, mode=mode))
    table = ctx["table"]
    views = {}
    try:
        for xbar in queries:
            start = {n: len(v) for n, v in cluster.transcripts().items()}
            height, before = table.height, len(rebalances)
            cluster.encrypt(xbar)
            seen = tuple(tuple((blob[4], len(blob)) for blob in
                               cluster.transcripts()[name][start[name]:])
                         for name in OWNER_LINKS)
            to_owner, from_owner = seen[:2]
            assert {t for t, _ in to_owner} <= {transport.RANDOMIZED_NODE,
                                                transport.ABORT}
            assert [t for t, _ in from_owner] == [transport.SHARES]
            views.setdefault(height, []).append(
                (len(rebalances) > before, seen))
        assert not cluster.errors
    finally:
        cluster.close()
    return views


def test_owner_view_does_not_depend_on_rebalancing(monkeypatch):
    # a rebalance stays on the server: per session, the owner gets the
    # same frames of the same lengths from the server and the analyst,
    # and sends them the same ones, whether the session rebalanced or
    # not, over several seeded tables at M = 67 in both modes.  Sessions
    # are compared by table height
    rebalances = count_rebalances(monkeypatch)
    for mode in ("det", "fh"):
        mixed = 0
        for seed in range(4):
            views = owner_views_by_height(mode, seed, rebalances)
            for sessions in views.values():
                assert len({seen for _, seen in sessions}) == 1, (mode, seed)
            mixed += sum(len({r for r, _ in v}) == 2 for v in views.values())
        # the property saw both kinds of session at one height
        assert mixed >= 2, mode


def test_masked_bits_look_uniform():
    # the analyst's output labels over repeated identical comparisons,
    # whose outputs never change: each label is fresh, and its low bit,
    # the output masked by the wire's random permute bit, is uniform, so
    # the analyst, which holds no decode hashes, does not see the output
    cluster, _ = make_cluster([42], seed=29)
    try:
        for ch in cluster.channels:
            if ch.name == "da->csp":
                ch.record = True
        for _ in range(60):
            cluster.encrypt(7)  # fixed query, fixed singleton node
        # each SHARES carries the upload behind the two labels
        labels = [transport.decode_frame(b[4:]).payload[:32]
                  for ch in cluster.channels if ch.name == "da->csp"
                  for b in ch.transcript
                  if b[4] == transport.SHARES]
        assert len(labels) >= 60
        assert len(set(labels)) == len(labels)
        for last in (15, 31):  # the last byte of each output's label
            ones = sum(blob[last] & 1 for blob in labels)
            assert 0.25 < ones / len(labels) < 0.75
    finally:
        cluster.close()


def test_owner_view_is_blinded():
    # decrypting what the owner receives yields x+r spread over the
    # blinding interval, not the bare plaintext
    params = small_params()
    cluster, ctx = make_cluster([1000], seed=31, params=params)
    try:
        for ch in cluster.channels:
            if ch.name == "csp->do":
                ch.record = True
        for _ in range(40):
            cluster.encrypt(1000)  # equality: the node never changes
        sk = ctx["sk"]
        vals = []
        for ch in cluster.channels:
            if ch.name != "csp->do":
                continue
            for blob in ch.transcript:
                f = transport.decode_frame(blob[4:])
                if f.ftype == transport.RANDOMIZED_NODE:
                    vals.append(paillier.decrypt(
                        sk, int.from_bytes(f.payload, "big")))
        assert len(vals) == 40
        span = 1 << (params.l + params.k)
        assert max(vals) - min(vals) > span // 8
        assert all(v >= 1000 for v in vals)
    finally:
        cluster.close()


def test_second_cluster_over_the_same_table_rebalances_its_rows(
        monkeypatch):
    # a closed cluster's table and row store serve a new cluster, with
    # new channels and a new base-OT setup, which then rebalances them
    params = small_params(m=19)
    data = [10, 20, 30]
    oracle = Mope2Oracle(params.m).load(data)
    cluster, ctx = make_cluster(data, seed=89, params=params)
    rows = cluster.csp.rows = rows_of(ctx["owner"])
    try:
        for xbar in (15, 17):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
    finally:
        cluster.close()
    table, sk = ctx["table"], ctx["sk"]
    saved = [r.orders[DEFAULT_COLUMN] for r in rows.rows]

    second = LocalCluster({DEFAULT_COLUMN: table}, sk, params, seed=90,
                          ot_group=GROUP_TEST)
    second.csp.rows = rows
    rebalances = count_rebalances(monkeypatch)
    try:
        # 18 and 19 exhaust their gap: a rebalance in the second cluster
        for xbar in (18, 19, 16, 20):
            assert second.encrypt(xbar) == oracle.encrypt(xbar)
        assert rebalances
        # the rows moved with the rebalance and still decrypt, through
        # the table, to the data
        assert [r.orders[DEFAULT_COLUMN] for r in rows.rows] != saved
        assert row_plaintexts(rows, table, sk) == data
        assert second.da.query({DEFAULT_COLUMN: (None, None, True, True)}) \
            == len(data)
        assert not second.errors
    finally:
        second.close()


def test_cluster_refuses_a_table_under_another_key():
    cluster, ctx = make_cluster(EXAMPLE, seed=91)
    cluster.close()
    _, sk = paillier.keygen(256, rng=make_rng(92))
    with pytest.raises(KeyMismatchError, match="'col'"):
        LocalCluster({"col": ctx["table"]}, sk, small_params())


def test_server_with_another_h_refuses_the_owner_at_hello():
    # the same N under another generator of the same subgroup: key_id
    # covers h, so the server refuses the owner's key at HELLO
    params = small_params()
    pk, sk = paillier.keygen(params.key_bits, rng=make_rng(93))
    other = paillier.PaillierPublicKey(pk.n, pk.key_bits, pk.h * pk.h % pk.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, table = ope_state.init_state(EXAMPLE, params.m, other, l=params.l,
                                        rng=make_rng(94))
    csp = CspEngine({DEFAULT_COLUMN: table}, other, params, make_rng(95))
    do = DoEngine(sk, params, make_rng(96), ot_group=GROUP_TEST)
    csp_do, do_csp = transport.loopback_pair()
    csp_da, da_csp = transport.loopback_pair()
    do_da, da_do = transport.loopback_pair()
    owner_errors = []

    def owner():
        try:
            do.attach(do_csp, do_da)
        except OopeError as e:
            owner_errors.append(e)

    t = threading.Thread(target=owner, daemon=True)
    t.start()
    try:
        with pytest.raises(HandshakeError, match="owner key does not match"):
            csp.attach(csp_do, csp_da)
    finally:
        for ch in (csp_do, do_csp, csp_da, da_csp, do_da, da_do):
            ch.close()
        t.join(timeout=5)
    assert not t.is_alive() and len(owner_errors) == 1


def attach_against(attaching, digest, hellos):
    """Attach an engine over two fresh links, in attach's order, whose
    far ends have each sent one HELLO, (claimed role, extra), and read
    nothing; every end is closed after."""
    links = [transport.loopback_pair() for _ in hellos]
    for (near, far), (claimed, extra) in zip(links, hellos):
        near.timeout = 1  # an end that accepted would wait on base OT
        far.send(Frame(transport.HELLO, transport.NULL_SESSION, bytes(
            [claimed]) + transport.PROTOCOL_VERSION.to_bytes(2, "big") +
            digest + len(extra).to_bytes(4, "big") + extra))
    try:
        attaching.attach(*(near for near, _ in links))
    finally:
        for link in links:
            for ch in link:
                ch.close()


@pytest.mark.parametrize("who", ["server", "owner", "analyst"])
@pytest.mark.parametrize("link", [0, 1])
def test_wrong_peer_role_refused_at_each_link_end(who, link):
    params = small_params()
    pk, sk = paillier.keygen(params.key_bits, rng=make_rng(97))
    key = paillier.serialize_public_key(pk)
    attaching, role, hellos = {
        "server": (lambda: CspEngine({}, pk, params), transport.ROLE_CSP,
                   [(transport.ROLE_DO, key), (transport.ROLE_DA, b"")]),
        "owner": (lambda: DoEngine(sk, params, ot_group=GROUP_TEST),
                  transport.ROLE_DO,
                  [(transport.ROLE_CSP, b""), (transport.ROLE_DA, b"")]),
        "analyst": (lambda: DaEngine(params, ot_group=GROUP_TEST),
                    transport.ROLE_DA,
                    [(transport.ROLE_CSP, key), (transport.ROLE_DO, b"")]),
    }[who]
    # the far end claims the one role that belongs on neither end
    rightful, extra = hellos[link]
    hellos[link] = (3 - role - rightful, extra)
    with pytest.raises(HandshakeError, match="expected role"):
        attach_against(attaching(), params.digest(), hellos)


def test_key_of_another_width_refused_at_every_engine():
    # key_bits sizes every ciphertext record, and encrypt refuses a
    # plaintext at or above a narrower N: a 64-bit key under key_bits =
    # 256 aborted half of its encrypts
    params = small_params()
    pk, sk = paillier.keygen(64, rng=make_rng(98))
    with pytest.raises(ConfigurationError, match="64 bits"):
        CspEngine({}, pk, params)
    with pytest.raises(ConfigurationError, match="64 bits"):
        DoEngine(sk, params, ot_group=GROUP_TEST)
    # the analyst learns the owner's key from the server's HELLO
    key = paillier.serialize_public_key(pk)
    with pytest.raises(HandshakeError, match="64 bits"):
        attach_against(DaEngine(params, ot_group=GROUP_TEST), params.digest(),
                       [(transport.ROLE_CSP, key), (transport.ROLE_DO, b"")])


def test_cleanup_naming_a_session_twice_removes_its_entry_once():
    cluster, ctx = make_cluster(EXAMPLE, seed=44)
    table = ctx["table"]
    try:
        cluster.da.csp_ch.timeout = 5
        cluster.encrypt(15)
        sid, = [e.tag for e in table.entries() if e.tag is not None]
        assert cluster.da.cleanup([sid, sid]) == 1
        assert len(table) == len(EXAMPLE)
        assert not cluster.errors
    finally:
        cluster.close()


def test_cleanup_reads_an_iterator_of_session_ids_once():
    # a generator names one session: the other analyst entry stays
    cluster, ctx = make_cluster(EXAMPLE, seed=5)
    table = ctx["table"]
    try:
        cluster.da.csp_ch.timeout = 5
        cluster.encrypt(15)
        cluster.encrypt(100)
        sids = [e.tag for e in table.entries() if e.tag is not None]
        assert len(sids) == 2
        assert cluster.da.cleanup(s for s in sids[:1]) == 1
        assert [e.tag for e in table.entries() if e.tag is not None] == \
            sids[1:]
        assert not cluster.errors
    finally:
        cluster.close()


def test_a_plaintext_that_is_not_an_int_is_refused_before_any_frame():
    params = small_params()
    cluster, _ = make_cluster(EXAMPLE, seed=45, params=params)
    oracle = Mope2Oracle(params.m).load(EXAMPLE)
    sent = []
    orig_send = cluster.da.csp_ch.send

    def counting(frame):
        sent.append(frame.ftype)
        orig_send(frame)

    try:
        cluster.da.csp_ch.timeout = 5
        cluster.da.csp_ch.send = counting
        for bad in (1.5, "7", None):
            with pytest.raises(UsageError, match="not an int"):
                cluster.da.encrypt(bad)
            with pytest.raises(UsageError, match="not an int"):
                cluster.da.bound(bad, BOUND_LOW)
        assert sent == []
        # an integer of another type counts as its value, and the peers
        # serve the next session at once
        assert cluster.da.bound(np.int64(20), BOUND_HIGH) == \
            cluster.da.bound(20, BOUND_HIGH)
        assert cluster.da.encrypt(np.int64(7)) == oracle.encrypt(7)
        assert cluster.encrypt(200) == oracle.encrypt(200)
        assert not cluster.errors
    finally:
        cluster.close()


def test_cleanup_counts_only_the_sessions_a_column_holds():
    # an entry lives in one column, and an id that no column holds
    # removes nothing: the count tells the analyst, and the server's
    # serve thread, which nothing warns on, serves the next session
    params = small_params()
    _, sk = paillier.keygen(params.key_bits, rng=make_rng(64))
    tables = {col: ope_state.init_state([10, 20, 30], params.m, sk.public,
                                        l=params.l, rng=make_rng(65))[1]
              for col in ("a", "b")}
    cluster = LocalCluster(tables, sk, params, seed=66, ot_group=GROUP_TEST)
    try:
        cluster.da.csp_ch.timeout = 5
        cluster.encrypt(15, column="a")
        sid, = [e.tag for e in tables["a"].entries() if e.tag is not None]
        assert cluster.da.cleanup([sid, bytes(16)]) == 1
        assert cluster.da.cleanup([bytes(16)]) == 0
        assert [len(t) for t in tables.values()] == [3, 3]
        assert cluster.encrypt(25, column="b") == \
            Mope2Oracle(params.m).load([10, 20, 30]).encrypt(25)
        assert not cluster.errors
    finally:
        cluster.close()


def test_malformed_cleanup_request_aborts_and_service_continues():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=43, params=params)
    table = ctx["table"]
    sent = []
    orig_send = cluster.da.csp_ch.send

    def counting(frame):
        sent.append(frame.ftype)
        orig_send(frame)

    try:
        cluster.da.csp_ch.timeout = 5
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        # 17 bytes are no whole session ids: the server aborts and
        # removes nothing
        sid = bytes([5]) * 16
        cluster.da.csp_ch.send(Frame(transport.CLEANUP, sid, bytes(17)))
        with pytest.raises(SessionAborted, match="whole session ids"):
            cluster.da.csp_ch.recv(transport.CLEANUP_DONE, session=sid)
        assert len(table) == len(EXAMPLE) + 1
        # the analyst refuses an id that is not 16 bytes, and an empty
        # list asks for nothing, before either sends a frame
        cluster.da.csp_ch.send = counting
        with pytest.raises(UsageError, match="16 bytes"):
            cluster.da.cleanup([b"abc"])
        assert cluster.da.cleanup([]) == 0
        assert sent == []
        assert cluster.da.cleanup() == 1
        assert sent == [transport.CLEANUP]
        assert len(table) == len(EXAMPLE)
        assert not cluster.errors
    finally:
        cluster.close()


# --- transports and the receive timeout -------------------------------------

def test_unknown_transport_kind_rejected():
    with pytest.raises(ConfigurationError, match="'TCP'"):
        make_cluster(EXAMPLE, transport_kind="TCP")


@pytest.mark.parametrize("scheme", [integrity.SCHEME_PEDERSEN])
def test_integrity_without_mac_params_rejected(scheme):
    params = small_params(integrity=scheme, mac_subgroup_bits=64)
    with pytest.raises(ConfigurationError, match="no MAC parameters"):
        make_cluster(EXAMPLE, params=params)


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_idle_cluster_outlives_the_receive_timeout(kind):
    params = small_params()
    cluster, _ = make_cluster(EXAMPLE, seed=71, params=params,
                              transport_kind=kind)
    try:
        for ch in cluster.channels:
            ch.timeout = 0.5
        oracle = Mope2Oracle(params.m).load(EXAMPLE)
        assert cluster.encrypt(15) == oracle.encrypt(15)
        time.sleep(1.5)  # both serve loops wait for their next request
        assert cluster.encrypt(40) == oracle.encrypt(40)
        assert not any(ch.poisoned for ch in cluster.channels)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_owner_stalled_mid_session_fails_encrypt_in_time(kind):
    params = small_params()
    cluster, _ = make_cluster(EXAMPLE, seed=73, params=params,
                              transport_kind=kind)
    oracle = Mope2Oracle(params.m).load(EXAMPLE)
    release = threading.Event()
    # without a timeout, closing the channels ends the wait, so a
    # regression fails here rather than hangs
    watchdog = threading.Timer(5, cluster.close)
    try:
        for ch in cluster.channels:
            ch.timeout = 0.3
        # the owner takes its round's node and does not answer
        cluster.do._round = lambda frame, *session: release.wait(30) and \
            session
        watchdog.start()
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="timed out") as err:
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 10 * 0.3
        # the reason names the waiting end of one of the analyst's two
        # channels and the frame type it waited for
        assert re.fullmatch(r"(da->do|csp->da): timed out waiting for "
                            r"[A-Z_]+(/[A-Z_]+)*", err.value.reason), \
            err.value.reason
        # the timeouts fired between frames and lost nothing, so once
        # the owner answers again, service goes on
        del cluster.do._round
        release.set()
        assert cluster.encrypt(15) == oracle.encrypt(15)
        assert not any(ch.poisoned for ch in cluster.channels)
        assert not cluster.errors
    finally:
        watchdog.cancel()
        release.set()
        cluster.close()


# --- frequency-hiding mode --------------------------------------------------

def fh_params(**kw):
    return small_params(mode="fh", **kw)


def test_fh_distinct_value_matches_det():
    data = [5, 9, 100, 200]
    det, _ = make_cluster(data, seed=41)
    fh, _ = make_cluster(data, seed=43, params=fh_params())
    try:
        assert det.encrypt(50) == fh.encrypt(50)
    finally:
        det.close()
        fh.close()


def test_fh_duplicates_get_distinct_orders_in_rank_interval():
    data = [7, 3, 7, 12, 7]
    cluster, ctx = make_cluster(data, seed=47, params=fh_params())
    try:
        sk = ctx["sk"]
        seen = set()
        for _ in range(12):
            y = cluster.encrypt(7)
            assert y not in seen
            seen.add(y)
            pairs = [(paillier.decrypt(sk, e.cipher), e.order)
                     for e in ctx["table"].entries()]
            assert rank_interval_holds(pairs, 7, y)
        assert not cluster.errors
    finally:
        cluster.close()


# Pearson's chi-square at its 0.1% point, by degrees of freedom
CHI2_999 = {3: 16.266, 5: 20.515}


@pytest.mark.parametrize("data", [[3, 7, 7, 7, 12], [7] * 5])
def test_fh_copies_land_by_a_coin_per_equal_node(data):
    # a copy of 7 goes into a gap of its run, or at one of its ends, with
    # the oracle's exact probability: over [3, 7, 7, 7, 12] 1/4 in each
    # of gaps 1 to 4, over [7] * 5 1/8, 1/8, 1/4, 1/8, 1/8, 1/4 in gaps
    # 0 to 5.  Each seeded encrypt is removed again by cleanup, so every
    # one sees the same table.
    samples = 240
    want = fh_gap_distribution(sorted(data), 7)
    cluster, ctx = make_cluster(data, seed=67, params=fh_params())
    table = ctx["table"]
    try:
        gaps = Counter()
        for _ in range(samples):
            cluster.encrypt(7)
            gap, = [i for i, e in enumerate(table.entries())
                    if e.tag is not None]
            gaps[gap] += 1
            assert cluster.da.cleanup() == 1
        assert set(gaps) <= set(want)
        chi2 = sum((gaps[g] - samples * p) ** 2 / (samples * p)
                   for g, p in want.items())
        assert chi2 < CHI2_999[len(want) - 1], gaps
        assert not cluster.errors
    finally:
        cluster.close()


def test_fh_shares_carry_no_equality_bit():
    # one output, the traversal bit: the analyst sends one label per
    # round, the last round's with the upload behind it, and the owner
    # one pair of decode hashes per round, all in the session's first
    data = [7, 7, 9]
    cluster, _ = make_cluster(data, seed=53, params=fh_params())
    try:
        for ch in cluster.channels:
            if ch.name in ("da->csp", "do->csp"):
                ch.record = True
        cluster.encrypt(7)
        cluster.encrypt(8)
        shares = [(ch.name, len(b) - 21) for ch in cluster.channels
                  if ch.name in ("da->csp", "do->csp")
                  for b in ch.transcript if b[4] == transport.SHARES]
        upload = paillier.cipher_width(cluster.da.params.key_bits)
        # h = 2 rounds, then 3
        assert Counter(shares) == {("da->csp", 16): 3,
                                   ("da->csp", 16 + upload): 2,
                                   ("do->csp", 32 * 2): 1,
                                   ("do->csp", 32 * 3): 1}
        assert not cluster.errors
    finally:
        cluster.close()


def test_fh_minmax_strictly_between():
    data = [10, 20, 30]
    cluster, _ = make_cluster(data, seed=59, params=fh_params())
    try:
        ybar, cmin, cmax = cluster.encrypt(25, minmax=True)
        assert cmin == cmax == ybar
    finally:
        cluster.close()


def test_fh_minmax_duplicate_tracks_run_extremes():
    data = [10, 20, 20, 20, 30]
    cluster, ctx = make_cluster(data, seed=61, params=fh_params())
    try:
        sk = ctx["sk"]
        pairs_before = [(paillier.decrypt(sk, e.cipher), e.order)
                        for e in ctx["table"].entries()]
        lo, hi = min_max_orders(pairs_before, 20)
        ybar, cmin, cmax = cluster.encrypt(20, minmax=True)
        pairs_after = pairs_before + [(20, ybar)]
        want = min_max_orders(pairs_after, 20)
        assert (cmin, cmax) == want
        assert cmin in (lo, ybar) and cmax in (hi, ybar)
    finally:
        cluster.close()


def rows_of(owner):
    """A row store with one row per pair set-up assigned, in dataset
    order."""
    return datastore.RowStore(
        public_columns=[], ope_columns=[DEFAULT_COLUMN],
        rows=[datastore.EncryptedRow(i, {}, {DEFAULT_COLUMN: y})
              for i, (_, y) in enumerate(owner.pairs)])


def row_plaintexts(rows, table, sk):
    """The plaintext each row's order decrypts to through table."""
    return [paillier.decrypt(sk, table.get(r.orders[DEFAULT_COLUMN]).cipher)
            for r in rows.rows]


def count_rebalances(monkeypatch):
    """A list that gets the table size of every later rebalance."""
    sizes = []
    real = ope_state.rebalance

    def counting(table, index):
        sizes.append(len(table))
        return real(table, index)

    monkeypatch.setattr(ope_state, "rebalance", counting)
    return sizes


RUN_VALUES = (10, 20, 30, 40)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(mode="fh", small_m=False, data=[], repeated=(25, 1), inserts=[],
         ranges=[(0, 50)])
@example(mode="fh", small_m=False, data=[10, 20, 20, 20, 30],
         repeated=(20, 4), inserts=[], ranges=[(20, 20), (15, 25)])
@example(mode="fh", small_m=True, data=[10, 20, 20, 20, 30],
         repeated=(20, 4), inserts=[20, 20], ranges=[(20, 20), (15, 25)])
@given(mode=st.sampled_from(["det", "fh"]), small_m=st.booleans(),
       data=st.lists(st.sampled_from(RUN_VALUES), max_size=10),
       repeated=st.tuples(st.sampled_from(RUN_VALUES + (25,)),
                          st.integers(1, 4)),
       inserts=st.lists(st.integers(0, 50), max_size=3),
       ranges=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                       min_size=1, max_size=3))
def test_bounds_match_rank_oracle_and_count_rows(mode, small_m, data,
                                                 repeated, inserts, ranges):
    # duplicate-heavy runs, one value inserted again and again, then
    # other values; range ends between 0 and 50 are often absent.  At
    # M=67 either mode also rebalances, and the rows follow.
    m = 67 if small_m else (1 << 20) - 3
    cluster, ctx = make_cluster(data, seed=71,
                                params=small_params(mode=mode, m=m))
    table, sk = ctx["table"], ctx["sk"]
    cluster.csp.rows = rows_of(ctx["owner"])

    def count(interval):
        return cluster.da.query({DEFAULT_COLUMN: interval})

    def check_ranges():
        before = table_snapshot(table)
        pairs = [(paillier.decrypt(sk, e.cipher), e.order)
                 for e in table.entries()]
        for a, b in map(sorted, ranges):
            ends = {v: (cluster.da.bound(v, BOUND_LOW),
                        cluster.da.bound(v, BOUND_HIGH)) for v in (a, b)}
            low, high = ends[a][0], ends[b][1]
            assert (low, high) == bound_orders(pairs, a, b, m)
            assert count((low, high, True, True)) == \
                sum(a <= x <= b for x in data)
            # each predicate's rewrite over one value's pair of bounds
            for op, holds in (("<", b.__gt__), ("<=", b.__ge__),
                              (">", a.__lt__), (">=", a.__le__)):
                v = b if op.startswith("<") else a
                interval = datastore.interval_from_predicate(op, ends[v],
                                                             fh=True)
                assert count(interval) == sum(map(holds, data))
        # a bound inserts nothing
        assert table_snapshot(table) == before

    try:
        check_ranges()
        x, times = repeated
        for _ in range(times):
            cluster.encrypt(x)
        check_ranges()
        for x in inserts:
            cluster.encrypt(x)
        check_ranges()
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("scheme", [integrity.SCHEME_OFF,
                                    integrity.SCHEME_PEDERSEN])
def test_owner_cannot_tell_a_bound_from_an_encrypt(scheme):
    # the same seeded table and OT state, one session each: the frames
    # the owner sends and receives in either bound session have the
    # types and lengths of those in an encrypt session
    mac_params = None if scheme == integrity.SCHEME_OFF else \
        integrity.gen_mac_params(512, 64, rng=make_rng(3))
    params = fh_params(integrity=scheme, mac_subgroup_bits=64)
    owner_ends = ("csp->do", "do->csp", "do->da", "da->do")

    def owner_view(session):
        cluster, _ = make_cluster([10, 20, 20, 30, 40, 40, 40], seed=79,
                                  params=params, mac_params=mac_params,
                                  record=True)
        try:
            start = {n: len(v) for n, v in cluster.transcripts().items()}
            session(cluster)
            assert not cluster.errors
            return [(name, blob[4], len(blob))
                    for name, blobs in cluster.transcripts().items()
                    if name in owner_ends for blob in blobs[start[name]:]]
        finally:
            cluster.close()

    encrypt = owner_view(lambda c: c.encrypt(20))
    # no SESSION_DONE: the server sends the owner nodes only
    assert {t for name, t, _ in encrypt if name == "csp->do"} == \
        {transport.RANDOMIZED_NODE}
    for side in (BOUND_LOW, BOUND_HIGH):
        assert owner_view(lambda c: c.da.bound(20, side)) == encrypt


def test_sessions_on_two_columns_interleave(monkeypatch):
    # two tables under one key, and a row store pairing their set-up
    # entries row by row; encrypts and both bound sides alternate
    # between the columns, and small M makes column "b" rebalance
    params = small_params()
    _, sk = paillier.keygen(params.key_bits, rng=make_rng(61))
    data = {"a": [40, 10, 30, 20, 50, 10],
            "b": [70, 30, 90, 10, 50, 90]}
    m = {"a": params.m, "b": 29}
    tables, owners = {}, {}
    for col, values in data.items():
        owners[col], tables[col] = ope_state.init_state(
            values, m[col], sk.public, l=params.l, rng=make_rng(62))
    rows = datastore.RowStore(
        public_columns=[], ope_columns=list(data),
        rows=[datastore.EncryptedRow(i, {}, {"a": ya, "b": yb})
              for i, ((_, ya), (_, yb)) in enumerate(zip(owners["a"].pairs,
                                                         owners["b"].pairs))])
    oracles = {col: Mope2Oracle(m[col]).load(values)
               for col, values in data.items()}
    cluster = LocalCluster(tables, sk, params, seed=63, ot_group=GROUP_TEST)
    cluster.csp.rows = rows
    rebalances = count_rebalances(monkeypatch)

    def bounds(col, lo, hi):
        """The bound orders of [lo, hi] on col, checked against the rank
        oracle over col's decrypted table."""
        pairs = [(paillier.decrypt(sk, e.cipher), e.order)
                 for e in tables[col].entries()]
        ends = (cluster.da.bound(lo, BOUND_LOW, col),
                cluster.da.bound(hi, BOUND_HIGH, col))
        assert ends == bound_orders(pairs, lo, hi, m[col])
        return ends

    try:
        for col, xbar in (("a", 25), ("b", 40), ("a", 10), ("b", 45),
                          ("b", 42), ("a", 45), ("b", 43), ("a", 26)):
            assert cluster.encrypt(xbar, column=col) == \
                oracles[col].encrypt(xbar)
            bounds("a" if col == "b" else "b", 3, 30)
        assert rebalances
        # the rows moved with "b"'s rebalances and still decrypt, through
        # each column's table, to the data
        for col, values in data.items():
            assert [paillier.decrypt(sk, tables[col].get(
                r.orders[col]).cipher) for r in rows.rows] == values
        for (a_lo, a_hi), (b_lo, b_hi) in (((10, 40), (20, 90)),
                                           ((0, 100), (50, 50)),
                                           ((21, 29), (0, 200))):
            spec = {"a": bounds("a", a_lo, a_hi) + (True, True),
                    "b": bounds("b", b_lo, b_hi) + (True, True)}
            assert cluster.da.query(spec) == sum(
                a_lo <= xa <= a_hi and b_lo <= xb <= b_hi
                for xa, xb in zip(data["a"], data["b"]))
        assert not cluster.errors
    finally:
        cluster.close()
