"""Three-party sessions over loopback: correctness, hiding, aborts."""

import contextlib
import math
import threading
import time
import warnings

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import Mope2Oracle, bound_orders, min_max_orders, \
    rank_interval_holds, sandwich_holds, textbook_encrypt

from oope import (datastore, garbling, integrity, ope_state, paillier,
                  transport)
from oope.cluster import LocalCluster, build_cluster
from oope.engine import (BOUND_HIGH, BOUND_LOW, DEFAULT_COLUMN, CspEngine,
                         DoEngine, ProtocolParams)
from oope.errors import (ConfigurationError, FramingError, HandshakeError,
                         KeyMismatchError, OopeError, ProtocolError,
                         SessionAborted, UsageError)
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.transport import Frame
from oope.wire import lp

EXAMPLE = [32, 20, 25, 69, 10]


def small_params(**kw):
    base = dict(l=16, k=16, m=(1 << 20) - 3, key_bits=256)
    base.update(kw)
    return ProtocolParams(**base)


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
        root_entry = table.get(table.order_at(len(table) // 2))
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
    cluster, ctx = make_cluster(EXAMPLE, seed=11, params=small_params(m=28))
    try:
        orders_before = ctx["table"].orders()
        orig_send = cluster.da.csp_ch.send

        def tampered(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([frame.payload[0] ^ 0b0100]))
            orig_send(frame)

        cluster.da.csp_ch.send = tampered
        with pytest.raises(SessionAborted, match="disagree"):
            cluster.encrypt(15)
        cluster.da.csp_ch.send = orig_send
        assert ctx["table"].orders() == orders_before
        # the cluster stays usable for the next session
        assert cluster.encrypt(15) == 6
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
        table_before = ope_state.serialize_table(ctx["table"])
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(15)
        assert ope_state.serialize_table(ctx["table"]) == table_before
        oracle = Mope2Oracle(params.m).load(EXAMPLE)
        assert cluster.encrypt(15) == oracle.encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


# damage -> (sender, frame type, payload edit); a payload starts with a
# cipher record: length u32 | residue
RECORD_DAMAGE = {
    "upload-oversize": ("da", transport.CIPHER_UPLOAD,
                        lambda p: lp(b"\0" + p[4:])),
    "upload-undersize": ("da", transport.CIPHER_UPLOAD, lambda p: lp(p[5:])),
    "upload-trailing": ("da", transport.CIPHER_UPLOAD, lambda p: p + b"\0"),
    "node-oversize": ("csp", transport.RANDOMIZED_NODE,
                      lambda p: lp(b"\0" + p[4:])),
}


@pytest.mark.parametrize("damage", sorted(RECORD_DAMAGE))
def test_malformed_cipher_record_aborts_and_leaves_the_table(damage):
    # a cipher record one byte wider or narrower than cipher_width, or a
    # byte after the upload, never reaches the table or a decryption, so
    # the table file stays writable and the next encrypt still matches
    # the oracle
    sender, ftype, edit = RECORD_DAMAGE[damage]
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=47, params=params)
    try:
        table_before = ope_state.serialize_table(ctx["table"])
        ch = cluster.da.csp_ch if sender == "da" else cluster.csp.do_ch
        orig_send = ch.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(ftype, frame.session_id, edit(frame.payload))
            orig_send(frame)

        ch.send = damaged
        with pytest.raises(SessionAborted, match="cipher record|trailing"):
            cluster.encrypt(15)
        ch.send = orig_send
        assert ope_state.serialize_table(ctx["table"]) == table_before
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
        for i, spec in enumerate((b"{", b"[1]")):
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
        with pytest.raises(SessionAborted, match="truncated"):
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
        tables_end = 10 + 32 * len(cluster.da.circuit.nonfree_gates())
        orig_send = cluster.do.da_ch.send

        def damaged(frame):
            if frame.ftype == transport.GC_PAYLOAD:
                blob = frame.payload
                blob = {"short": blob[:-1], "long": blob + b"\0",
                        "tables": blob[:10] +
                        bytes(b ^ 0xff for b in blob[10:tables_end]) +
                        blob[tables_end:]}[damage]
                frame = Frame(frame.ftype, frame.session_id, blob)
            orig_send(frame)

        cluster.do.da_ch.send = damaged
        t0 = time.monotonic()
        match = "failed to decode" if damage == "tables" else "garbled payload"
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


@pytest.mark.parametrize("mode", ["det", "fh"])
@pytest.mark.parametrize("damage", ["session_start", "session_op",
                                    "da_shares", "do_shares",
                                    "gc_result_empty", "gc_result_long"])
def test_malformed_bit_vectors_abort_and_service_continues(mode, damage):
    params = small_params(mode=mode)
    cluster, ctx = make_cluster(EXAMPLE, seed=55, params=params)
    try:
        # a dead serve thread fails this test in seconds, not minutes
        cluster.da.csp_ch.timeout = cluster.da.da_do_ch.timeout = 5
        orders_before = ctx["table"].orders()
        # an empty SESSION_START or one whose op byte names no op
        ftype, payload, end = {
            "session_start": (transport.SESSION_START, b"", cluster.da.csp_ch),
            "session_op": (transport.SESSION_START, b"\3", cluster.da.csp_ch),
            "da_shares": (transport.SHARES, b"", cluster.da.csp_ch),
            "do_shares": (transport.SHARES, b"", cluster.do.csp_ch),
            "gc_result_empty": (transport.GC_RESULT, b"", cluster.da.da_do_ch),
            "gc_result_long": (transport.GC_RESULT, b"\0\0",
                               cluster.da.da_do_ch)}[damage]
        reason = "no known op" if ftype == transport.SESSION_START \
            else "bit vector"
        orig_send = end.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(frame.ftype, frame.session_id, payload)
            orig_send(frame)

        end.send = damaged
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match=reason):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        end.send = orig_send
        assert ctx["table"].orders() == orders_before
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
                              paillier.cipher_record(cipher, pk.key_bits))
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

        def substituted(frame):
            if frame.ftype == transport.CIPHER_UPLOAD:
                hostile.append(frame.session_id)
                frame = Frame(frame.ftype, frame.session_id,
                              paillier.cipher_record(cipher, pk.key_bits))
            orig_send(frame)

        cluster.da.csp_ch.send = substituted
        cluster.encrypt(450)
        cluster.da.csp_ch.send = orig_send
        table_before = ope_state.serialize_table(ctx["table"])
        for op in (lambda: cluster.encrypt(50), lambda: cluster.encrypt(350),
                   lambda: cluster.encrypt(450), lambda: cluster.encrypt(750),
                   lambda: cluster.da.bound(550, BOUND_LOW)):
            with pytest.raises(SessionAborted, match=reason):
                op()
            assert ope_state.serialize_table(ctx["table"]) == table_before
        assert cluster.da.cleanup(hostile) == 1
        oracle = Mope2Oracle(params.m).load(data)
        for xbar in (50, 350, 450, 750):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        assert not cluster.errors
    finally:
        cluster.close()


def test_no_blind_is_sent_twice():
    # blinds are made one round ahead, so one survives every abort; it
    # may serve a later round, but no offset and no blinded node repeats
    params = small_params()
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=51, params=params, record=True)
    try:
        def sent(name, ftype):
            ch = next(c for c in cluster.channels if c.name == name)
            return [transport.decode_frame(b[4:]).payload
                    for b in ch.transcript if b[4] == ftype]

        orig_send = cluster.da.csp_ch.send

        def flip_share(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([frame.payload[0] ^ 0b0100]))
            orig_send(frame)

        h = ctx["table"].height
        cluster.encrypt(150)
        # aborted after its first round, then after its last one
        cluster.da.csp_ch.send = flip_share
        with pytest.raises(SessionAborted, match="disagree"):
            cluster.encrypt(250)
        cluster.da.csp_ch.send = orig_send
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(250)
        for xbar in (250, 350, 1000, 5000):
            cluster.encrypt(xbar)
        offsets = sent("csp->da", transport.RANDOM_OFFSET)
        nodes = sent("csp->do", transport.RANDOMIZED_NODE)
        assert len(offsets) == len(nodes) >= h + 1 + h + 4 * h
        assert len(set(offsets)) == len(offsets)
        assert len(set(nodes)) == len(nodes)
        assert not cluster.errors
    finally:
        cluster.close()


def test_no_garbled_instance_is_sent_twice():
    # the owner garbles garbling.BATCH instances at a time and pops one
    # per round; one an aborted round took is dropped, so no garbled
    # table repeats across aborts and batch refills
    params = small_params()
    data = list(range(100, 3100, 100))
    cluster, ctx = make_cluster(data, seed=52, params=params, record=True)
    oracle = Mope2Oracle(params.m).load(data)
    try:
        ch = next(c for c in cluster.channels if c.name == "do->da")
        tables_end = 10 + 32 * len(cluster.da.circuit.nonfree_gates())
        orig_send = cluster.da.csp_ch.send
        orig_ot_send = cluster.da.da_do_ch.send

        def flip_share(frame):
            if frame.ftype == transport.SHARES:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([frame.payload[0] ^ 0b0100]))
            orig_send(frame)

        def short_flips(frame):
            # the owner has sent this round's GC_PAYLOAD when it finds
            # the analyst's OT choice vector one byte short
            if frame.ftype == transport.OT_MSG:
                frame = Frame(frame.ftype, frame.session_id,
                              frame.payload[:-1])
            orig_ot_send(frame)

        assert cluster.encrypt(150) == oracle.encrypt(150)
        cluster.da.csp_ch.send = flip_share
        with pytest.raises(SessionAborted, match="disagree"):
            cluster.encrypt(250)
        cluster.da.csp_ch.send = orig_send
        with failing_after_upload(cluster), \
                pytest.raises(SessionAborted, match="after the upload"):
            cluster.encrypt(250)
        cluster.da.da_do_ch.send = short_flips
        with pytest.raises(SessionAborted, match="choice vector"):
            cluster.encrypt(250)
        cluster.da.da_do_ch.send = orig_ot_send
        # the OT extension's pads stayed in step, so service goes on
        for xbar in (250, 350, 1000, 5000, 7000, 9000, 11000):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        tables = [transport.decode_frame(b[4:]).payload[10:tables_end]
                  for b in ch.transcript if b[4] == transport.GC_PAYLOAD]
        assert len(tables) > garbling.BATCH
        assert len(set(tables)) == len(tables)
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
        for xbar in (15, 17, 18):
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
    # at M=11 the uniform respread of six entries still leaves 19 a unit
    # gap: the session rebalances, aborts, and the table goes back
    params = small_params(m=11)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, sk = ctx["table"], ctx["sk"]
    rows = rows_of(ctx["owner"])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    try:
        for xbar in (15, 17, 18):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        before = ope_state.serialize_table(table)
        rebalances = count_rebalances(monkeypatch)
        with pytest.raises(SessionAborted, match="too dense"):
            cluster.encrypt(19)
        assert rebalances == [6]
        assert ope_state.serialize_table(table) == before
        assert row_plaintexts(rows, table, sk) == data
        assert cluster.encrypt(10) == oracle.encrypt(10)
        assert not cluster.errors
    finally:
        cluster.close()


def test_failed_session_done_leaves_rows_on_table_orders(monkeypatch):
    # the server's SESSION_DONE send fails once, after a session that
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

    def failing_done(frame):
        if frame.ftype == transport.SESSION_DONE:
            cluster.csp.da_ch.send = real_send
            raise FramingError("SESSION_DONE send failed")
        real_send(frame)

    try:
        for xbar in (15, 17, 18):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        rebalances = count_rebalances(monkeypatch)
        cluster.csp.da_ch.send = failing_done
        with pytest.raises(SessionAborted, match="SESSION_DONE send failed"):
            cluster.encrypt(19)
        assert rebalances == [6]
        assert row_plaintexts(rows, table, sk) == data
        oracle.encrypt(19)
        assert table.orders() == oracle.ys
        assert cluster.encrypt(16) == oracle.encrypt(16)
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
    "order-long": (transport.ORDER_RESULT, lambda p: b"\0" + p),
    "order-above-m": (transport.ORDER_RESULT,
                      lambda p: (1 << 20).to_bytes(16, "big")),
}


@pytest.mark.parametrize("damage", sorted(OFFSET_DAMAGE))
def test_malformed_offset_or_order_aborts_before_the_commit(damage):
    ftype, edit = OFFSET_DAMAGE[damage]
    params = small_params()
    data = [32, 20, 25, 69, 10, 500, 900, 4000]
    cluster, ctx = make_cluster(data, seed=5, params=params)
    try:
        table_before = ope_state.serialize_table(ctx["table"])
        orig_send = cluster.csp.da_ch.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(ftype, frame.session_id, edit(frame.payload))
            orig_send(frame)

        cluster.csp.da_ch.send = damaged
        with pytest.raises(SessionAborted, match="malformed"):
            cluster.encrypt(15)
        cluster.csp.da_ch.send = orig_send
        assert ope_state.serialize_table(ctx["table"]) == table_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(data).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


def test_every_single_share_bit_flip_detected():
    for bit in range(4):
        cluster, _ = make_cluster(EXAMPLE, seed=13 + bit,
                                  params=small_params(m=28))
        try:
            orig_send = cluster.do.csp_ch.send

            def tampered(frame, _bit=bit):
                if frame.ftype == transport.SHARES:
                    frame = Frame(frame.ftype, frame.session_id,
                                  bytes([frame.payload[0] ^ (1 << _bit)]))
                orig_send(frame)

            cluster.do.csp_ch.send = tampered
            with pytest.raises(SessionAborted):
                cluster.encrypt(15)
        finally:
            cluster.close()


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


def test_owner_view_does_not_depend_on_rebalancing(monkeypatch):
    # a rebalance stays on the server: per session, the owner gets the
    # same frames of the same lengths from the server, and sends it the
    # same ones, whether the session rebalanced or not
    params = small_params(m=67)
    data = [9000, 100, 52000, 7, 31000, 2500, 640, 12000]
    cluster, ctx = make_cluster(data, seed=61, params=params, record=True)
    table = ctx["table"]
    rebalances = count_rebalances(monkeypatch)
    views = {}  # table height -> [(rebalanced, owner's frames)]

    def sent(name, start):
        return [(blob[4], len(blob))
                for blob in cluster.transcripts()[name][start[name]:]]

    try:
        for xbar in range(1000, 51000, 2500):
            start = {n: len(v) for n, v in cluster.transcripts().items()}
            height, before = table.height, len(rebalances)
            cluster.encrypt(xbar)
            to_owner, from_owner = sent("csp->do", start), \
                sent("do->csp", start)
            assert {t for t, _ in to_owner} <= {transport.RANDOMIZED_NODE,
                                                transport.ABORT}
            assert {t for t, _ in from_owner} == {transport.SHARES}
            views.setdefault(height, []).append(
                (len(rebalances) > before, to_owner, from_owner))
        assert not cluster.errors
    finally:
        cluster.close()
    assert rebalances
    mixed = [h for h, v in views.items() if len({r for r, *_ in v}) == 2]
    assert mixed, "no height saw sessions with and without a rebalance"
    for sessions in views.values():
        assert len({(tuple(a), tuple(b)) for _, a, b in sessions}) == 1


def test_masked_bits_look_uniform():
    # analyst-side masked outputs over repeated identical comparisons
    cluster, _ = make_cluster([42], seed=29)
    try:
        for ch in cluster.channels:
            if ch.name == "da->do":
                ch.record = True
        for _ in range(60):
            cluster.encrypt(7)  # fixed query, fixed singleton node
        frames = [transport.decode_frame(b[4:]) for ch in cluster.channels
                  if ch.name == "da->do" for b in ch.transcript]
        bits_e = [f.payload[0] & 1 for f in frames
                  if f.ftype == transport.GC_RESULT]
        bits_g = [(f.payload[0] >> 1) & 1 for f in frames
                  if f.ftype == transport.GC_RESULT]
        assert len(bits_e) >= 60
        for bits in (bits_e, bits_g):
            ones = sum(bits)
            assert 0.25 < ones / len(bits) < 0.75
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
                    c, _ = paillier.parse_cipher_record(
                        f.payload, 0, sk.public.key_id, sk.public.key_bits)
                    vals.append(paillier.decrypt(sk, c))
        assert len(vals) == 40
        span = 1 << (params.l + params.k)
        assert max(vals) - min(vals) > span // 8
        assert all(v >= 1000 for v in vals)
    finally:
        cluster.close()


def test_cluster_restored_from_state_dirs(tmp_path, monkeypatch):
    params = small_params(m=19)
    data = [10, 20, 30]
    oracle = Mope2Oracle(params.m).load(data)
    cluster, ctx = make_cluster(data, seed=89, params=params)
    cluster.csp.rows = rows_of(ctx["owner"])
    try:
        for xbar in (15, 17):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
    finally:
        cluster.close()
    table = ctx["table"]
    datastore.save_csp_state(tmp_path / "csp", params, ctx["pk"],
                             {DEFAULT_COLUMN: table}, cluster.csp.rows)
    datastore.save_do_state(tmp_path / "do", params, ctx["sk"])
    params2, pk, tables, rows = datastore.load_csp_state(tmp_path / "csp")
    params3, sk, mac_params = datastore.load_do_state(tmp_path / "do")
    assert params2 == params3 == params and pk == sk.public
    assert ope_state.serialize_table(tables[DEFAULT_COLUMN]) == \
        ope_state.serialize_table(table)
    saved = [r.orders[DEFAULT_COLUMN] for r in rows.rows]

    restored = LocalCluster(tables, sk, params, seed=90,
                            mac_params=mac_params, ot_group=GROUP_TEST)
    restored.csp.rows = rows
    rebalances = count_rebalances(monkeypatch)
    try:
        # 18 and 19 exhaust their gap: a rebalance in the restored cluster
        for xbar in (18, 19, 16, 20):
            assert restored.encrypt(xbar) == oracle.encrypt(xbar)
        assert rebalances
        # the rows moved with the rebalance and still decrypt, through
        # the table, to the data
        assert [r.orders[DEFAULT_COLUMN] for r in rows.rows] != saved
        assert row_plaintexts(rows, tables[DEFAULT_COLUMN], sk) == data
        assert restored.da.query({DEFAULT_COLUMN: (None, None, True, True)}) \
            == len(data)
        assert not restored.errors
    finally:
        restored.close()


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
    cluster, _ = make_cluster(EXAMPLE, seed=73, transport_kind=kind)
    release = threading.Event()
    # without a timeout, closing the channels ends the wait, so a
    # regression fails here rather than hangs
    watchdog = threading.Timer(5, cluster.close)
    try:
        for ch in cluster.channels:
            ch.timeout = 0.3
        # the owner takes its round's node and never answers
        cluster.do._round = lambda frame: release.wait(30)
        watchdog.start()
        t0 = time.monotonic()
        with pytest.raises(FramingError, match="timed out"):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 10 * 0.3
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


def test_fh_shares_carry_no_equality_bit():
    data = [7, 7, 9]
    cluster, _ = make_cluster(data, seed=53, params=fh_params())
    try:
        for ch in cluster.channels:
            if ch.name in ("da->csp", "do->csp"):
                ch.record = True
        cluster.encrypt(7)
        cluster.encrypt(8)
        shares = [transport.decode_frame(b[4:]) for ch in cluster.channels
                  if ch.name in ("da->csp", "do->csp")
                  for b in ch.transcript]
        shares = [f for f in shares if f.ftype == transport.SHARES]
        assert shares
        assert all(f.payload[0] >> 2 == 0 for f in shares)
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
    """A row store with one row per pair set-up assigned, in ingestion
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

    def counting(table):
        sizes.append(len(table))
        return real(table)

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
        before = ope_state.serialize_table(table)
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
        assert ope_state.serialize_table(table) == before

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
