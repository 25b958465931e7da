"""Three-party sessions over loopback: correctness, hiding, aborts."""

import math
import threading
import time
import warnings

import pytest

from oracles import Mope2Oracle, min_max_orders, rank_interval_holds, \
    sandwich_holds

from oope import datastore, ope_state, paillier, transport
from oope.cluster import build_cluster
from oope.engine import ProtocolParams
from oope.errors import (ConfigurationError, FramingError, ProtocolError,
                         SessionAborted, UsageError)
from oope.ot import GROUP_TEST
from oope.rng import make_rng
from oope.transport import Frame

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


def test_aborted_insert_restores_table():
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=41, params=params)
    try:
        table_before = ope_state.table_to_bytes(ctx["table"])
        orig_send = cluster.da.csp_ch.send

        def minmax_in_det_mode(frame):
            # the server stores the upload, then refuses min/max in det
            # mode and must roll the insert back
            if frame.ftype == transport.SESSION_START:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([1]) + frame.payload[1:])
            orig_send(frame)

        cluster.da.csp_ch.send = minmax_in_det_mode
        with pytest.raises(SessionAborted, match="frequency-hiding"):
            cluster.encrypt(15)
        cluster.da.csp_ch.send = orig_send
        assert ope_state.table_to_bytes(ctx["table"]) == table_before
        oracle = Mope2Oracle(params.m).load(EXAMPLE)
        assert cluster.encrypt(15) == oracle.encrypt(15)
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
@pytest.mark.parametrize("damage", ["session_start", "da_shares",
                                    "do_shares", "gc_result_empty",
                                    "gc_result_long"])
def test_malformed_bit_vectors_abort_and_service_continues(mode, damage):
    params = small_params(mode=mode)
    cluster, ctx = make_cluster(EXAMPLE, seed=55, params=params)
    try:
        # a dead serve thread fails this test in seconds, not minutes
        cluster.da.csp_ch.timeout = cluster.da.da_do_ch.timeout = 5
        orders_before = ctx["table"].orders()
        ftype, payload, end = {
            "session_start": (transport.SESSION_START, b"", cluster.da.csp_ch),
            "da_shares": (transport.SHARES, b"", cluster.da.csp_ch),
            "do_shares": (transport.SHARES, b"", cluster.do.csp_ch),
            "gc_result_empty": (transport.GC_RESULT, b"", cluster.da.da_do_ch),
            "gc_result_long": (transport.GC_RESULT, b"\0\0",
                               cluster.da.da_do_ch)}[damage]
        orig_send = end.send

        def damaged(frame):
            if frame.ftype == ftype:
                frame = Frame(frame.ftype, frame.session_id, payload)
            orig_send(frame)

        end.send = damaged
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="bit vector"):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        end.send = orig_send
        assert ctx["table"].orders() == orders_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
        assert not cluster.errors
    finally:
        cluster.close()


@pytest.mark.parametrize("plaintext", ["bound", "N-1"])
def test_out_of_range_blinded_node_aborts_at_owner(plaintext):
    # the owner decrypts blinded nodes mod P; a node at the bound or at
    # N-1 must still fail its range check
    params = small_params()
    cluster, ctx = make_cluster(EXAMPLE, seed=49, params=params)
    try:
        pk = ctx["pk"]
        value = {"bound": (1 << (params.l + params.k)) + (1 << params.l),
                 "N-1": pk.n - 1}[plaintext]
        orders_before = ctx["table"].orders()
        orig_send = cluster.csp.do_ch.send

        def substituted(frame):
            if frame.ftype == transport.RANDOMIZED_NODE:
                frame = Frame(frame.ftype, frame.session_id,
                              paillier.cipher_record(
                                  paillier.encrypt(pk, value, make_rng(1)),
                                  pk.key_bits))
            orig_send(frame)

        cluster.csp.do_ch.send = substituted
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="out of range"):
            cluster.encrypt(15)
        assert time.monotonic() - t0 < 5
        cluster.csp.do_ch.send = orig_send
        assert ctx["table"].orders() == orders_before
        assert cluster.encrypt(15) == \
            Mope2Oracle(params.m).load(EXAMPLE).encrypt(15)
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

        def minmax_in_det_mode(frame):
            if frame.ftype == transport.SESSION_START:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([1]) + frame.payload[1:])
            orig_send(frame)

        h = ctx["table"].height
        cluster.encrypt(150)
        # aborted after its first round, then after its last one
        for tamper, match in ((flip_share, "disagree"),
                              (minmax_in_det_mode, "frequency-hiding")):
            cluster.da.csp_ch.send = tamper
            with pytest.raises(SessionAborted, match=match):
                cluster.encrypt(250)
            cluster.da.csp_ch.send = orig_send
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


def test_aborted_rebalance_leaves_owner_and_rows_on_table_orders(
        monkeypatch):
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, owner, sk = ctx["table"], ctx["owner"], ctx["sk"]
    rows = datastore.RowStore(
        public_columns=[], ope_columns=[""],
        rows=[datastore.EncryptedRow(i, {}, {"": y})
              for i, (_, y) in enumerate(owner.pairs)])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    real_apply = owner.apply_remap

    def slow_apply(remap):
        # a slow owner makes a session that returns before its owner
        # follows the table fail on every run, not just on some
        time.sleep(0.2)
        real_apply(remap)

    monkeypatch.setattr(owner, "apply_remap", slow_apply)

    def in_step():
        # no settling session: the owner acknowledged every remap before
        # the session that made it returned
        assert [r.orders[""] for r in rows.rows] == [y for _, y in owner.pairs]
        for x, y in owner.pairs:
            assert paillier.decrypt(sk, table.get(y).cipher) == x

    def consistent():
        # a session for a stored value changes nothing
        assert cluster.encrypt(10) == oracle.encrypt(10)
        in_step()

    try:
        for xbar in (15, 17, 18):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
            in_step()
        consistent()
        rebalances = []
        real_rebalance = ope_state.rebalance

        def counting_rebalance(t):
            rebalances.append(len(t))
            return real_rebalance(t)

        monkeypatch.setattr(ope_state, "rebalance", counting_rebalance)
        orig_send = cluster.da.csp_ch.send

        def minmax_in_det_mode(frame):
            # the server rebalances, stores the upload, then refuses
            # min/max in det mode and rolls the session back
            if frame.ftype == transport.SESSION_START:
                frame = Frame(frame.ftype, frame.session_id,
                              bytes([1]) + frame.payload[1:])
            orig_send(frame)

        cluster.da.csp_ch.send = minmax_in_det_mode
        with pytest.raises(SessionAborted, match="frequency-hiding"):
            cluster.encrypt(19)
        cluster.da.csp_ch.send = orig_send
        assert rebalances == [6]
        consistent()
        assert cluster.encrypt(19) == oracle.encrypt(19)
        in_step()
        assert len(rebalances) == 2
        consistent()
        assert not cluster.errors
    finally:
        cluster.close()


def test_owner_refusing_a_rebalance_aborts_and_rolls_back(monkeypatch):
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    table, owner = ctx["table"], ctx["owner"]
    rows = datastore.RowStore(
        public_columns=[], ope_columns=[""],
        rows=[datastore.EncryptedRow(i, {}, {"": y})
              for i, (_, y) in enumerate(owner.pairs)])
    cluster.csp.rows = rows
    oracle = Mope2Oracle(params.m).load(data)
    try:
        for xbar in (15, 17):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        table_before = ope_state.table_to_bytes(table)
        pairs_before = list(owner.pairs)
        real_apply = cluster.do._apply_remap

        def refuse(payload):
            raise ProtocolError("remap refused")

        # the session for 18 needs a rebalance
        monkeypatch.setattr(cluster.do, "_apply_remap", refuse)
        t0 = time.monotonic()
        with pytest.raises(SessionAborted, match="remap refused"):
            cluster.encrypt(18)
        assert time.monotonic() - t0 < 5
        assert ope_state.table_to_bytes(table) == table_before
        assert owner.pairs == pairs_before
        assert [r.orders[""] for r in rows.rows] == [y for _, y in owner.pairs]
        monkeypatch.setattr(cluster.do, "_apply_remap", real_apply)
        assert cluster.encrypt(18) == oracle.encrypt(18)
        assert owner.pairs != pairs_before
        assert [r.orders[""] for r in rows.rows] == [y for _, y in owner.pairs]
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


def test_session_counter_hook():
    cluster, _ = make_cluster(EXAMPLE, seed=19, params=small_params(m=28))
    try:
        assert cluster.csp.sessions_served == 0
        cluster.encrypt(25)
        cluster.encrypt(15)
        assert cluster.csp.sessions_served == 2
    finally:
        cluster.close()


def test_rebalance_mid_session():
    # tiny order space forces a unit gap quickly
    params = small_params(m=19)
    data = [10, 20, 30]
    cluster, ctx = make_cluster(data, seed=23, params=params)
    try:
        oracle = Mope2Oracle(params.m).load(data)
        for xbar in (15, 17, 18, 19, 16):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
        sk = ctx["sk"]
        decs = sorted((e.order, paillier.decrypt(sk, e.cipher))
                      for e in ctx["table"].entries())
        plain = [x for _, x in decs]
        assert plain == sorted(plain)
        # the owner mirror followed the remap
        owner_orders = dict(ctx["owner"].pairs)
        for x, y in owner_orders.items():
            assert ctx["table"].get(y) is not None
        assert not cluster.errors
    finally:
        cluster.close()


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
                    c, _ = paillier.parse_cipher_record(f.payload, 0,
                                                        sk.public.key_id)
                    vals.append(paillier.decrypt(sk, c))
        assert len(vals) == 40
        span = 1 << (params.l + params.k)
        assert max(vals) - min(vals) > span // 8
        assert all(v >= 1000 for v in vals)
    finally:
        cluster.close()


def test_uid_upload_mode():
    params = small_params(m=28, uid_upload=True)
    cluster, ctx = make_cluster(EXAMPLE, seed=37, params=params)
    try:
        assert cluster.encrypt(15) == 6
        entry = ctx["table"].get(6)
        assert entry.cipher is None and entry.tag is not None
        # later traversals that hit the uid node still work
        oracle = Mope2Oracle(params.m).load(EXAMPLE)
        oracle.encrypt(15)
        for xbar in (14, 16, 13):
            assert cluster.encrypt(xbar) == oracle.encrypt(xbar)
    finally:
        cluster.close()


def test_uid_upload_table_roundtrip():
    params = small_params(m=28, uid_upload=True)
    cluster, ctx = make_cluster(EXAMPLE, seed=37, params=params)
    try:
        cluster.encrypt(15)
    finally:
        cluster.close()
    table = ctx["table"]
    blob = ope_state.table_to_bytes(table)
    parsed = ope_state.parse_table(blob)
    fields = [(e.order, e.cipher, e.tag, e.node_tag) for e in table.entries()]
    assert [(e.order, e.cipher, e.tag, e.node_tag)
            for e in parsed.entries()] == fields
    assert parsed.get(6).cipher is None and parsed.get(6).tag is not None
    assert ope_state.table_to_bytes(parsed) == blob


# --- transports and the receive timeout -------------------------------------

def test_unknown_transport_kind_rejected():
    with pytest.raises(ConfigurationError, match="'TCP'"):
        make_cluster(EXAMPLE, transport_kind="TCP")


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


def test_fh_minmax_requires_fh_mode():
    cluster, _ = make_cluster(EXAMPLE, seed=67, params=small_params(m=28))
    try:
        with pytest.raises(UsageError):
            cluster.encrypt(15, minmax=True)
    finally:
        cluster.close()
