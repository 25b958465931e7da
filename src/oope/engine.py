"""Role state machines for oblivious order-preserving encryption.

Three engines cooperate per session: the server (CSP) searches its
sorted table and orchestrates, the key owner (DO) decrypts blinded
nodes and generates comparison circuits, the analyst (DA) evaluates
them.  The search is an implicit binary search: the node of each round
is the order at the midpoint of an index range that starts as the whole
table and halves towards the side the comparison names, which visits
exactly the nodes of the balanced mOPE tree over those orders.  Per
round the server blinds the current node additively, owner and analyst
compare the blinded values inside a garbled circuit whose outputs carry
XOR masks from both, and the server unmasks the bits from the two share
messages, cross-checking both reconstructions.  The round ends alike
in both modes: owner and analyst each draw one mask bit per masked
circuit output (ProtocolParams.masked_outputs: two in det, one in fh),
the analyst returns the masked outputs to the owner (GC_RESULT), and
each sends the server its masks and the outputs with its own mask taken
off (SHARES).  A session always runs exactly h = ceil(log2(n+1))
comparison rounds; once the search stops, the remaining rounds replay
the same node so neither the owner nor the analyst learns where the
value landed.

No full-size exponentiation waits on a peer where it need not.  A
round's blind, r and Enc(r) (plus r' and Enc(r') under Pedersen),
does not depend on the comparison, so the server makes it one round
ahead: right after sending a round's frames and before waiting for its
shares.  The blind made in a session's last round serves the next
session's first.  A blind is spent once its round starts sending, so
one that an abort leaves unsent serves a later round, and none is sent
twice.  The analyst builds its whole upload right after SESSION_START,
while the peers run the first round, and sends it unchanged once the
order arrives.  The owner decrypts blinded nodes with the mod-P half of
the CRT alone (paillier.decrypt), since it range-checks them; the
Pedersen a + r' has no range check and stays on the full CRT.  These
exponentiations release the interpreter lock, so they overlap the
peers' work.

A session that runs out of gaps rebalances the table at once but hands
the remap to the owner (REBALANCE) only at its commit point, just
before SESSION_DONE.  The owner acknowledges it with an empty
REBALANCE, and the server applies the remap to its row store and ends
the session only after that, so when the analyst's encrypt returns,
owner, table and rows hold the same orders.

Garbled labels are 128-bit ints (garbling); the owner hands its OT
sender int label pairs and the analyst gets ints back from its OT
receiver, so labels are bytes only inside GC_PAYLOAD and OT_MSG.

In frequency-hiding mode the circuit emits a single traversal bit that
hides equality behind a sticky shared coin, duplicates get fresh
orders, and a follow-up exchange hands the analyst the minimum and
maximum order of its plaintext for query rewriting.

Abort discipline: an engine raises a fault it finds itself and never
aborts inline.  One handler per engine (run_session at the server, the
serve loop at the owner, encrypt at the analyst) sends ABORT to both
peers; the server's also rolls the session back.  A request the server
cannot even start, such as a SESSION_START without its op byte, only
concerns the analyst, and the server's serve loop aborts it there.  An
abort received from a peer is passed on only where the third party may
be waiting on a channel the sender did not use: the analyst relays an
owner's abort to the server, which may be waiting on the analyst's
shares, and the server relays an owner's abort to the analyst, which
may be waiting on the server alone.  A bit vector of the wrong shape is
a ProtocolError like any other malformed frame.  Stale aborts from a
dead session are dropped by session-id filtering in Channel.recv.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from . import garbling, integrity, ope_state, paillier, transport
from .comparator import build_comparator, build_fh_comparator, int_to_bits
from .errors import (CapacityError, ConfigurationError, GapExhausted,
                     HandshakeError, IntegrityError, OopeError,
                     ProtocolError, SessionAborted, UsageError)
from .ope_state import MODE_DET, MODE_FH, OpeEntry, OpeTable
from .ot import GROUP_DEFAULT, OtExtReceiver, OtExtSender
from .rng import make_rng
from .transport import (CIPHER_UPLOAD, CLEANUP, CLEANUP_DONE, Frame,
                        GC_PAYLOAD, GC_RESULT, QUERY_EXEC, QUERY_RESULT,
                        INTEGRITY_PROOF, INTEGRITY_TAG, MINMAX_RANDOMS,
                        MINMAX_SELECTED, MINMAX_TRIPLE, NULL_SESSION,
                        ORDER_RESULT, OT_MSG, RANDOM_OFFSET, RANDOMIZED_NODE,
                        REBALANCE, SESSION_DONE, SESSION_START, SHARES,
                        UID_COMPARE)
from .wire import fixed_bytes, lp, read_bytes, read_int, read_lp, u16, u32

OP_ENCRYPT = 0
OP_ENCRYPT_MINMAX = 1

UPLOAD_CIPHER = 0
UPLOAD_UID = 1

OFFSET_BYTES = 16      # additive blinding offsets on the wire
PED_BLIND_BYTES = 64   # commitment-randomness blinding offsets
DA_KEY_EXTRA_BITS = 64  # analyst modulus strictly dominates the owner's


_SCHEME_OFF = integrity.SCHEME_OFF
_DEFAULT_SUBGROUP_BITS = integrity.DEFAULT_SUBGROUP_BITS


@dataclass
class ProtocolParams:
    """Shared protocol parameters; the digest gates every handshake."""

    l: int = 32
    k: int = 32
    m: int = (1 << 32) - 5
    mode: str = MODE_DET
    key_bits: int = 2048
    integrity: str = _SCHEME_OFF
    mac_subgroup_bits: int = _DEFAULT_SUBGROUP_BITS
    uid_upload: bool = False

    @property
    def width(self) -> int:
        # compared values are x+r with r < 2^(l+k), so sums need one
        # extra carry bit
        return self.l + self.k + 1

    @property
    def masked_outputs(self) -> int:
        # det's circuit emits [xbar != x] and [xbar > x], fh's one
        # traversal bit, and its further outputs are next-round state
        return 1 if self.mode == MODE_FH else 2

    def digest(self) -> bytes:
        blob = (b"oope-params" + u16(transport.PROTOCOL_VERSION) +
                u16(self.l) + u16(self.k) + fixed_bytes(self.m, 16) +
                self.mode.encode() + b"|" + self.integrity.encode() +
                bytes([self.uid_upload]) + u16(self.key_bits) +
                u16(self.mac_subgroup_bits))
        return hashlib.sha256(blob).digest()

    def validate(self):
        if self.mode not in (MODE_DET, MODE_FH):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.integrity == integrity.SCHEME_PEDERSEN and \
                self.key_bits < self.mac_subgroup_bits + self.k + 8:
            raise ConfigurationError(
                "key too small to blind commitment randomness")
        if self.mac_subgroup_bits + self.k > 8 * PED_BLIND_BYTES:
            raise ConfigurationError("commitment blinding exceeds wire width")
        if self.uid_upload and self.mode == MODE_FH:
            raise ConfigurationError(
                "uid upload is excluded from frequency-hiding mode")

    def build_circuit(self):
        if self.mode == MODE_FH:
            return build_fh_comparator(self.width)
        return build_comparator(self.width)


@dataclass
class ServerState:
    """One column's state at the server: the table and the owner's key."""

    table: OpeTable
    pk_owner: paillier.PaillierPublicKey
    pk_analyst: Optional[paillier.PaillierPublicKey] = None


DEFAULT_COLUMN = ""


def _offset_blob(v: int) -> bytes:
    return fixed_bytes(v, OFFSET_BYTES)


def _pack_bits(bits) -> bytes:
    v = 0
    for i, b in enumerate(bits):
        v |= (b & 1) << i
    return bytes([v])


def _unpack_bits(blob: bytes, n: int):
    """The n bits _pack_bits packed into one byte; any other blob is a
    ProtocolError."""
    if len(blob) != 1 or blob[0] >> n:
        raise ProtocolError(f"malformed {n}-bit vector")
    return [(blob[0] >> i) & 1 for i in range(n)]


def _shares(masks, masked) -> bytes:
    """SHARES payload: a party's mask bits, then each masked circuit
    output with that party's mask taken off, so it still carries the
    other party's."""
    return _pack_bits(list(masks) + [m ^ b for m, b in zip(masked, masks)])


def wire_group(v: int, mac_params) -> bytes:
    return fixed_bytes(v, (mac_params.p.bit_length() + 7) // 8)


def make_node_tagger(scheme, mac_params, pk, rng):
    """Closure mapping a plaintext x to its serialized integrity tag: the
    DL-MAC g^x, or the Pedersen commitment to x under a fresh a followed
    by Enc(a).  The owner tags each plaintext at initialization and the
    analyst its upload, so both build a tag the same way."""
    if scheme == integrity.SCHEME_OFF:
        return None
    if scheme == integrity.SCHEME_DLMAC:
        def tag(x):
            return wire_group(integrity.dl_mac_make(x, mac_params),
                              mac_params)
        return tag

    def tag(x):
        a = rng.randrange(mac_params.q)
        commit = integrity.ped_commit_make(x, a, mac_params)
        return lp(wire_group(commit, mac_params)) + \
            paillier.cipher_record(paillier.encrypt(pk, a, rng), pk.key_bits)
    return tag


def _ot_link(ch, session):
    """send/recv callables carrying OT extension messages over ch.

    Each message is tagged with the session current at the call and
    numbered from a counter both directions share, so a reordered or
    replayed message is a ProtocolError.
    """
    seq = 0

    def send(blob):
        nonlocal seq
        ch.send(Frame(OT_MSG, session(), u32(seq) + blob))
        seq += 1

    def recv():
        nonlocal seq
        frame = ch.recv(OT_MSG, session=session())
        got, _ = read_int(frame.payload, 0, 4)
        if got != seq:
            raise ProtocolError(f"OT message out of order ({got})")
        seq += 1
        return frame.payload[4:]

    return send, recv


def _query_from_spec(payload: bytes):
    """RangeQuery from a QUERY_EXEC payload; anything malformed is a
    ProtocolError, which the serve loop turns into ABORT."""
    from . import datastore
    try:
        spec = json.loads(payload)
    except ValueError:
        raise ProtocolError("query spec is not JSON") from None
    if not isinstance(spec, dict) or not isinstance(spec.get("bounds"), dict):
        raise ProtocolError("query spec lacks a bounds object")
    bounds = {}
    for col, iv in spec["bounds"].items():
        if not (isinstance(iv, list) and len(iv) == 4 and
                all(v is None or type(v) is int for v in iv[:2]) and
                all(type(v) is bool for v in iv[2:])):
            raise ProtocolError(f"malformed interval for column {col!r}")
        bounds[col] = tuple(iv)
    projection = spec.get("projection")
    if projection is not None and not (
            isinstance(projection, list) and
            all(isinstance(c, str) for c in projection)):
        raise ProtocolError("projection must be a list of column names")
    return datastore.RangeQuery(bounds=bounds, projection=projection)


def _parse_ped_tag(blob, key_id):
    if not blob:
        raise IntegrityError("node lacks its integrity tag")
    commit, off = read_lp(blob, 0)
    a_cipher, off = paillier.parse_cipher_record(blob, off, key_id)
    return commit, a_cipher


# ---------------------------------------------------------------------------
# Server engine

class CspEngine:
    """Holds the OPE state and orchestrates sessions one at a time."""

    def __init__(self, states: dict, params: ProtocolParams, rng=None):
        params.validate()
        self.states = states  # column -> ServerState
        self.state = next(iter(states.values()))
        self._column = DEFAULT_COLUMN
        self.rows = None  # optional RowStore for query execution
        self.params = params
        self.rng = rng or make_rng()
        self.do_ch = None
        self.da_ch = None
        self.sessions_served = 0  # rate-limiting hook for host applications
        self._blind = None  # the next round's blind, made but never sent

    def attach(self, do_ch, da_ch):
        self.do_ch = do_ch
        self.da_ch = da_ch
        digest = self.params.digest()
        role, do_extra = transport.handshake(do_ch, transport.ROLE_CSP, digest)
        if role != transport.ROLE_DO:
            raise HandshakeError("expected the owner on the first connection")
        pk_do, _ = paillier.parse_public_key(do_extra)
        if pk_do.key_id != self.state.pk_owner.key_id:
            raise HandshakeError("owner key does not match server state")
        extra = paillier.serialize_public_key(self.state.pk_owner)
        role, da_extra = transport.handshake(da_ch, transport.ROLE_CSP, digest,
                                             extra)
        if role != transport.ROLE_DA:
            raise HandshakeError("expected the analyst on the second "
                                 "connection")
        if da_extra:
            pk_da, _ = paillier.parse_public_key(da_extra)
            for st in self.states.values():
                st.pk_analyst = pk_da

    def serve(self):
        """Accept requests until the analyst channel closes.

        The wait for the next request has no time limit; every other
        receive has the channel's.  A request that fails with an
        OopeError is aborted towards the analyst and the loop goes on; a
        stale abort or a frame that opens no request is dropped.  Only a
        dead channel ends the loop.
        """
        while True:
            try:
                frame = self.da_ch.recv(SESSION_START, QUERY_EXEC, CLEANUP,
                                        idle=True)
            except (ProtocolError, SessionAborted):
                if self.da_ch.poisoned:
                    return
                continue
            try:
                if frame.ftype == QUERY_EXEC:
                    self._exec_query(frame)
                elif frame.ftype == CLEANUP:
                    self._exec_cleanup(frame)
                else:
                    op, = _unpack_bits(frame.payload[:1], 1)
                    column = frame.payload[1:].decode("utf-8", "replace")
                    self.run_session(frame.session_id, op, column)
            except SessionAborted:
                continue
            except OopeError as e:
                self.da_ch.abort(frame.session_id, str(e))

    def run_session(self, sid: bytes, op: int, column: str = DEFAULT_COLUMN):
        """Protocol main loop: h compare rounds, order assignment, upload.

        A fault found here aborts the session at both peers; an abort
        from the owner is passed on to the analyst, which may be waiting
        on the server alone.  Either way the session is rolled back.
        """
        undo = []
        try:
            if column not in self.states:
                raise ProtocolError(f"unknown column {column!r}")
            self.state = self.states[column]
            self._column = column
            table = self.state.table
            # implicit binary search: the node is the order at the
            # midpoint of [lo, hi); det moves only on inequality (b_e),
            # fh always moves, and an empty half keeps the node
            lo, hi = 0, len(table)
            b_e, side = 1, 0
            for _ in range(table.height):
                mid = (lo + hi) // 2
                b_e, side = self._compare_round(sid, table.order_at(mid))
                if b_e and side and mid + 1 < hi:
                    lo = mid + 1
                elif b_e and not side and lo < mid:
                    hi = mid

            node = table.order_at((lo + hi) // 2) if table else None
            is_known, remap = False, None
            if node is None:
                ybar = ope_state.assign_order(0, table.m)
            elif b_e == 0:
                ybar, is_known = node, True
            else:
                ybar, remap = self._encrypt_order(side, node, undo)

            self.da_ch.send(Frame(ORDER_RESULT, sid, _offset_blob(ybar)))
            upload = self.da_ch.recv(CIPHER_UPLOAD, session=sid)
            if not is_known:
                self._store_upload(sid, upload.payload, ybar, undo)
            if op == OP_ENCRYPT_MINMAX:
                if self.params.mode != MODE_FH:
                    raise ProtocolError("min/max orders exist only in "
                                        "frequency-hiding mode")
                self._min_max(sid, ybar)
            if remap is not None:
                # owner and row store follow a rebalance only once the
                # session can no longer roll it back
                self._publish_remap(sid, remap)
            self.do_ch.send(Frame(SESSION_DONE, sid))
            self.da_ch.send(Frame(SESSION_DONE, sid))
            self.sessions_served += 1
            return ybar
        except SessionAborted as e:
            for action in reversed(undo):
                action()
            if e.remote and e.channel is self.do_ch:
                self.da_ch.abort(sid, e.reason)
            raise
        except OopeError as e:
            for action in reversed(undo):
                action()
            self.da_ch.abort(sid, str(e))
            self.do_ch.abort(sid, str(e))
            raise SessionAborted(str(e)) from e

    # -- rounds --

    def _make_blind(self):
        """(r, Enc(r), rp, Enc(rp)) for one round; rp and Enc(rp) blind
        the commitment randomness and are None unless Pedersen."""
        p = self.params
        pk = self.state.pk_owner
        r = self.rng.randrange(0, 1 << (p.l + p.k))
        c_r = paillier.encrypt(pk, r, self.rng)
        rp = c_rp = None
        if p.integrity == integrity.SCHEME_PEDERSEN:
            rp = self.rng.randrange(0, 1 << (p.mac_subgroup_bits + p.k))
            c_rp = paillier.encrypt(pk, rp, self.rng)
        return r, c_r, rp, c_rp

    def _blind_node(self, sid, entry):
        p = self.params
        pk = self.state.pk_owner
        r, c_r, rp, c_rp = self._blind or self._make_blind()
        payload = paillier.cipher_record(
            paillier.hom_add(pk, entry.cipher, c_r), pk.key_bits)
        extra_da = b""
        if p.integrity == integrity.SCHEME_DLMAC:
            if not entry.node_tag:
                raise IntegrityError("node lacks its integrity tag")
            extra_da = lp(entry.node_tag)
        elif p.integrity == integrity.SCHEME_PEDERSEN:
            commit_blob, a_cipher = _parse_ped_tag(entry.node_tag, pk.key_id)
            payload += paillier.cipher_record(
                paillier.hom_add(pk, a_cipher, c_rp), pk.key_bits)
            extra_da = lp(commit_blob) + fixed_bytes(rp, PED_BLIND_BYTES)
        self._blind = None  # spent from the first send on, sent or not
        self.do_ch.send(Frame(RANDOMIZED_NODE, sid, payload))
        self.da_ch.send(Frame(RANDOM_OFFSET, sid, _offset_blob(r)))
        if p.integrity != integrity.SCHEME_OFF:
            self.da_ch.send(Frame(INTEGRITY_TAG, sid, extra_da))
        # the next round's blind, in this session or the next, is made
        # while owner and analyst work on this round
        self._blind = self._make_blind()

    def _compare_round(self, sid, node_order):
        """(b_e, side) for one node.  Each output is rebuilt twice,
        crosswise: one peer's masked output with its mask taken off,
        XOR the other peer's mask."""
        entry = self.state.table.get(node_order)
        if entry.cipher is None:
            return self._uid_compare_round(sid, entry)
        self._blind_node(sid, entry)
        n = self.params.masked_outputs
        da = _unpack_bits(self.da_ch.recv(SHARES, session=sid).payload, 2 * n)
        do = _unpack_bits(self.do_ch.recv(SHARES, session=sid).payload, 2 * n)
        bits = [da[n + i] ^ do[i] for i in range(n)]
        if bits != [do[n + i] ^ da[i] for i in range(n)]:
            raise IntegrityError("comparison share reconstructions disagree")
        # fh's one traversal bit always moves the search
        return (1, bits[0]) if n == 1 else tuple(bits)

    def _uid_compare_round(self, sid, entry):
        # analyst-owned node: the analyst alone resolves the comparison
        self.da_ch.send(Frame(UID_COMPARE, sid, entry.tag))
        bits = _unpack_bits(self.da_ch.recv(SHARES, session=sid).payload, 2)
        return bits[0], bits[1]

    # -- order assignment and state updates --

    def _encrypt_order(self, b_g, node_order, undo):
        """(fresh order, remap of the rebalance it needed or None)."""
        table = self.state.table
        direction = "right" if b_g else "left"
        y_l, y_r, _ = table.neighbors(node_order, direction)
        try:
            return ope_state.assign_order(y_l, y_r), None
        except GapExhausted:
            if self.params.mode == MODE_FH:
                raise CapacityError(
                    "unit gap requires a rebalance, which frequency-hiding "
                    "state does not support") from None
            remap = self._rebalance(undo)
            node_order = remap[node_order]
            y_l, y_r, _ = table.neighbors(node_order, direction)
            try:
                return ope_state.assign_order(y_l, y_r), remap
            except GapExhausted:
                # uniform respread left no room here: M is too dense
                raise CapacityError("order space too dense for another "
                                    "entry at this position") from None

    def _rebalance(self, undo):
        table = self.state.table
        remap = ope_state.rebalance(table)
        undo.append(lambda: table.reassign_orders(
            {v: k for k, v in remap.items()}))
        return remap

    def _publish_remap(self, sid, remap):
        """Hand a committed rebalance to the owner and, once the owner
        acknowledges it, to the row store; the session ends only after
        both follow the table."""
        col = self._column.encode()
        payload = u16(len(col)) + col + u32(len(remap)) + b"".join(
            _offset_blob(a) + _offset_blob(b) for a, b in sorted(remap.items()))
        self.do_ch.send(Frame(REBALANCE, sid, payload))
        self.do_ch.recv(REBALANCE, session=sid)
        if self.rows is not None:
            self.rows.apply_remap(self._column, remap)

    def _store_upload(self, sid, payload, ybar, undo):
        kind, off = read_int(payload, 0, 1)
        table = self.state.table
        pk = self.state.pk_owner
        if kind == UPLOAD_UID:
            if not self.params.uid_upload or self.params.mode == MODE_FH:
                raise ProtocolError("uid upload not allowed by configuration")
            uid, off = read_bytes(payload, off, 16)
            entry = OpeEntry(None, ybar, tag=uid)
        else:
            cipher, off = paillier.parse_cipher_record(payload, off, pk.key_id)
            entry = OpeEntry(cipher, ybar, tag=sid)
            if off < len(payload):
                entry.node_tag, off = read_lp(payload, off)
        if self.params.mode == MODE_FH:
            entry.fh_min = paillier.encrypt(pk, ybar, self.rng)
            entry.fh_max = paillier.encrypt(pk, ybar, self.rng)
        table.insert(entry)
        undo.append(lambda: table.remove(ybar))

    # -- min/max order exchange --

    def _neighbor_ciphers(self, ybar):
        """Entries around the fresh order; a virtual bound becomes a
        ciphertext of 2^l, which never equals an analyst plaintext."""
        table = self.state.table
        pk = self.state.pk_owner
        sentinel = 1 << self.params.l

        def materialize(entry):
            if entry is not None:
                return entry.cipher, entry.fh_min, entry.fh_max
            c = paillier.encrypt(pk, sentinel, self.rng)
            zero = paillier.encrypt(pk, 0, self.rng)
            return c, zero, zero

        _, _, pred = table.neighbors(ybar, "left")
        _, _, succ = table.neighbors(ybar, "right")
        return materialize(pred), materialize(succ)

    def _min_max(self, sid, ybar):
        pk = self.state.pk_owner
        pk_da = self.state.pk_analyst
        if pk_da is None:
            raise ProtocolError("analyst public key missing for min/max")
        (pred_c, pred_min, _), (succ_c, _, succ_max) = \
            self._neighbor_ciphers(ybar)
        xbar_c = self.state.table.get(ybar).cipher
        width = pk.key_bits // 8
        randoms = []
        for side, bound_c, extreme_c in ((0, pred_c, pred_min),
                                         (1, succ_c, succ_max)):
            s = self.rng.randrange(1, pk.n)
            r = paillier.fresh_r(pk, self.rng)
            randoms.append(r)
            d = paillier.hom_scale(pk, paillier.hom_sub(pk, bound_c, xbar_c),
                                   s)
            masked_y = paillier.encrypt(pk_da, ybar * r % pk.n, self.rng)
            masked_extreme = paillier.hom_scale(pk, extreme_c, r)
            self.do_ch.send(Frame(
                MINMAX_TRIPLE, sid,
                bytes([side])
                + paillier.cipher_record(d, pk.key_bits)
                + paillier.cipher_record(masked_y, pk_da.key_bits)
                + paillier.cipher_record(masked_extreme, pk.key_bits)))
        self.da_ch.send(Frame(MINMAX_RANDOMS, sid,
                              fixed_bytes(randoms[0], width) +
                              fixed_bytes(randoms[1], width)))

    def _exec_query(self, frame):
        from . import datastore
        if self.rows is None:
            raise ConfigurationError("server holds no row store")
        result = datastore.exec_range(self.rows,
                                      _query_from_spec(frame.payload))
        self.da_ch.send(Frame(QUERY_RESULT, frame.session_id,
                              json.dumps(result).encode()))

    def _exec_cleanup(self, frame):
        from . import datastore
        sids = None
        if frame.payload:
            sids = [frame.payload[i:i + 16]
                    for i in range(0, len(frame.payload), 16)]
        removed = 0
        for st in self.states.values():
            removed += datastore.cleanup_da_entries(st.table, sids)
        self.da_ch.send(Frame(CLEANUP_DONE, frame.session_id, u32(removed)))


# ---------------------------------------------------------------------------
# Owner engine

class DoEngine:
    """Decrypts blinded nodes, generates circuits, sends its shares."""

    def __init__(self, sk: paillier.PaillierPrivateKey, params: ProtocolParams,
                 rng=None, mac_params=None, owners: dict = None,
                 ot_group=GROUP_DEFAULT):
        params.validate()
        if params.integrity != integrity.SCHEME_OFF and mac_params is None:
            raise ConfigurationError("integrity enabled but no MAC parameters")
        self.sk = sk
        self.params = params
        self.rng = rng or make_rng()
        self.mac_params = mac_params
        self.owners = owners if owners is not None else {}  # column -> owner
        self.ot_group = ot_group
        self.circuit = params.build_circuit()
        self.pk_analyst = None
        self._sid = NULL_SESSION
        self._fh_shares = (0, 0)

    def attach(self, csp_ch, da_ch):
        self.csp_ch = csp_ch
        self.da_ch = da_ch
        digest = self.params.digest()
        extra = paillier.serialize_public_key(self.sk.public)
        transport.handshake(csp_ch, transport.ROLE_DO, digest, extra)
        do_extra = b""
        if self.mac_params is not None and \
                self.params.integrity != integrity.SCHEME_OFF:
            do_extra = integrity.serialize_params(self.mac_params)
        _, da_extra = transport.handshake(da_ch, transport.ROLE_DO, digest,
                                          do_extra)
        if da_extra:
            self.pk_analyst, _ = paillier.parse_public_key(da_extra)
        send, recv = _ot_link(self.da_ch, lambda: self._sid)
        self.ot_sender = OtExtSender(send, recv, self.rng, self.ot_group)
        self.ot_sender.setup()

    def serve(self):
        """Serve the server's requests until its channel closes; the wait
        for the next one has no time limit."""
        while True:
            try:
                frame = self.csp_ch.recv(RANDOMIZED_NODE, SESSION_DONE,
                                         MINMAX_TRIPLE, REBALANCE, idle=True)
            except SessionAborted:
                self._reset_session()
                continue
            except ProtocolError:
                # a frame of another type is dropped; a dead channel ends
                # the loop
                if self.csp_ch.poisoned:
                    return
                continue
            try:
                if frame.ftype == RANDOMIZED_NODE:
                    self._round(frame)
                elif frame.ftype == MINMAX_TRIPLE:
                    self._min_max(frame)
                elif frame.ftype == REBALANCE:
                    self._apply_remap(frame.payload)
                    self.csp_ch.send(Frame(REBALANCE, frame.session_id))
                else:
                    self._reset_session()
            except SessionAborted:
                self._reset_session()
            except OopeError as e:
                # a frame this engine cannot use aborts its session; a
                # dead channel ends the loop
                if self.csp_ch.poisoned or self.da_ch.poisoned:
                    return
                self.csp_ch.abort(frame.session_id, str(e))
                self.da_ch.abort(frame.session_id, str(e))
                self._reset_session()

    def _reset_session(self):
        self._sid = NULL_SESSION
        self._fh_shares = (0, 0)

    def _begin(self, sid):
        if sid != self._sid:
            self._sid = sid
            self._fh_shares = (0, 0)

    def _round(self, frame):
        self._begin(frame.session_id)
        sid = frame.session_id
        p = self.params
        payload = frame.payload
        cipher, off = paillier.parse_cipher_record(payload, 0,
                                                   self.sk.public.key_id)
        # x + r lies below this bound, far below P: the mod-P half of the
        # CRT decrypts it, and the range check keeps its strength
        # (paillier.decrypt)
        bound = (1 << (p.l + p.k)) + (1 << p.l)
        v = paillier.decrypt(self.sk, cipher, below=bound)
        if not 0 <= v < bound:
            raise IntegrityError("blinded node out of range")
        if p.integrity == integrity.SCHEME_PEDERSEN:
            a_cipher, off = paillier.parse_cipher_record(
                payload, off, self.sk.public.key_id)
            # full CRT: the analyst chose a and nothing range-checks
            # a + r', so a mod-P result would tell it whether a + r' < P
            a_blind = paillier.decrypt(self.sk, a_cipher)
            proof = integrity.ped_open(v, a_blind, self.mac_params)
            self.da_ch.send(Frame(INTEGRITY_PROOF, sid,
                                  wire_group(proof, self.mac_params)))
        elif p.integrity == integrity.SCHEME_DLMAC:
            proof = integrity.dl_open(v, self.mac_params)
            self.da_ch.send(Frame(INTEGRITY_PROOF, sid,
                                  wire_group(proof, self.mac_params)))

        gc = garbling.GarbledCircuit(self.circuit, self.rng)
        masks = [self.rng.getrandbits(1) for _ in range(p.masked_outputs)]
        gen_bits = int_to_bits(v, p.width) + masks
        if p.mode == MODE_FH:
            # coin bit, last round's state shares, this round's state masks
            r_x = self.rng.getrandbits(1)
            fresh = (self.rng.getrandbits(1), self.rng.getrandbits(1))
            gen_bits += [r_x, *self._fh_shares, *fresh]
            self._fh_shares = fresh
        self.da_ch.send(Frame(GC_PAYLOAD, sid, garbling.payload(gc, gen_bits)))
        self.ot_sender.send_pairs(gc.eval_label_pairs())
        result = self.da_ch.recv(GC_RESULT, session=sid)
        masked = _unpack_bits(result.payload, len(masks))
        self.csp_ch.send(Frame(SHARES, sid, _shares(masks, masked)))

    def _min_max(self, frame):
        """Decrypt the blinded difference and forward the selected
        analyst-key ciphertext for one side."""
        if self.pk_analyst is None:
            raise ProtocolError("analyst public key missing for min/max")
        self._begin(frame.session_id)
        payload = frame.payload
        side, off = read_int(payload, 0, 1)
        key_id = self.sk.public.key_id
        d_c, off = paillier.parse_cipher_record(payload, off, key_id)
        masked_y, off = paillier.parse_cipher_record(payload, off,
                                                     self.pk_analyst.key_id)
        masked_extreme, off = paillier.parse_cipher_record(payload, off,
                                                           key_id)
        d = paillier.decrypt(self.sk, d_c)
        if d == 0:
            # neighbor equals the analyst's plaintext: hand over its
            # stored extreme, re-encrypted under the analyst's key
            v = paillier.decrypt(self.sk, masked_extreme)
            out = paillier.encrypt(self.pk_analyst, v, self.rng)
        else:
            # fresh order is the extreme; re-randomize so the analyst
            # cannot correlate with the server's ciphertext
            out = paillier.hom_add(
                self.pk_analyst, masked_y,
                paillier.encrypt(self.pk_analyst, 0, self.rng))
        self.da_ch.send(Frame(
            MINMAX_SELECTED, frame.session_id,
            bytes([side]) + paillier.cipher_record(out,
                                                   self.pk_analyst.key_bits)))

    def _apply_remap(self, payload):
        n, off = read_int(payload, 0, 2)
        column, off = read_bytes(payload, off, n)
        count, off = read_int(payload, off, 4)
        remap = {}
        for _ in range(count):
            old, off = read_int(payload, off, OFFSET_BYTES)
            new, off = read_int(payload, off, OFFSET_BYTES)
            remap[old] = new
        owner = self.owners.get(column.decode("utf-8", "replace"))
        if owner is not None:
            owner.apply_remap(remap)


# ---------------------------------------------------------------------------
# Analyst engine

class DaEngine:
    """Holds the query plaintext; evaluates circuits and collects orders."""

    def __init__(self, params: ProtocolParams, rng=None, keys=None,
                 ot_group=GROUP_DEFAULT):
        params.validate()
        self.params = params
        self.rng = rng or make_rng()
        self.keys = keys  # analyst (pk, sk), needed for min/max outputs
        self.ot_group = ot_group
        self.circuit = params.build_circuit()
        self.pk_owner = None
        self.mac_params = None
        self._tag = None  # make_node_tagger's closure under integrity
        self._sid = NULL_SESSION
        self._uids = {}
        self._current_xbar = None

    def attach(self, csp_ch, do_ch):
        self.csp_ch = csp_ch
        self.da_do_ch = do_ch
        digest = self.params.digest()
        extra = b""
        if self.keys is not None:
            extra = paillier.serialize_public_key(self.keys[0])
        _, csp_extra = transport.handshake(csp_ch, transport.ROLE_DA, digest,
                                           extra)
        self.pk_owner, _ = paillier.parse_public_key(csp_extra)
        _, do_extra = transport.handshake(do_ch, transport.ROLE_DA, digest,
                                          extra)
        if do_extra:
            self.mac_params, _ = integrity.parse_params(do_extra)
        elif self.params.integrity != integrity.SCHEME_OFF:
            raise HandshakeError("integrity enabled but owner sent no "
                                 "verification parameters")
        self._tag = make_node_tagger(self.params.integrity, self.mac_params,
                                     self.pk_owner, self.rng)
        send, recv = _ot_link(self.da_do_ch, lambda: self._sid)
        self.ot_receiver = OtExtReceiver(send, recv, self.rng, self.ot_group)
        self.ot_receiver.setup()

    def encrypt(self, xbar: int, minmax: bool = False,
                column: str = DEFAULT_COLUMN):
        """Run one session; returns the order (plus min/max when asked)."""
        p = self.params
        if not 0 <= xbar < (1 << p.l):
            raise UsageError(f"query plaintext outside [0, 2^{p.l})")
        if minmax and p.mode != MODE_FH:
            raise UsageError(
                "min/max orders exist only in frequency-hiding mode")
        if minmax and self.keys is None:
            raise UsageError("analyst keys required for min/max")
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        self._sid = sid
        self._current_xbar = xbar
        self._fh_shares = (1, 0)  # no equality yet; coin share zero
        op = OP_ENCRYPT_MINMAX if minmax else OP_ENCRYPT
        self.csp_ch.send(Frame(SESSION_START, sid,
                               bytes([op]) + column.encode()))
        try:
            # a cipher upload depends on xbar alone, so it is built while
            # the peers run the first round; a uid is drawn only once the
            # order is known
            uid_upload = p.uid_upload and p.mode == MODE_DET
            upload = None if uid_upload else self._cipher_upload(xbar)
            ybar = None
            while ybar is None:
                frame = self.csp_ch.recv(RANDOM_OFFSET, ORDER_RESULT,
                                         UID_COMPARE, session=sid)
                if frame.ftype == ORDER_RESULT:
                    ybar = int.from_bytes(frame.payload, "big")
                elif frame.ftype == UID_COMPARE:
                    self._uid_round(frame)
                else:
                    self._round(sid, xbar,
                                int.from_bytes(frame.payload, "big"))
            if uid_upload:
                upload = self._uid_upload(xbar)
            self.csp_ch.send(Frame(CIPHER_UPLOAD, sid, upload))
            if not minmax:
                self.csp_ch.recv(SESSION_DONE, session=sid)
                return ybar
            cmin, cmax = self._recv_min_max(sid)
            self.csp_ch.recv(SESSION_DONE, session=sid)
            return ybar, cmin, cmax
        except SessionAborted as e:
            # the server never reads the owner channel while waiting on
            # us, so relay owner-side aborts
            if e.remote and e.channel is self.da_do_ch:
                self.csp_ch.abort(sid, e.reason)
            raise
        except OopeError as e:
            # a frame this engine cannot use, such as a malformed garbled
            # payload, aborts the session at both peers, which would
            # otherwise wait for our shares; a dead channel just ends it
            if self.csp_ch.poisoned or self.da_do_ch.poisoned:
                raise
            self.csp_ch.abort(sid, str(e))
            self.da_do_ch.abort(sid, str(e))
            raise SessionAborted(str(e)) from e
        finally:
            self._sid = NULL_SESSION

    def _verify_node(self, sid, r):
        tag_frame = self.csp_ch.recv(INTEGRITY_TAG, session=sid)
        proof_frame = self.da_do_ch.recv(INTEGRITY_PROOF, session=sid)
        m = int.from_bytes(proof_frame.payload, "big")
        if self.params.integrity == integrity.SCHEME_DLMAC:
            mac_blob, _ = read_lp(tag_frame.payload, 0)
            ok = integrity.dl_mac_verify(int.from_bytes(mac_blob, "big"), r,
                                         m, self.mac_params)
        else:
            commit_blob, off = read_lp(tag_frame.payload, 0)
            rp, off = read_int(tag_frame.payload, off, PED_BLIND_BYTES)
            ok = integrity.ped_verify(int.from_bytes(commit_blob, "big"), r,
                                      rp, m, self.mac_params)
        if not ok:
            raise IntegrityError("node authentication failed")

    def _round(self, sid, xbar, r):
        p = self.params
        if p.integrity != integrity.SCHEME_OFF:
            self._verify_node(sid, r)
        gc_frame = self.da_do_ch.recv(GC_PAYLOAD, session=sid)
        tables, decode_info, gen_labels = garbling.parse_payload(
            self.circuit, gc_frame.payload)
        n = p.masked_outputs
        masks = [self.rng.getrandbits(1) for _ in range(n)]
        bits = int_to_bits(xbar + r, p.width) + masks
        if p.mode == MODE_FH:
            # coin bit and last round's state shares
            bits += [self.rng.getrandbits(1), *self._fh_shares]
        eval_labels = self.ot_receiver.receive_pairs(bits)
        out_labels = garbling.evaluate(self.circuit, tables, gen_labels,
                                       eval_labels)
        outputs = garbling.decode(decode_info, out_labels)
        masked, self._fh_shares = outputs[:n], outputs[n:]
        self.da_do_ch.send(Frame(GC_RESULT, sid, _pack_bits(masked)))
        self.csp_ch.send(Frame(SHARES, sid, _shares(masks, masked)))

    def _uid_round(self, frame):
        mine = self._uids.get(frame.payload[:16])
        if mine is None:
            raise ProtocolError("server referenced an unknown uid node")
        xbar = self._current_xbar
        self.csp_ch.send(Frame(SHARES, frame.session_id,
                               _pack_bits([int(xbar != mine),
                                           int(xbar > mine)])))

    def _uid_upload(self, xbar):
        uid = bytes(self.rng.getrandbits(8) for _ in range(16))
        self._uids[uid] = xbar
        return bytes([UPLOAD_UID]) + uid

    def _cipher_upload(self, xbar):
        """CIPHER_UPLOAD payload: Enc(xbar), plus its DL-MAC or its
        Pedersen commitment and Enc(a) under integrity."""
        cipher = paillier.encrypt(self.pk_owner, xbar, self.rng)
        payload = bytes([UPLOAD_CIPHER]) + \
            paillier.cipher_record(cipher, self.pk_owner.key_bits)
        if self._tag is not None:
            payload += lp(self._tag(xbar))
        return payload

    def query(self, bounds: dict, projection=None):
        """Run a range query at the server over already-obtained orders."""
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        spec = {"bounds": {c: list(iv) for c, iv in bounds.items()},
                "projection": projection}
        self.csp_ch.send(Frame(transport.QUERY_EXEC, sid,
                               json.dumps(spec).encode()))
        frame = self.csp_ch.recv(transport.QUERY_RESULT, session=sid)
        return json.loads(frame.payload.decode())

    def cleanup(self, session_ids=None) -> int:
        """Ask the server to drop analyst-inserted table entries."""
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        payload = b"".join(session_ids) if session_ids else b""
        self.csp_ch.send(Frame(transport.CLEANUP, sid, payload))
        frame = self.csp_ch.recv(transport.CLEANUP_DONE, session=sid)
        return int.from_bytes(frame.payload, "big")

    def _recv_min_max(self, sid):
        pk_da, sk_da = self.keys
        n_do = self.pk_owner.n
        width = self.pk_owner.key_bits // 8
        frame = self.csp_ch.recv(MINMAX_RANDOMS, session=sid)
        r1 = int.from_bytes(frame.payload[:width], "big")
        r2 = int.from_bytes(frame.payload[width:], "big")
        got = {}
        for _ in range(2):
            sel = self.da_do_ch.recv(MINMAX_SELECTED, session=sid)
            side, off = read_int(sel.payload, 0, 1)
            cipher, _ = paillier.parse_cipher_record(sel.payload, off,
                                                     pk_da.key_id)
            got[side] = paillier.decrypt(sk_da, cipher)
        cmin = got[0] * pow(r1, -1, n_do) % n_do
        cmax = got[1] * pow(r2, -1, n_do) % n_do
        return cmin, cmax
