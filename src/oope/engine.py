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
comparison rounds, in every mode and for every op, and each of them
sends the owner one blinded node; once the search stops, the remaining
rounds replay the same node so neither the owner nor the analyst learns
where the value landed.  The analyst learns only the order, and the
owner nothing about the query.

No exponentiation waits on a peer where it need not.  Encryptions use
short exponents (paillier): each is one 256-bit exponentiation of the
key's fixed h^N instead of a full-size r^N, about a seventh of the
work on a 2048-bit key.  A round's blind, r and Enc(r) (plus r' and
Enc(r') under Pedersen), does not depend on the comparison, so the
server still makes it one round ahead: right after sending a round's
frames and before waiting for its shares.  The blind made in a
session's last round serves the next session's first.  A blind is
spent once its round starts sending, so one that an abort leaves
unsent serves a later round, and none is sent twice.  The analyst
builds its whole upload right after SESSION_START, while the peers run
the first round, and sends it unchanged once the order arrives.
CIPHER_UPLOAD is Enc(xbar) as one cipher record, followed under
Pedersen by its node tag (the commitment and Enc(a)), and nothing else.
Every cipher record is exactly paillier.cipher_width bytes wide, so a
malformed upload aborts the session instead of reaching the table.  The
owner decrypts each blinded node with the mod-P half of the CRT alone,
one exponentiation mod P^2 by the 256-bit subgroup order t_p
(paillier.decrypt), since it range-checks the result; the Pedersen
a + r' has no range check and stays on the full CRT, by t_p and t_q.
A node whose randomness lies outside the key's subgroup fails that
decryption with an IntegrityError and aborts the session as an
out-of-range node does, so no a + r' decrypted from one reaches
INTEGRITY_PROOF.  These exponentiations release the interpreter lock,
so they overlap the peers' work.

The search ends at a node; a new value goes into the gap at the index
left or right of it, and ope_state.place gives its order by the rule
set-up uses.  On a unit gap, in either mode, place also returns a
rebalance's remap of every order, and changes nothing itself.  The
server applies the remap to the table and the row store, and inserts
the entry, at one commit point after a session's last read
(CspEngine.run_session), so an abort has nothing to roll back.  A
rebalance stays on the server, as in mOPE, where the key holder keeps
no encodings: the owner keeps no orders after set-up and sees nothing
of a rebalance.  The remap would show it every order in the table, the
analyst's included, each between two of its own plaintexts.

Garbled labels are 128-bit ints (garbling); the owner hands its OT
sender int label pairs and the analyst gets ints back from its OT
receiver, so labels are bytes only inside GC_PAYLOAD and OT_MSG.

The owner garbles ahead.  It keeps a pool of garbled comparators: one
garbling.GarbledCircuit, whose garbling.BATCH = 32 instances were
garbled in one pass, each with its own Δ and labels.  The round that
finds the pool empty garbles the next batch, so about one round in 32
carries the refill and set-up garbles nothing.  A round pops its
instance before it sends anything.  An instance serves one round only,
and one popped by a round that then aborts is dropped with it, never
sent.  Garbled tables do not depend on the owner's input, only the
labels chosen for its bits do, so an instance garbled ahead is the
same as one garbled in its round.  Gates and IKNP rows hash with
fixed-key AES through libcrypto (garbling, ot).

In frequency-hiding mode the circuit emits a single traversal bit that
hides equality behind a sticky shared coin, and duplicates get fresh
orders.  A range query over such orders needs, for each end, the lowest
or highest order among all copies of a value; the analyst's bound op
finds it by the same search, as a frequency-hiding OPE client does
(Kerschbaum, CCS 2015), and nothing stores it.  BOUND_LOW gives the
lowest order of a plaintext >= xbar and BOUND_HIGH the highest order of
one <= xbar.  In fh mode the analyst starts its state shares as if
equality had already been seen, with coin = side, so the traversal bit
is [xbar > x] for BOUND_LOW (ties go left) and [xbar >= x] for
BOUND_HIGH (ties go right), and the search ends at the gap between the
plaintexts the bound excludes and those it includes.  The server
answers with the order on the included side of that gap, or the virtual
end (M for BOUND_LOW, 0 for BOUND_HIGH) when there is none, so an
inclusive interval over it selects nothing; in det mode a stored value
answers with its own order.  A bound sends no upload, and the server
inserts nothing and rebalances nothing.  Leakage: the server learns the
bound's position, which a QUERY_EXEC over it reveals anyway.  The owner
garbles the same circuit and sees the same frames, of the same lengths,
as in an encrypt session, so it learns nothing about which op runs.

Abort discipline: an engine raises a fault it finds itself and never
aborts inline.  One handler per engine (run_session at the server, the
serve loop at the owner, _session at the analyst) sends ABORT to both
peers, and none has state to roll back.  A request the server cannot
even start, such as a SESSION_START naming no known op, only concerns
the analyst, and the server's serve loop aborts it there.  An abort
received from a peer is passed on only where the third party may be
waiting on a channel the sender did not use: the analyst relays an
owner's abort to the server, which may be waiting on the analyst's
shares, and the server relays an owner's abort to the analyst, which
may be waiting on the server alone.  A bit vector of the wrong shape is
a ProtocolError like any other malformed frame, and so is a
RANDOM_OFFSET or ORDER_RESULT of the wrong width or out of range.
Stale aborts from a dead session are dropped by session-id filtering in
Channel.recv.
"""

import hashlib
import json
from dataclasses import dataclass

from . import garbling, integrity, ope_state, paillier, transport
from .comparator import build_comparator, build_fh_comparator, int_to_bits
from .errors import (ConfigurationError, HandshakeError, IntegrityError,
                     OopeError, ProtocolError, SessionAborted, UsageError)
from .ope_state import MODE_DET, MODE_FH, OpeEntry
from .ot import GROUP_DEFAULT, OtExtReceiver, OtExtSender
from .rng import make_rng
from .transport import (CIPHER_UPLOAD, CLEANUP, CLEANUP_DONE, Frame,
                        GC_PAYLOAD, GC_RESULT, QUERY_EXEC, QUERY_RESULT,
                        INTEGRITY_PROOF, INTEGRITY_TAG, NULL_SESSION,
                        ORDER_RESULT, OT_MSG, RANDOM_OFFSET, RANDOMIZED_NODE,
                        SESSION_DONE, SESSION_START, SHARES)
from .wire import fixed_bytes, lp, read_int, read_lp, u16, u32

BOUND_LOW, BOUND_HIGH = 0, 1  # which end of a range a bound closes

# SESSION_START's op byte; a bound's is OP_BOUND_LOW + side
OP_ENCRYPT, OP_BOUND_LOW, OP_BOUND_HIGH = 0, 1, 2

OFFSET_BYTES = 16      # additive blinding offsets on the wire
PED_BLIND_BYTES = 64   # commitment-randomness blinding offsets


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
                u16(self.key_bits) + u16(self.mac_subgroup_bits))
        return hashlib.sha256(blob).digest()

    def validate(self):
        for name in ("l", "k", "key_bits", "mac_subgroup_bits"):
            if not 0 < getattr(self, name) < 1 << 16:
                raise ConfigurationError(f"{name} must lie in [1, 2^16)")
        if not 3 <= self.m < 1 << 128:
            raise ConfigurationError("m must lie in [3, 2^128)")
        # an offset r < 2^(l+k) goes on the wire in OFFSET_BYTES, and a
        # blinded x + r < 2^(l+k+1) must stay below the key's modulus
        if self.l + self.k > 8 * OFFSET_BYTES:
            raise ConfigurationError("l + k exceeds the offset wire width")
        if self.l + self.k + 2 > self.key_bits:
            raise ConfigurationError("key too small for l + k")
        if self.mode not in (MODE_DET, MODE_FH):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.integrity not in integrity.SCHEMES:
            raise ConfigurationError(
                f"unknown integrity scheme {self.integrity!r}")
        if self.integrity == integrity.SCHEME_PEDERSEN and \
                self.key_bits < self.mac_subgroup_bits + self.k + 8:
            raise ConfigurationError(
                "key too small to blind commitment randomness")
        if self.mac_subgroup_bits + self.k > 8 * PED_BLIND_BYTES:
            raise ConfigurationError("commitment blinding exceeds wire width")

    def build_circuit(self):
        if self.mode == MODE_FH:
            return build_fh_comparator(self.width)
        return build_comparator(self.width)


DEFAULT_COLUMN = ""


def _offset_blob(v: int) -> bytes:
    return fixed_bytes(v, OFFSET_BYTES)


def _read_offset(frame, bound: int) -> int:
    """The value _offset_blob put in frame; a ProtocolError unless it is
    OFFSET_BYTES wide and below bound."""
    v = int.from_bytes(frame.payload, "big")
    if len(frame.payload) != OFFSET_BYTES or v >= bound:
        raise ProtocolError(f"malformed {transport.type_name(frame.ftype)}")
    return v


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
    """Closure mapping a plaintext x to its serialized integrity tag, the
    Pedersen commitment to x under a fresh a followed by Enc(a), or None
    with integrity off.  The owner tags each plaintext at initialization
    and the analyst its upload, so both build a tag the same way."""
    if scheme == integrity.SCHEME_OFF:
        return None

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


def _parse_ped_tag(blob, pk):
    """(commitment blob, Enc(a)) of a node tag; the tag holds nothing
    else."""
    if not blob:
        raise IntegrityError("node lacks its integrity tag")
    commit, off = read_lp(blob, 0)
    a_cipher, off = paillier.parse_cipher_record(blob, off, pk.key_id,
                                                 pk.key_bits)
    if off != len(blob):
        raise ProtocolError("node tag has trailing bytes")
    return commit, a_cipher


# ---------------------------------------------------------------------------
# Server engine

class CspEngine:
    """Holds the OPE tables and orchestrates sessions one at a time.

    tables maps each column to its OpeTable; every table holds
    ciphertexts under pk, the owner's public key (KeyMismatchError
    otherwise).
    """

    def __init__(self, tables: dict, pk: paillier.PaillierPublicKey,
                 params: ProtocolParams, rng=None):
        params.validate()
        ope_state.check_key(tables, pk)
        self.tables = tables
        self.pk = pk
        self.rows = None  # optional RowStore for query execution
        self.params = params
        self.rng = rng or make_rng()
        self.do_ch = None
        self.da_ch = None
        self._blind = None  # the next round's blind, made but never sent

    def attach(self, do_ch, da_ch):
        self.do_ch = do_ch
        self.da_ch = da_ch
        digest = self.params.digest()
        role, do_extra = transport.handshake(do_ch, transport.ROLE_CSP, digest)
        if role != transport.ROLE_DO:
            raise HandshakeError("expected the owner on the first connection")
        pk_do, _ = paillier.parse_public_key(do_extra)
        if pk_do.key_id != self.pk.key_id:
            raise HandshakeError("owner key does not match server state")
        extra = paillier.serialize_public_key(self.pk)
        role, _ = transport.handshake(da_ch, transport.ROLE_CSP, digest, extra)
        if role != transport.ROLE_DA:
            raise HandshakeError("expected the analyst on the second "
                                 "connection")

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
                    op = frame.payload[0] if frame.payload else None
                    if op not in (OP_ENCRYPT, OP_BOUND_LOW, OP_BOUND_HIGH):
                        raise ProtocolError("SESSION_START names no known op")
                    column = frame.payload[1:].decode("utf-8", "replace")
                    self.run_session(frame.session_id, op, column)
            except SessionAborted:
                continue
            except OopeError as e:
                self.da_ch.abort(frame.session_id, str(e))

    def run_session(self, sid: bytes, op: int, column: str = DEFAULT_COLUMN):
        """Protocol main loop: h compare rounds, an encrypt's order and
        upload or a bound's order alone, then the commit point.

        A fault before the commit aborts the session at both peers; an
        abort from the owner is passed on to the analyst, which may be
        waiting on the server alone.  A fault after it, such as a failed
        SESSION_DONE send, rolls nothing back: the entry stays, tagged
        with its session id, for DaEngine.cleanup to remove.
        """
        try:
            table = self.tables.get(column)
            if table is None:
                raise ProtocolError(f"unknown column {column!r}")
            # implicit binary search: the node is the order at the
            # midpoint of [lo, hi); det moves only on inequality (b_e),
            # fh always moves, and an empty half keeps the node
            lo, hi = 0, len(table)
            b_e, side = 1, 0
            for _ in range(table.height):
                mid = (lo + hi) // 2
                b_e, side = self._compare_round(sid, table.get(
                    table.order_at(mid)))
                if b_e and side and mid + 1 < hi:
                    lo = mid + 1
                elif b_e and not side and lo < mid:
                    hi = mid

            # the search ended at node j; a new value goes into the gap
            # at index i, left of j or right of it
            j = (lo + hi) // 2
            i = j + side
            remap = entry = None
            if not b_e:
                ybar = table.order_at(j)
            elif op != OP_ENCRYPT:
                # a bound answers the included side of its gap
                ybar = table.gap(i)[1 if op == OP_BOUND_LOW else 0]
            else:
                ybar, remap = ope_state.place(table, i)

            self.da_ch.send(Frame(ORDER_RESULT, sid, _offset_blob(ybar)))
            if op == OP_ENCRYPT:
                upload = self.da_ch.recv(CIPHER_UPLOAD, session=sid)
                if b_e:
                    entry = self._parse_upload(sid, upload.payload, ybar)
        except SessionAborted as e:
            if e.remote and e.channel is self.do_ch:
                self.da_ch.abort(sid, e.reason)
            raise
        except OopeError as e:
            self.da_ch.abort(sid, str(e))
            self.do_ch.abort(sid, str(e))
            raise SessionAborted(str(e)) from e

        # the commit point
        if remap is not None:
            table.reassign_orders(remap)
            if self.rows is not None:
                self.rows.apply_remap(column, remap)
        if entry is not None:
            table.insert(entry)
        self.da_ch.send(Frame(SESSION_DONE, sid))
        return ybar

    # -- rounds --

    def _make_blind(self):
        """(r, Enc(r), rp, Enc(rp)) for one round; rp and Enc(rp) blind
        the commitment randomness and are None unless Pedersen."""
        p = self.params
        pk = self.pk
        r = self.rng.randrange(0, 1 << (p.l + p.k))
        c_r = paillier.encrypt(pk, r, self.rng)
        rp = c_rp = None
        if p.integrity == integrity.SCHEME_PEDERSEN:
            rp = self.rng.randrange(0, 1 << (p.mac_subgroup_bits + p.k))
            c_rp = paillier.encrypt(pk, rp, self.rng)
        return r, c_r, rp, c_rp

    def _blind_node(self, sid, entry):
        p = self.params
        pk = self.pk
        r, c_r, rp, c_rp = self._blind or self._make_blind()
        payload = paillier.cipher_record(
            paillier.hom_add(pk, entry.cipher, c_r), pk.key_bits)
        pedersen = p.integrity == integrity.SCHEME_PEDERSEN
        if pedersen:
            commit_blob, a_cipher = _parse_ped_tag(entry.node_tag, pk)
            payload += paillier.cipher_record(
                paillier.hom_add(pk, a_cipher, c_rp), pk.key_bits)
        self._blind = None  # spent from the first send on, sent or not
        self.do_ch.send(Frame(RANDOMIZED_NODE, sid, payload))
        self.da_ch.send(Frame(RANDOM_OFFSET, sid, _offset_blob(r)))
        if pedersen:
            self.da_ch.send(Frame(INTEGRITY_TAG, sid, lp(commit_blob) +
                                  fixed_bytes(rp, PED_BLIND_BYTES)))
        # the next round's blind, in this session or the next, is made
        # while owner and analyst work on this round
        self._blind = self._make_blind()

    def _compare_round(self, sid, entry):
        """(b_e, side) for one node.  Each output is rebuilt twice,
        crosswise: one peer's masked output with its mask taken off,
        XOR the other peer's mask."""
        self._blind_node(sid, entry)
        n = self.params.masked_outputs
        da = _unpack_bits(self.da_ch.recv(SHARES, session=sid).payload, 2 * n)
        do = _unpack_bits(self.do_ch.recv(SHARES, session=sid).payload, 2 * n)
        bits = [da[n + i] ^ do[i] for i in range(n)]
        if bits != [do[n + i] ^ da[i] for i in range(n)]:
            raise IntegrityError("comparison share reconstructions disagree")
        # fh's one traversal bit always moves the search
        return (1, bits[0]) if n == 1 else tuple(bits)

    # -- state updates --

    def _parse_upload(self, sid, payload, ybar) -> OpeEntry:
        """The entry at order ybar from the analyst's CIPHER_UPLOAD:
        Enc(xbar), then under Pedersen its node tag, and nothing else."""
        pk = self.pk
        cipher, off = paillier.parse_cipher_record(payload, 0, pk.key_id,
                                                   pk.key_bits)
        entry = OpeEntry(cipher, ybar, tag=sid)
        if self.params.integrity == integrity.SCHEME_PEDERSEN:
            entry.node_tag, off = read_lp(payload, off)
            # checked now: a malformed tag stored here would abort every
            # later session that visits the node
            _parse_ped_tag(entry.node_tag, pk)
        if off != len(payload):
            raise ProtocolError("upload has trailing bytes")
        return entry

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
        for table in self.tables.values():
            removed += datastore.cleanup_da_entries(table, sids)
        self.da_ch.send(Frame(CLEANUP_DONE, frame.session_id, u32(removed)))


# ---------------------------------------------------------------------------
# Owner engine

class DoEngine:
    """Decrypts blinded nodes, generates circuits, sends its shares."""

    def __init__(self, sk: paillier.PaillierPrivateKey, params: ProtocolParams,
                 rng=None, mac_params=None, ot_group=GROUP_DEFAULT):
        params.validate()
        if params.integrity != integrity.SCHEME_OFF:
            if mac_params is None:
                raise ConfigurationError(
                    "integrity enabled but no MAC parameters")
            # r' < 2^(mac_subgroup_bits + k) must blind every a < q
            if mac_params.q.bit_length() != params.mac_subgroup_bits:
                raise ConfigurationError("MAC group's q is not "
                                         "mac_subgroup_bits wide")
        self.sk = sk
        self.params = params
        self.rng = rng or make_rng()
        self.mac_params = mac_params
        self.ot_group = ot_group
        self.circuit = params.build_circuit()
        self._garbled = ()  # the pool: a garbling.GarbledCircuit batch
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
        transport.handshake(da_ch, transport.ROLE_DO, digest, do_extra)
        send, recv = _ot_link(self.da_ch, lambda: self._sid)
        self.ot_sender = OtExtSender(send, recv, self.rng, self.ot_group)
        self.ot_sender.setup()

    def serve(self):
        """Serve the server's blinded nodes until its channel closes; the
        wait for the next one has no time limit.  A node under a new
        session id starts that session (_begin); no frame ends one."""
        while True:
            try:
                frame = self.csp_ch.recv(RANDOMIZED_NODE, idle=True)
            except SessionAborted:
                continue
            except ProtocolError:
                # a frame of another type is dropped; a dead channel ends
                # the loop
                if self.csp_ch.poisoned:
                    return
                continue
            try:
                self._round(frame)
            except SessionAborted:
                pass
            except OopeError as e:
                # a frame this engine cannot use aborts its session; a
                # dead channel ends the loop
                if self.csp_ch.poisoned or self.da_ch.poisoned:
                    return
                self.csp_ch.abort(frame.session_id, str(e))
                self.da_ch.abort(frame.session_id, str(e))

    def _begin(self, sid):
        if sid != self._sid:
            self._sid = sid
            self._fh_shares = (0, 0)

    def _round(self, frame):
        self._begin(frame.session_id)
        sid = frame.session_id
        p = self.params
        payload = frame.payload
        pk = self.sk.public
        cipher, off = paillier.parse_cipher_record(payload, 0, pk.key_id,
                                                   pk.key_bits)
        # x + r lies below this bound, far below P: the mod-P half of the
        # CRT decrypts it, and the range check keeps its strength
        # (paillier.decrypt)
        bound = (1 << (p.l + p.k)) + (1 << p.l)
        v = paillier.decrypt(self.sk, cipher, below=bound)
        if not 0 <= v < bound:
            raise IntegrityError("blinded node out of range")
        if p.integrity == integrity.SCHEME_PEDERSEN:
            a_cipher, off = paillier.parse_cipher_record(
                payload, off, pk.key_id, pk.key_bits)
            # full CRT: the analyst chose a and nothing range-checks
            # a + r', so a mod-P result would tell it whether a + r' < P
            a_blind = paillier.decrypt(self.sk, a_cipher)
            proof = integrity.ped_open(v, a_blind, self.mac_params)
            self.da_ch.send(Frame(INTEGRITY_PROOF, sid,
                                  wire_group(proof, self.mac_params)))

        if not self._garbled:
            self._garbled = garbling.GarbledCircuit(self.circuit, self.rng)
        # popped before anything is sent: an instance serves one round,
        # and one an abort leaves unsent is dropped with it
        gc = self._garbled.pop()
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


# ---------------------------------------------------------------------------
# Analyst engine

class DaEngine:
    """Holds the query plaintext; evaluates circuits and collects orders."""

    def __init__(self, params: ProtocolParams, rng=None,
                 ot_group=GROUP_DEFAULT):
        params.validate()
        self.params = params
        self.rng = rng or make_rng()
        self.ot_group = ot_group
        self.circuit = params.build_circuit()
        self.pk_owner = None
        self.mac_params = None
        self._tag = None  # make_node_tagger's closure under integrity
        self._sid = NULL_SESSION

    def attach(self, csp_ch, do_ch):
        self.csp_ch = csp_ch
        self.da_do_ch = do_ch
        digest = self.params.digest()
        _, csp_extra = transport.handshake(csp_ch, transport.ROLE_DA, digest)
        self.pk_owner, _ = paillier.parse_public_key(csp_extra)
        _, do_extra = transport.handshake(do_ch, transport.ROLE_DA, digest)
        if do_extra:
            self.mac_params, _ = integrity.parse_params(do_extra)
            if self.mac_params.q.bit_length() != self.params.mac_subgroup_bits:
                raise HandshakeError("owner's MAC group's q is not "
                                     "mac_subgroup_bits wide")
        elif self.params.integrity != integrity.SCHEME_OFF:
            raise HandshakeError("integrity enabled but owner sent no "
                                 "verification parameters")
        self._tag = make_node_tagger(self.params.integrity, self.mac_params,
                                     self.pk_owner, self.rng)
        send, recv = _ot_link(self.da_do_ch, lambda: self._sid)
        self.ot_receiver = OtExtReceiver(send, recv, self.rng, self.ot_group)
        self.ot_receiver.setup()

    def encrypt(self, xbar: int, column: str = DEFAULT_COLUMN):
        """Run one session; returns xbar's order, inserted if new."""
        return self._session(OP_ENCRYPT, xbar, column)

    def bound(self, xbar: int, side: int, column: str = DEFAULT_COLUMN):
        """Run one session that inserts nothing; returns the lowest order
        of a stored plaintext >= xbar (side BOUND_LOW) or the highest
        order of one <= xbar (BOUND_HIGH), and M or 0 when there is
        none."""
        if side not in (BOUND_LOW, BOUND_HIGH):
            raise UsageError(f"unknown bound side {side!r}")
        return self._session(OP_BOUND_LOW + side, xbar, column)

    def _session(self, op, xbar, column):
        p = self.params
        if not 0 <= xbar < (1 << p.l):
            raise UsageError(f"query plaintext outside [0, 2^{p.l})")
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        self._sid = sid
        encrypt = op == OP_ENCRYPT
        # fh state shares (no equality yet, coin): a bound starts as if
        # equality had been seen, with coin = side
        self._fh_shares = (1, 0) if encrypt else (0, op - OP_BOUND_LOW)
        self.csp_ch.send(Frame(SESSION_START, sid,
                               bytes([op]) + column.encode()))
        try:
            # the upload depends on xbar alone, so it is built while the
            # peers run the first round
            upload = self._cipher_upload(xbar) if encrypt else None
            while True:
                frame = self.csp_ch.recv(RANDOM_OFFSET, ORDER_RESULT,
                                         session=sid)
                if frame.ftype == ORDER_RESULT:
                    break
                self._round(sid, xbar, _read_offset(frame, 1 << (p.l + p.k)))
            ybar = _read_offset(frame, p.m + 1)
            if encrypt:
                self.csp_ch.send(Frame(CIPHER_UPLOAD, sid, upload))
            self.csp_ch.recv(SESSION_DONE, session=sid)
            return ybar
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
        commit_blob, off = read_lp(tag_frame.payload, 0)
        rp, off = read_int(tag_frame.payload, off, PED_BLIND_BYTES)
        if not integrity.ped_verify(int.from_bytes(commit_blob, "big"), r, rp,
                                    m, self.mac_params):
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

    def _cipher_upload(self, xbar):
        """CIPHER_UPLOAD payload: Enc(xbar), plus under Pedersen its
        commitment and Enc(a)."""
        cipher = paillier.encrypt(self.pk_owner, xbar, self.rng)
        payload = paillier.cipher_record(cipher, self.pk_owner.key_bits)
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
