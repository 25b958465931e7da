"""Role state machines for oblivious order-preserving encryption.

Three engines cooperate per session: the server (CSP) searches its
sorted table and orchestrates, the key owner (DO) decrypts blinded
nodes and generates comparison circuits, the analyst (DA) evaluates
them.  The search is an implicit binary search: the node of each round
is the order at the midpoint of an index range that starts as the whole
table and halves towards the side the comparison names, which visits
exactly the nodes of the balanced mOPE tree over those orders.  Per
round the server blinds the current node additively, the owner garbles
a comparator over the blinded values and the analyst evaluates it.  As
the owner sends the analyst the circuit, it sends the server the decode
hashes of its outputs (two in det, one in fh), and the analyst sends
the server the output labels it computed (SHARES, both); one
garbling.decode gives the server the round's bits, and a label that
matches neither of its hashes aborts the session.  The analyst, without
decode hashes, learns no output, the owner sees none, and the server
learns the bits its search needs.  By the authenticity of garbled
circuits (Bellare, Hoang and Rogaway, CCS 2012) the analyst cannot make
the label of an output it did not compute.  A session always runs
exactly h = ceil(log2(n+1)) comparison rounds, in every mode and for
every op, and each of them sends the owner one blinded node, so neither
the owner nor the analyst learns where the search stopped (but under
Pedersen the analyst reads each node's commitment in INTEGRITY_TAG, and
so tells the sentinel's rounds, as it told a replayed node's).  The
rounds after the search stops compare a sentinel, not a table node:
2^l, above every plaintext, so their bits are those of xbar < 2^l
whatever the coins, and the server ignores them
(CspEngine.run_session).  The server encrypts the sentinel itself;
under Pedersen set-up tags it (OpeTable.sentinel_tag).  A replay of
the stop node would show the server, in fh, whether that node equals
xbar: an unequal node repeats its bit, an equal one tosses a fresh
coin every round.  The analyst learns only the order, and the
owner nothing about the query.

A round is three one-way flights: the node (RANDOMIZED_NODE), the
garbled circuit with the OT reply behind it (GC_PAYLOAD) beside the
owner's SHARES, and the analyst's SHARES, four frames in all.  The
analyst's OT choices for a round are xbar + r and, in fh, its coin and
stick, and none depends on an earlier round's circuit.
The server sends the analyst every offset of the session at once, h
16-byte records in one RANDOM_OFFSET right after the first node, so
the analyst knows all h·n choices from then on.

Each session carries its own IKNP extension batch (ot) of m =
8·ceil(h·n / 8) chosen-input OTs, for h transfers of n evaluator
inputs, under a batch index the analyst raises every session: the
session's OT_MSG, which the analyst sends as soon as RANDOM_OFFSET
arrives and the owner reads only to build round 1's OT reply, after it
has decrypted and garbled.  Each round's reply spends the batch's next
n OTs at both ends, so a batch too small for the h rounds aborts the
session where it runs out.  A table holds at most M - 1 orders, so
h <= M.bit_length(): the analyst refuses more offsets and the owner a
larger batch, as it does a batch index not above the last it took.  m
shows the owner h, as the round count does anyway.  An encrypt session
over a non-empty table is 4h + 6 frames (SESSION_START, RANDOM_OFFSET,
the OT_MSG, ORDER_RESULT, CIPHER_UPLOAD and SESSION_DONE besides the
rounds; a bound sends no upload) and 3h + 2 flights from SESSION_START
to ORDER_RESULT, plus Pedersen's INTEGRITY_TAG and INTEGRITY_PROOF per
round.

Set-up is each engine's attach: a transport.handshake on each of its
links, which judges the peer's HELLO and parses its extra whole, then
base OT between owner and analyst.  Keys and the MAC group are checked
against ProtocolParams where an engine gets them, when constructed or,
at the analyst, at HELLO; the server also matches the owner's key.

Session state lives with its session.  The analyst keeps a session's
batch in locals of _session; the owner keeps its batch in an
_OwnerSession of its serve loop, which the next session's first node
replaces, so an OT_MSG the owner never read is stale by then.  Only the
server's next blind, the owner's garbled pool and each OT end's base OT
and last batch index outlive a session.

Each session frame has one layout, and says nothing that its framing,
the parameters HELLO checked or the circuit built from them fix.  With
w = paillier.cipher_width, g the MAC group's width (wire_group), n the
circuit's evaluator inputs and o its outputs; [...] is Pedersen's part:

  SESSION_START    op u8 | column, UTF-8
  RANDOM_OFFSET    h offsets r, 16 bytes each
  OT_MSG           batch index u32 | u matrix, 16·m bytes
  RANDOMIZED_NODE  Enc(x + r), w bytes [| Enc(a + r'), w bytes]
  INTEGRITY_TAG    r', 64 bytes | commitment, g bytes
  INTEGRITY_PROOF  opening, g bytes
  GC_PAYLOAD       garbling.payload | OT reply, 32·n bytes
  SHARES           the owner's: decode hashes, 32·o bytes
                   the analyst's: output labels, 16·o bytes
  ORDER_RESULT     order, 16 bytes
  CIPHER_UPLOAD    Enc(xbar), w bytes [| Enc(a), w bytes | commitment]
  SESSION_DONE     empty

The commitment ends CIPHER_UPLOAD because the server does not know g;
the analyst checks its width when the node's INTEGRITY_TAG comes back.
The server parses a node tag once, as the upload arrives, and stores it
parsed.  One exact-length reader (_fields) cuts each frame, so a frame
of any other length aborts its session instead of reaching the table or
a decryption.

No exponentiation waits on a peer where it need not.  Encryptions use
short exponents (paillier): each raises the key's fixed h^N to a
256-bit alpha instead of computing a full-size r^N, and from 1024-bit
keys up reads h^N's powers from a comb table shared by every copy of
the key in the process, 43 multiplications instead of a 256-bit
exponentiation.  A round's blind, r and Enc(r) (plus r' and
Enc(r') under Pedersen), does not depend on the comparison, so the
server still makes it one round ahead: right after sending a round's
frames and before waiting for its shares.  A session draws all its
offsets r at its start, since they go out with the first node, and
encrypts each a round ahead.  A blind is spent once its offset is sent,
even if the session then aborts before its node is, so no r blinds two
nodes and no offset the analyst has seen returns.  Only the blind made
in a session's last round, whose offset nobody has seen, serves the
next session's first.  The analyst builds its whole upload right after
it sends its OT_MSG, while the peers run the first round, and sends it
unchanged once the order arrives.  The owner decrypts each
blinded node with the mod-P half of the CRT alone, one exponentiation
mod P^2 by the 256-bit subgroup order t_p (paillier.decrypt), since it
range-checks the result; the Pedersen a + r' has no range check and
stays on the full CRT, by t_p and t_q.
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

Garbled labels are numpy uint8 rows of 16 bytes between the wire and
the gate loops, and 128-bit ints only inside those loops (garbling).
The owner hands its OT sender an instance's label pairs as rows, and
the analyst gets rows back from its OT receiver and from the payload,
which garbling.evaluate turns into ints.

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
hides equality behind a coin (comparator.build_fh_comparator), and
duplicates get fresh orders.  An encrypt tosses a fresh coin, shared by
owner and analyst, at every equal node, which is FH-OPE's insertion
rule (Kerschbaum, CCS 2015).  A session compares each table node at
most once, so the server sees one bit per node, a coin or the order.
The search stops at its first empty half, and the copy goes into the
gap there, always inside or at an end of the value's run.  The
placement is not uniform over the run's gaps: a gap's probability is
2^-e, e being the number of equal nodes the search compares against on
its way there, its last node included.  Over
[3, 7, 7, 7, 12] a new 7 lands in each of gaps 1 to 4 with probability
1/4; over [7] * 5 a new 7 lands in gaps 0 to 5 with probabilities
1/8, 1/8, 1/4, 1/8, 1/8, 1/4.  Set-up places each copy by the same
search (ope_state.init_state).

A range query over such orders needs, for each end, the lowest or
highest order among all copies of a value; the analyst's bound op finds
it by the same search, as a frequency-hiding OPE client does
(Kerschbaum, CCS 2015), and nothing stores it.  BOUND_LOW gives the
lowest order of a plaintext >= xbar and BOUND_HIGH the highest order of
one <= xbar.  In fh mode a bound's analyst sets stick = 1 and its coin
to its side, so the traversal bit is [xbar > x] for BOUND_LOW (ties go
left) and [xbar >= x] for BOUND_HIGH (ties go right) in every round,
and the search ends at the gap between the plaintexts the bound
excludes and those it includes.  The server answers with the order on
the included side of that gap, or the virtual end (M for BOUND_LOW, 0
for BOUND_HIGH) when there is none, so an inclusive interval over it
selects nothing; in det mode a stored value answers with its own order.
A bound sends no upload, and the server inserts nothing and rebalances
nothing.  Leakage: the server learns the bound's position, which a
QUERY_EXEC over it reveals anyway.  The owner garbles the same circuit,
feeds it a coin of its own, and sees the same frames, of the same
lengths, as in an encrypt session; stick reaches the circuit by OT, so
the owner learns nothing about which op runs.

Abort discipline: an engine raises a fault it finds itself and never
aborts inline.  One handler per engine (run_session at the server, the
serve loop at the owner, _session at the analyst) hands it to _abort,
which sends ABORT to both peers; none has state to roll back.  A
request the server cannot even start, such as a SESSION_START naming
no known op, only concerns the analyst, and the server's serve loop
aborts it there.  _abort also passes an abort received from one peer
on to the other, which may be waiting on a channel the sender did not
use: the server waits on the owner's SHARES, then the analyst's.  The
owner waits on the analyst only for the session's OT_MSG, and an abort
the analyst sends it later lies unread until the next OT_MSG receive
drops it as stale.  The analyst, which has every offset, waits on the
owner alone between rounds, so the owner relays the server's aborts,
even those its serve loop reads while idle.  A remote SessionAborted
carries the session id it names, which the relay repeats.  A relayed
abort that finds its session over is dropped as stale.  A receive that
times out before its frame has begun aborts its session like any other
fault and leaves the channel usable (transport).  A SHARES of the wrong
length is a ProtocolError like any other malformed frame, and so is a
RANDOM_OFFSET that is empty, not whole records or out of range, or an
ORDER_RESULT of the wrong width or out of range.  Stale aborts from a
dead session are dropped by session-id filtering in Channel.recv.
"""

import hashlib
import json
import operator
from dataclasses import dataclass
from itertools import accumulate

from . import datastore, garbling, integrity, ope_state, paillier, transport
from .comparator import build_comparator, build_fh_comparator, int_to_bits
from .errors import (ConfigurationError, HandshakeError, IntegrityError,
                     OopeError, ProtocolError, SessionAborted, UsageError)
from .ope_state import MODE_DET, MODE_FH, OpeEntry
from .ot import GROUP_DEFAULT, OtExtReceiver, OtExtSender
from .rng import make_rng
from .transport import (CIPHER_UPLOAD, CLEANUP, CLEANUP_DONE, Frame,
                        GC_PAYLOAD, QUERY_EXEC, QUERY_RESULT,
                        INTEGRITY_PROOF, INTEGRITY_TAG, NULL_SESSION,
                        ORDER_RESULT, OT_MSG, RANDOM_OFFSET, RANDOMIZED_NODE,
                        ROLE_CSP, ROLE_DA, ROLE_DO, SESSION_DONE,
                        SESSION_START, SHARES, handshake)
from .wire import fixed_bytes, u16, u32

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


def _read_offsets(frame, bound: int, most: int) -> list:
    """The values _offset_blob put in frame, one OFFSET_BYTES record
    each; a ProtocolError unless there are 1 to most records and each
    lies below bound."""
    blob = frame.payload
    values = [int.from_bytes(blob[i:i + OFFSET_BYTES], "big")
              for i in range(0, len(blob), OFFSET_BYTES)]
    if not blob or len(blob) % OFFSET_BYTES or max(values) >= bound or \
            len(values) > most:
        raise ProtocolError(f"malformed {transport.type_name(frame.ftype)}")
    return values


def _fields(frame, *widths, rest=False) -> list:
    """frame's payload cut into fields of the given widths and, with
    rest, the bytes after them, of which there must be some; a payload
    of any other length is a ProtocolError."""
    blob, total = frame.payload, sum(widths)
    if len(blob) <= total if rest else len(blob) != total:
        raise ProtocolError(
            f"{transport.type_name(frame.ftype)} of {len(blob)} bytes, "
            f"expected {'more than ' if rest else ''}{total}")
    cuts = list(accumulate(widths, initial=0))
    fields = [blob[a:b] for a, b in zip(cuts, cuts[1:])]
    return fields + [blob[total:]] if rest else fields


def _abort(e, sid, a, b) -> SessionAborted:
    """The SessionAborted to raise for fault e of session sid at a role
    whose channel ends are a and b: an abort received from one peer is
    passed on to the other, and a fault found here goes to both."""
    if isinstance(e, SessionAborted):
        if e.remote:
            (b if e.channel is a else a).abort(sid, e.reason)
        err = e
    else:
        a.abort(sid, str(e))
        b.abort(sid, str(e))
        err = SessionAborted(str(e))
        err.__cause__ = e
    err.session_id = sid
    return err


def _group_width(mac_params) -> int:
    return (mac_params.p.bit_length() + 7) // 8


def wire_group(v: int, mac_params) -> bytes:
    return fixed_bytes(v, _group_width(mac_params))


def _check_key_bits(pk, params, error):
    """Raise error unless pk is params.key_bits wide, as frames are."""
    if pk.key_bits != params.key_bits:
        raise error(f"owner's key is {pk.key_bits} bits, "
                    f"key_bits is {params.key_bits}")


def _check_mac_group(params, mac_params, error):
    """Raise error unless, with integrity on, mac_params is present and
    its q mac_subgroup_bits wide: r' < 2^(mac_subgroup_bits + k) must
    blind every a < q."""
    if params.integrity == integrity.SCHEME_OFF:
        return
    if mac_params is None:
        raise error("integrity enabled but no MAC parameters")
    if mac_params.q.bit_length() != params.mac_subgroup_bits:
        raise error("MAC group's q is not mac_subgroup_bits wide")


def make_node_tagger(params, mac_params, pk, rng,
                     error=ConfigurationError):
    """Closure mapping a plaintext x to its integrity tag, (Enc(a), the
    Pedersen commitment to x under a fresh a as wire_group bytes), or
    None with integrity off; a MAC group that params refuses is error.
    The owner tags each plaintext at initialization and the analyst its
    upload, so both build a tag the same way."""
    _check_mac_group(params, mac_params, error)
    if params.integrity == integrity.SCHEME_OFF:
        return None

    def tag(x):
        a = rng.randrange(mac_params.q)
        commit = integrity.ped_commit_make(x, a, mac_params)
        return paillier.encrypt(pk, a, rng), wire_group(commit, mac_params)
    return tag


def _ot_link(ch):
    """send/recv for base OT's OT_MSG frames over ch, outside sessions."""
    return (lambda blob: ch.send(Frame(OT_MSG, NULL_SESSION, blob)),
            lambda: ch.recv(OT_MSG, session=NULL_SESSION).payload)


def _query_from_spec(payload: bytes):
    """RangeQuery from a QUERY_EXEC payload; anything malformed is a
    ProtocolError, which the serve loop turns into ABORT."""
    try:
        spec = json.loads(payload)
    except (ValueError, RecursionError):  # the latter: nested too deep
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
        _check_key_bits(pk, params, ConfigurationError)
        ope_state.check_key(tables, pk)
        self.tables = tables
        self.pk = pk
        self.rows = None  # optional RowStore for query execution
        self.params = params
        self.rng = rng or make_rng()
        self._blind = None  # the next round's blind, made but never sent
        self._outputs = len(params.build_circuit().outputs)
        # the sentinel 2^l, above every plaintext, encrypted under
        # randomness 1: each round's blind rerandomizes what is sent
        self._sentinel = 1 + (1 << params.l) * pk.n

    def attach(self, do_ch, da_ch):
        self.do_ch, self.da_ch = do_ch, da_ch
        digest = self.params.digest()
        pk_do = handshake(do_ch, ROLE_CSP, ROLE_DO, digest,
                          parse=paillier.parse_public_key)
        if pk_do.key_id != self.pk.key_id:
            raise HandshakeError("owner key does not match server state")
        handshake(da_ch, ROLE_CSP, ROLE_DA, digest,
                  paillier.serialize_public_key(self.pk))

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

        A fault before the commit aborts the session at both peers, and
        an abort from one peer is passed on to the other.  A fault after
        it, such as a failed SESSION_DONE send, rolls nothing back: the
        entry stays, tagged with its session id, for DaEngine.cleanup to
        remove.
        """
        try:
            table = self.tables.get(column)
            if table is None:
                raise ProtocolError(f"unknown column {column!r}")
            h = table.height
            if h:
                # the first blind is spent from the first send on, sent
                # or not; the other rounds' offsets go out with the first
                # node, and their encryptions are made a round ahead
                blind, self._blind = self._blind or self._make_blind(), None
                offsets = [blind[0]] + [self._draw_offset()
                                        for _ in range(h - 1)]
            # implicit binary search: the node is the order at the
            # midpoint of [lo, hi), and the search moves to the half the
            # comparison names.  It stops at a det equal node (b_e = 0)
            # or at its first empty half; the round where it stops fixes
            # the outcome.  Later rounds compare the sentinel, above
            # every plaintext, so their bits do not depend on the coins
            # or on whether the stop node equals xbar, and are ignored
            sentinel = OpeEntry(self._sentinel, table.m,
                                node_tag=table.sentinel_tag)
            lo, hi = 0, len(table)
            b_e, side, searching = 1, 0, True
            for rnd in range(h):
                mid = (lo + hi) // 2
                self._blind_node(sid, table.entry_at(mid) if searching
                                 else sentinel, blind,
                                 offsets if rnd == 0 else None)
                # the next round's blind is made while owner and analyst
                # work on this round; the last round's, whose offset
                # nobody has seen, serves the next session
                if rnd + 1 < h:
                    blind = self._make_blind(offsets[rnd + 1])
                else:
                    self._blind = self._make_blind()
                bits = self._shares(sid)
                if not searching:
                    continue
                b_e, side = bits
                if b_e and side and mid + 1 < hi:
                    lo = mid + 1
                elif b_e and not side and lo < mid:
                    hi = mid
                else:
                    searching = False

            # the search ended at node j; a new value goes into the gap
            # at index i, left of j or right of it
            j = (lo + hi) // 2
            i = j + side
            remap = entry = None
            if not b_e:
                ybar = table.entry_at(j).order
            elif op != OP_ENCRYPT:
                # a bound answers the included side of its gap
                ybar = table.gap(i)[1 if op == OP_BOUND_LOW else 0]
            else:
                ybar, remap = ope_state.place(table, i)

            self.da_ch.send(Frame(ORDER_RESULT, sid, _offset_blob(ybar)))
            if op == OP_ENCRYPT:
                upload = self.da_ch.recv(CIPHER_UPLOAD, session=sid)
                if b_e:
                    entry = self._parse_upload(sid, upload, ybar)
        except OopeError as e:
            raise _abort(e, sid, self.do_ch, self.da_ch)

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

    def _draw_offset(self):
        p = self.params
        return self.rng.randrange(0, 1 << (p.l + p.k))

    def _make_blind(self, r=None):
        """(r, Enc(r), rp, Enc(rp)) for one round, with a fresh r unless
        given; rp and Enc(rp) blind the commitment randomness and are
        None unless Pedersen."""
        p = self.params
        pk = self.pk
        if r is None:
            r = self._draw_offset()
        c_r = paillier.encrypt(pk, r, self.rng)
        rp = c_rp = None
        if p.integrity == integrity.SCHEME_PEDERSEN:
            rp = self.rng.randrange(0, 1 << (p.mac_subgroup_bits + p.k))
            c_rp = paillier.encrypt(pk, rp, self.rng)
        return r, c_r, rp, c_rp

    def _blind_node(self, sid, entry, blind, offsets=None):
        """Send the owner entry blinded by blind, and the analyst the
        session's offsets with the first node, then under Pedersen the
        node's commitment and rp."""
        pk = self.pk
        width = paillier.cipher_width(pk.key_bits)
        r, c_r, rp, c_rp = blind
        payload = fixed_bytes(paillier.hom_add(pk, entry.cipher, c_r), width)
        pedersen = self.params.integrity == integrity.SCHEME_PEDERSEN
        if pedersen:
            if entry.node_tag is None:
                raise IntegrityError("node lacks its integrity tag")
            a_cipher, commit = entry.node_tag
            payload += fixed_bytes(paillier.hom_add(pk, a_cipher, c_rp),
                                   width)
        self.do_ch.send(Frame(RANDOMIZED_NODE, sid, payload))
        if offsets:
            self.da_ch.send(Frame(RANDOM_OFFSET, sid, b"".join(
                map(_offset_blob, offsets))))
        if pedersen:
            self.da_ch.send(Frame(INTEGRITY_TAG, sid, fixed_bytes(
                rp, PED_BLIND_BYTES) + commit))

    def _shares(self, sid):
        """(b_e, side) from the round's two SHARES: the owner's decode
        hashes decode the analyst's output labels, and a label that
        matches neither of its hashes is an IntegrityError."""
        n, size = self._outputs, garbling.LABEL_BYTES
        hashes, = _fields(self.do_ch.recv(SHARES, session=sid), 2 * size * n)
        labels, = _fields(self.da_ch.recv(SHARES, session=sid), size * n)
        bits = garbling.decode(hashes, labels)
        # fh's one traversal bit always moves the search
        return (1, bits[0]) if n == 1 else bits

    # -- state updates --

    def _parse_upload(self, sid, frame, ybar) -> OpeEntry:
        """The entry at order ybar from the analyst's CIPHER_UPLOAD:
        Enc(xbar), then under Pedersen Enc(a) and the commitment, whose
        width only owner and analyst know."""
        width = paillier.cipher_width(self.pk.key_bits)
        if self.params.integrity == integrity.SCHEME_OFF:
            cipher, = _fields(frame, width)
            return OpeEntry(int.from_bytes(cipher, "big"), ybar, tag=sid)
        cipher, a_cipher, commit = _fields(frame, width, width, rest=True)
        return OpeEntry(int.from_bytes(cipher, "big"), ybar, tag=sid,
                        node_tag=(int.from_bytes(a_cipher, "big"), commit))

    def _exec_query(self, frame):
        if self.rows is None:
            raise ConfigurationError("server holds no row store")
        result = datastore.exec_range(self.rows,
                                      _query_from_spec(frame.payload))
        self.da_ch.send(Frame(QUERY_RESULT, frame.session_id,
                              json.dumps(result).encode()))

    def _exec_cleanup(self, frame):
        blob, width = frame.payload, transport.SESSION_BYTES
        if len(blob) % width:
            raise ProtocolError("CLEANUP holds no whole session ids")
        sids = [blob[i:i + width] for i in range(0, len(blob), width)] \
            if blob else None
        removed = datastore.cleanup_da_entries(self.tables.values(), sids)
        self.da_ch.send(Frame(CLEANUP_DONE, frame.session_id, u32(removed)))


# ---------------------------------------------------------------------------
# Owner engine

@dataclass
class _OwnerSession:
    """One session's state at the owner (module docstring)."""

    sid: bytes
    batch: object = None


class DoEngine:
    """Decrypts blinded nodes, generates circuits, sends the decode
    hashes to the server."""

    def __init__(self, sk: paillier.PaillierPrivateKey, params: ProtocolParams,
                 rng=None, mac_params=None, ot_group=GROUP_DEFAULT):
        params.validate()
        _check_key_bits(sk.public, params, ConfigurationError)
        _check_mac_group(params, mac_params, ConfigurationError)
        self.sk = sk
        self.params = params
        self.rng = rng or make_rng()
        self.mac_params = mac_params
        self.ot_group = ot_group
        self.circuit = params.build_circuit()
        self._garbled = ()  # the pool: a garbling.GarbledCircuit batch

    def attach(self, csp_ch, da_ch):
        self.csp_ch, self.da_ch = csp_ch, da_ch
        digest = self.params.digest()
        handshake(csp_ch, ROLE_DO, ROLE_CSP, digest,
                  paillier.serialize_public_key(self.sk.public))
        mac = b"" if self.params.integrity == integrity.SCHEME_OFF else \
            integrity.serialize_params(self.mac_params)
        handshake(da_ch, ROLE_DO, ROLE_DA, digest, mac)
        self.ot_sender = OtExtSender(self.rng, self.ot_group)
        self.ot_sender.setup(*_ot_link(self.da_ch))

    def serve(self):
        """Serve the server's blinded nodes until its channel closes; the
        wait for the next one has no time limit.  A node under a new
        session id starts that session; no frame ends one.  An abort
        from either peer is passed on to the other: the analyst waits on
        this engine alone between rounds."""
        session = _OwnerSession(NULL_SESSION)
        while True:
            try:
                frame = self.csp_ch.recv(RANDOMIZED_NODE, idle=True)
            except SessionAborted as e:
                self.da_ch.abort(e.session_id, e.reason)
                continue
            except ProtocolError:
                # a frame of another type is dropped; a dead channel ends
                # the loop
                if self.csp_ch.poisoned:
                    return
                continue
            if frame.session_id != session.sid:
                session = _OwnerSession(frame.session_id)
            try:
                self._round(session, frame)
            except OopeError as e:
                # a frame this engine cannot use aborts its session, and
                # a peer's abort goes on to the other; a dead channel
                # ends the loop
                if self.csp_ch.poisoned or self.da_ch.poisoned:
                    return
                _abort(e, frame.session_id, self.csp_ch, self.da_ch)

    def _round(self, session, frame):
        sid = session.sid
        p = self.params
        pedersen = p.integrity == integrity.SCHEME_PEDERSEN
        # Enc(x + r), then under Pedersen Enc(a + r')
        width = paillier.cipher_width(self.sk.public.key_bits)
        ciphers = [int.from_bytes(c, "big")
                   for c in _fields(frame, *[width] * (1 + pedersen))]
        # x + r lies below this bound, far below P: the mod-P half of the
        # CRT decrypts it, and the range check keeps its strength
        # (paillier.decrypt)
        bound = (1 << (p.l + p.k)) + (1 << p.l)
        v = paillier.decrypt(self.sk, ciphers[0], below=bound)
        if not 0 <= v < bound:
            raise IntegrityError("blinded node out of range")
        if pedersen:
            # full CRT: the analyst chose a and nothing range-checks
            # a + r', so a mod-P result would tell it whether a + r' < P
            a_blind = paillier.decrypt(self.sk, ciphers[1])
            proof = integrity.ped_open(v, a_blind, self.mac_params)
            self.da_ch.send(Frame(INTEGRITY_PROOF, sid,
                                  wire_group(proof, self.mac_params)))

        if not self._garbled:
            self._garbled = garbling.GarbledCircuit(self.circuit, self.rng)
        # popped before anything is sent: an instance serves one round,
        # and one an abort leaves unsent is dropped with it
        gc = self._garbled.pop()
        gen_bits = int_to_bits(v, p.width)
        if p.mode == MODE_FH:
            gen_bits.append(self.rng.getrandbits(1))  # r_x, the owner's coin
        if session.batch is None:
            # round 1 reads the session's extension batch only now
            session.batch = self.ot_sender.extend(
                self.da_ch.recv(OT_MSG, session=sid).payload,
                p.m.bit_length() * len(self.circuit.eval_inputs))
        # the OT reply rides behind the garbled circuit, and the decode
        # hashes go to the server at once
        self.da_ch.send(Frame(
            GC_PAYLOAD, sid, garbling.payload(gc, gen_bits) +
            self.ot_sender.send_pairs(session.batch, gc.eval_label_pairs())))
        self.csp_ch.send(Frame(SHARES, sid, gc.decode_hashes))


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

    def attach(self, csp_ch, do_ch):
        self.csp_ch, self.da_do_ch = csp_ch, do_ch
        digest = self.params.digest()
        self.pk_owner = handshake(csp_ch, ROLE_DA, ROLE_CSP, digest,
                                  parse=paillier.parse_public_key)
        _check_key_bits(self.pk_owner, self.params, HandshakeError)
        self.mac_params = handshake(
            do_ch, ROLE_DA, ROLE_DO, digest,
            parse=lambda blob: integrity.parse_params(blob) if blob else None)
        self._tag = make_node_tagger(self.params, self.mac_params,
                                     self.pk_owner, self.rng, HandshakeError)
        self.ot_receiver = OtExtReceiver(self.rng, self.ot_group)
        self.ot_receiver.setup(*_ot_link(self.da_do_ch))

    def _new_sid(self) -> bytes:
        return bytes(self.rng.getrandbits(8) for _ in range(16))

    def encrypt(self, xbar: int, column: str = DEFAULT_COLUMN):
        """Run one session; returns xbar's order, inserted if new.

        A SessionAborted names the session in its session_id: a failure
        after the server's commit point leaves the entry in the table,
        and cleanup([session_id]) removes it."""
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
        try:
            xbar = operator.index(xbar)
        except TypeError:
            raise UsageError("query plaintext is not an int") from None
        if not 0 <= xbar < (1 << p.l):
            raise UsageError(f"query plaintext outside [0, 2^{p.l})")
        sid = self._new_sid()
        encrypt = op == OP_ENCRYPT
        self.csp_ch.send(Frame(SESSION_START, sid,
                               bytes([op]) + column.encode()))
        try:
            # every round's offset, or at once the order of an empty table
            frame = self.csp_ch.recv(RANDOM_OFFSET, ORDER_RESULT,
                                     session=sid)
            offsets = []
            if frame.ftype == RANDOM_OFFSET:
                offsets = _read_offsets(frame, 1 << (p.l + p.k),
                                        p.m.bit_length())
                # every round's choices are known now: one batch carries
                # them all, before the upload is built
                blob, batch = self.ot_receiver.extend(
                    [b for r in offsets for b in self._choices(op, xbar, r)])
                self.da_do_ch.send(Frame(OT_MSG, sid, blob))
            upload = self._cipher_upload(xbar) if encrypt else None
            for r in offsets:
                self._round(sid, batch, r)
            if offsets:
                frame = self.csp_ch.recv(ORDER_RESULT, session=sid)
            ybar, = _read_offsets(frame, p.m + 1, 1)
            if encrypt:
                self.csp_ch.send(Frame(CIPHER_UPLOAD, sid, upload))
            self.csp_ch.recv(SESSION_DONE, session=sid)
            return ybar
        except OopeError as e:
            # each peer may be waiting on this engine alone, so a fault
            # found here, such as a malformed garbled payload, aborts the
            # session at both; a dead channel just ends it
            if self.csp_ch.poisoned or self.da_do_ch.poisoned:
                raise
            raise _abort(e, sid, self.csp_ch, self.da_do_ch)

    def _verify_node(self, sid, r):
        width = _group_width(self.mac_params)
        rp, commit = _fields(self.csp_ch.recv(INTEGRITY_TAG, session=sid),
                             PED_BLIND_BYTES, width)
        proof, = _fields(self.da_do_ch.recv(INTEGRITY_PROOF, session=sid),
                         width)
        if not integrity.ped_verify(
                int.from_bytes(commit, "big"), r, int.from_bytes(rp, "big"),
                int.from_bytes(proof, "big"), self.mac_params):
            raise IntegrityError("node authentication failed")

    def _choices(self, op, xbar, r):
        """The analyst's circuit inputs, its OT choices, in the round
        blinded by r: xbar + r and, in fh, the coin r_xbar and stick, a
        fresh coin and 0 for an encrypt, the side and 1 for a bound."""
        p = self.params
        bits = int_to_bits(xbar + r, p.width)
        if p.mode == MODE_FH:
            bits += [self.rng.getrandbits(1), 0] if op == OP_ENCRYPT else \
                [op - OP_BOUND_LOW, 1]
        return bits

    def _round(self, sid, batch, r):
        """The round blinded by r, whose OT choices batch holds."""
        p = self.params
        if p.integrity != integrity.SCHEME_OFF:
            self._verify_node(sid, r)
        payload = self.da_do_ch.recv(GC_PAYLOAD, session=sid).payload
        # the garbled circuit, then the OT reply, one label pair per input
        n = len(self.circuit.eval_inputs)
        split = len(payload) - 2 * garbling.LABEL_BYTES * n
        tables, gen_labels = garbling.parse_payload(
            self.circuit, payload[:max(split, 0)])
        eval_labels = self.ot_receiver.receive_pairs(batch, payload[split:],
                                                     n)
        # the output labels, which only the server can decode
        self.csp_ch.send(Frame(SHARES, sid, garbling.evaluate(
            self.circuit, tables, gen_labels, eval_labels)))

    def _cipher_upload(self, xbar):
        """CIPHER_UPLOAD payload: Enc(xbar), then under Pedersen Enc(a)
        and the commitment."""
        pk = self.pk_owner
        width = paillier.cipher_width(pk.key_bits)
        payload = fixed_bytes(paillier.encrypt(pk, xbar, self.rng), width)
        if self._tag is not None:
            a_cipher, commit = self._tag(xbar)
            payload += fixed_bytes(a_cipher, width) + commit
        return payload

    def query(self, bounds: dict, projection=None):
        """Run a range query at the server over already-obtained orders."""
        sid = self._new_sid()
        spec = {"bounds": {c: list(iv) for c, iv in bounds.items()},
                "projection": projection}
        self.csp_ch.send(Frame(transport.QUERY_EXEC, sid,
                               json.dumps(spec).encode()))
        frame = self.csp_ch.recv(transport.QUERY_RESULT, session=sid)
        try:
            result = json.loads(frame.payload.decode())
        except (ValueError, RecursionError):  # not UTF-8, or too deep
            raise ProtocolError("query result is not JSON") from None
        if type(result) not in (int, list):
            raise ProtocolError("query result is neither a count nor rows")
        return result

    def cleanup(self, session_ids=None) -> int:
        """Ask the server to drop analyst-inserted table entries: those
        of session_ids, or every one when None; a session id that is not
        16 bytes is a UsageError."""
        session_ids = None if session_ids is None else list(session_ids)
        if any(len(s) != transport.SESSION_BYTES for s in session_ids or ()):
            raise UsageError("session ids are 16 bytes each")
        if session_ids is not None and not session_ids:
            return 0  # an empty payload would ask for every entry
        sid = self._new_sid()
        payload = b"".join(session_ids or ())
        self.csp_ch.send(Frame(transport.CLEANUP, sid, payload))
        frame = self.csp_ch.recv(transport.CLEANUP_DONE, session=sid)
        if len(frame.payload) != 4:
            raise ProtocolError("CLEANUP_DONE is not a u32 count")
        return int.from_bytes(frame.payload, "big")
