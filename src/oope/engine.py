"""Role state machines for oblivious order-preserving encryption.

Three engines cooperate per session: the server (CSP) searches its
sorted table and orchestrates, the key owner (DO) decrypts blinded
nodes and generates comparison circuits, the analyst (DA) evaluates
them.  The search is an implicit binary search: the node of each round
is the order at the midpoint of an index range that starts as the whole
table and halves towards the side the comparison names, which visits
exactly the nodes of the balanced mOPE tree over those orders.  Per
round the server blinds the current node additively, the owner garbles
a comparator over the blinded values and the analyst evaluates it.  The
owner sends the server the decode hashes of the outputs (two in det,
one in fh) of all the session's comparators at once, and the analyst
sends the server the output labels it computed each round (SHARES,
both); one garbling.decode by the round's comparator's hashes gives the
server the round's bits, and a label that matches neither of its hashes
aborts the session.  The analyst, without decode hashes, learns no
output, the owner sees none, and the server learns the bits its search
needs.  By the authenticity of garbled circuits (Bellare, Hoang and
Rogaway, CCS 2012) the analyst cannot make the label of an output it
did not compute.  A session always runs
exactly h = ceil(log2(n+1)) comparison rounds, one over an empty table,
in every mode and for every op, and each of them sends the owner one
blinded node, so neither
the owner nor the analyst learns where the search stopped (but under
Pedersen the analyst reads each node's commitment in INTEGRITY_TAG, and
so tells the sentinel's rounds, as it told a replayed node's).  The
rounds after the search stops compare a sentinel, not a table node:
2^l, above every plaintext, so their bits are those of xbar < 2^l
whatever the coins, and the server ignores them
(CspEngine.run_session); the comparator's l + 2 bits decide it against
every xbar, 0 included.  The server encrypts the sentinel itself;
under Pedersen set-up tags it (OpeTable.sentinel_tag).  A replay of
the stop node would show the server, in fh, whether that node equals
xbar: an unequal node repeats its bit, an equal one tosses a fresh
coin every round.  The analyst learns only the order, and the
owner nothing about the query.

A round is three one-way flights and three frames: the node
(RANDOMIZED_NODE), the owner's input labels for its comparator
(GC_PAYLOAD) and the analyst's SHARES; Pedersen adds the node's
commitment (INTEGRITY_TAG) beside the node, and its opening rides at the
head of GC_PAYLOAD, so four frames.  Round 1's GC_PAYLOAD also carries
the garbled tables of all the session's comparators and the whole OT
reply, and round 1 adds the owner's SHARES of the session's decode
hashes, the first frame the owner sends in the session, beside it.  An
encrypt's upload rides behind the output labels of its last round's
SHARES, and the server sends ORDER_RESULT, which ends every session,
after its commit point.
Nothing binds the upload to the value the session searched for: an
analyst can upload Enc(y) for a y other than its xbar, which the
paper's passive model leaves out of scope.  The analyst's OT choices
for a round are xbar + r and, in fh, its coin and stick, and none
depends on an earlier round's circuit.
The server sends the analyst every offset of the session at once, h
records of r and, under Pedersen, r' in one RANDOM_OFFSET right after
the first node, so the analyst knows all h·n choices from then on.

Each session carries its own IKNP extension batch (ot) of m =
8·ceil(h·n / 8) chosen-input OTs, for h transfers of n evaluator
inputs, under a batch index the analyst raises every session: the
session's OT_MSG, which the analyst sends as soon as RANDOM_OFFSET
arrives and the owner reads in round 1, after it has decrypted the
node.  m shows the owner h = m // n, exact since n >= 8
(ProtocolParams.validate), as the round count does anyway, and the
owner garbles the session's h comparators in one pass (garbling),
before it knows the later rounds' nodes: garbled tables do not depend
on its input, only the labels chosen for its bits do.  Nor does the OT
reply, so round 1 sends every comparator's tables and the reply of all
h·n OTs, which spends the batch at both ends, and round i evaluates
comparator i under the owner's labels of that round.  The server reads
exactly h comparators' decode hashes and the analyst exactly h
comparators' tables, so an m that names another h aborts the session
in round 1.
A table holds at most M - 1 orders, so h <= M.bit_length(): the
analyst refuses more offsets and the owner a larger batch, as it does
a batch index not above the last it took.  A session is 3h + 5 frames
(SESSION_START, RANDOM_OFFSET, the OT_MSG, the owner's SHARES and
ORDER_RESULT besides the rounds) and 3h + 2 flights from SESSION_START
to ORDER_RESULT, its last frame, plus Pedersen's INTEGRITY_TAG per
round.

Set-up is each engine's attach: a transport.handshake on each of its
links, which judges the peer's HELLO and parses its extra whole, then
base OT between owner and analyst.  Keys and the MAC group are checked
against ProtocolParams where an engine gets them, when constructed or,
at the analyst, at HELLO; the server also matches the owner's key.

Session state lives with its session.  The server keeps a session's
offsets and decode hashes in locals of run_session, the analyst its
offsets, batch and round 1's tables and labels in locals of _session,
and the owner its session id, garbled comparators and round index in
locals of its serve loop, which the next session's first node resets.
Round 1 spends the owner's OT batch whole, an OT_MSG the owner never
read is stale by the next session, and an aborted session's owner
labels are dropped unsent.
Only the server's next Enc(0)s, which hold no offset, and each OT end's
base OT and last batch index outlive a session.

Each session frame has one layout, and says nothing that its framing,
the parameters HELLO checked or the circuit built from them fix.  With
w = paillier.cipher_width, g the MAC group's width (wire_group), n the
circuit's evaluator inputs and o its outputs; [...] is Pedersen's part.
Each party feeds the circuit only the low l + 2 bits of its blinded
value (ProtocolParams.width), so n is l + 2 in det and l + 4 in fh,
with the coin and stick.

  SESSION_START    op u8 | column, UTF-8
  RANDOM_OFFSET    h records: r, 16 bytes [| r', 64 bytes]
  OT_MSG           batch index u32 | u matrix, 16·m bytes
  RANDOMIZED_NODE  Enc(x + r), w bytes [| Enc(a + r'), w bytes]
  INTEGRITY_TAG    commitment, g bytes
  GC_PAYLOAD       [opening, g bytes |] the round's owner labels,
                   garbling.payload, 16 bytes per owner input; in round
                   1 behind them: the h comparators' tables,
                   GarbledCircuit.tables | OT reply, 32·n bytes each
  SHARES           the owner's, in round 1: the decode hashes of the
                   session's h comparators, 32·o bytes each
                   the analyst's: output labels, 16·o bytes, and in an
                   encrypt's last round behind them the upload:
                   Enc(xbar), w bytes [| Enc(a), w bytes | commitment]
  ORDER_RESULT     order, 16 bytes
  ABORT            the role that found the fault, u8 | reason, UTF-8

The types in transport.RESERVED, INTEGRITY_PROOF among them, keep their
numbers and are never sent.  At the paper profile (2048-bit key,
l = k = 32) a steady det round's payloads are 1088 bytes: the node
(512), GC_PAYLOAD (544: 34 owner labels at 16) and the analyst's
SHARES (32).  Round 1 sends those and, for each of the session's h
comparators, 3904 bytes more: its tables in GC_PAYLOAD (2208: 69 AND
gates at 32), its part of the OT reply there (1088: 34 pairs at 32),
its decode hashes in the owner's SHARES (64) and its 34 rows of the
OT_MSG (544).  So a session's payloads come to 4992 bytes per round,
and framing adds 21 bytes per frame, three per round and five per
session.

The commitment ends the upload, and so its SHARES, because the server
does not know g; the analyst checks its width when the node's
INTEGRITY_TAG comes back.
The server parses a node tag once, as the upload arrives, and stores it
parsed.  One exact-length reader (_fields) cuts each session frame,
RANDOM_OFFSET's records and GC_PAYLOAD's h comparators included, so a
frame of any other length aborts its session instead of reaching the
table, a decryption or an evaluation.  Only the upload's commitment
has no fixed width there.

No exponentiation waits on a peer where it need not.  Encryptions use
short exponents (paillier): each raises the key's fixed h^N to a
256-bit alpha instead of computing a full-size r^N, and from 1024-bit
keys up reads h^N's powers from a comb table shared by every copy of
the key in the process, 43 multiplications instead of a 256-bit
exponentiation.  The server blinds a node as the paper does, additively:
it sends Enc(x)·Enc(0)·(1 + rN) = Enc(x + r), where Enc(0) rerandomizes
the ciphertext and the offset r hides x, and under Pedersen Enc(a + r')
alike.  The fold (1 + rN)·z = z + N·(r·z mod N) mod N^2
(paillier.add_plain) is one product mod N, and gives the ciphertext
Enc(x)·Enc(r) would under the same alpha.  A session draws its h offset
records at its start, since they all go out with its first node, and
no offset outlives its session.  Enc(0) = (h^N)^alpha, the one costly
part, depends on nothing, so the server makes it ahead, one per node
ciphertext: right after sending a node's frames and before waiting for
its shares.  One that no sent frame used serves the next node of any
session, so no blinded node repeats.  The analyst builds its whole
upload right after it sends its OT_MSG, while the peers run the first
round, and sends it unchanged behind its last round's output labels.
The owner decrypts each blinded node with the mod-P half of the CRT
alone, one exponentiation mod P^2 by the 256-bit subgroup order t_p
(paillier.decrypt), since it range-checks the result; the Pedersen
a + r' has no range check and stays on the full CRT, by t_p and t_q.
A node whose randomness lies outside the key's subgroup fails that
decryption with an IntegrityError and aborts the session as an
out-of-range node does, so no a + r' decrypted from one reaches an
opening.  These exponentiations release the interpreter lock, so they
overlap the peers' work.

The search ends at a node; a new value goes into the gap at the index
left or right of it, and ope_state.place gives its order by the rule
set-up uses.  On a unit gap, in either mode, place respreads every
order, with a slot left for the new one, and returns that remap; it
changes nothing itself.  The server applies the remap to the table and
the row store, and inserts the entry, at one commit point after it has
read a session's last frame (CspEngine.run_session), so an abort has
nothing to roll back.  A rebalance stays on the server, as in mOPE,
where the key holder keeps no encodings: the owner keeps no orders
after set-up and sees no frame of a rebalance.  The remap would show it
every order in the table, the analyst's included, each between two of
its own plaintexts.  Leakage: the owner can time a rebalance.  The
commit point's respread delays the server's next node, and so the next
session's first, by its cost: a whole-table respread took 0.87 s at
2^20 entries under ascending inserts (ROADMAP Baseline), against a
round's few milliseconds, so the owner learns which sessions
rebalanced and, from the stall's length, roughly the table's size.

Garbled labels are numpy uint8 rows of 16 bytes between the wire and
the gate loops, and 128-bit ints only inside those loops (garbling).
The owner hands its OT sender every comparator's label pairs as rows,
and the analyst gets rows back from its OT receiver and the owner's
labels as payload bytes, which garbling.evaluate turns into ints.
Gates and IKNP rows hash with fixed-key AES through libcrypto
(garbling, ot).

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
which sends ABORT to both peers, the role that found the fault ahead of
the reason; none has state to roll back.  A request the server cannot
even start, such as a SESSION_START naming no known op, only concerns
the analyst, and the server's serve loop aborts it there.  A received
abort is passed on, once, only by the ring successor of the role that
found it, to the third role, which may be waiting on that successor
alone.  The owner passes on the server's: the analyst, which has every
offset, waits on the owner alone between rounds, and the owner's serve
loop passes on what it reads while idle too.  The analyst passes on the
owner's: the server waits on the analyst, and reads the owner's decode
hashes only after the analyst's first labels, which follow them.
The server passes on the analyst's: the owner, idle between nodes,
waits on the server.  So an abort costs three ABORT frames, and the
copy a role never reads is dropped as stale by the session filter of
its next receive on that channel: the owner's OT_MSG receive drops the
analyst's, the server's next receive from the owner the owner's.  A
remote SessionAborted carries the session id it names and the role
that found it, which the relay repeats.  A relayed abort that finds its
session over is dropped as stale.  A receive that times out before its
frame has begun aborts its session like any other fault and leaves the
channel usable (transport).
A SHARES of the wrong length is a ProtocolError like any other
malformed frame, and so is a RANDOM_OFFSET that is empty, not whole
records or out of range, or an ORDER_RESULT of the wrong width or out
of range; the last comes after the commit point, so the analyst's abort
names a session whose entry cleanup removes.  Stale aborts from a dead
session are dropped by session-id filtering in Channel.recv.
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
from .transport import (CLEANUP, CLEANUP_DONE, Frame, GC_PAYLOAD,
                        QUERY_EXEC, QUERY_RESULT, INTEGRITY_TAG,
                        NULL_SESSION, ORDER_RESULT, OT_MSG, RANDOM_OFFSET,
                        RANDOMIZED_NODE, ROLE_CSP, ROLE_DA, ROLE_DO,
                        SESSION_START, SHARES, handshake)
from .wire import fixed_bytes, u16, u32

BOUND_LOW, BOUND_HIGH = 0, 1  # which end of a range a bound closes

# SESSION_START's op byte; a bound's is OP_BOUND_LOW + side
OP_ENCRYPT, OP_BOUND_LOW, OP_BOUND_HIGH = 0, 1, 2

OFFSET_BYTES = 16      # additive blinding offsets on the wire
PED_BLIND_BYTES = 64   # commitment-randomness blinding offsets
# one round's offset record: r, then under Pedersen r'
_RECORD_WIDTHS = (OFFSET_BYTES, PED_BLIND_BYTES)


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
        # the comparator's bits of each blinded value: x + r and xbar + r
        # differ by x - xbar, at most 2^l in magnitude with the sentinel
        # 2^l, so their low l + 2 bits decide (comparator).  Ranges and
        # wire widths of x + r follow from l and k, never from this
        return self.l + 2

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
        if self.l < 6:
            raise ConfigurationError("l must be at least 6: the owner reads h "
                                     "as m // n, exact only for n = l + 2 >= 8")
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


def _offset_bounds(params) -> tuple:
    """The bound of each value of a round's offset record: r <
    2^(l+k), then under Pedersen r' < 2^(mac_subgroup_bits + k), which
    blinds every a < q."""
    bounds = (1 << (params.l + params.k),)
    if params.integrity == integrity.SCHEME_PEDERSEN:
        bounds += (1 << (params.mac_subgroup_bits + params.k),)
    return bounds


def _read_offsets(frame, bounds, most: int) -> list:
    """frame's records, one value per bound each, as many bytes as
    _RECORD_WIDTHS gives; a ProtocolError unless there are 1 to most
    records and each value lies below its bound."""
    records = [[int.from_bytes(f, "big") for f in fields] for fields in
               _fields(frame, *_RECORD_WIDTHS[:len(bounds)], most=most)]
    if any(v >= b for record in records for v, b in zip(record, bounds)):
        raise ProtocolError(f"malformed {transport.type_name(frame.ftype)}")
    return records


def _fields(frame, *widths, most=0) -> list:
    """frame's payload cut into fields of the given widths, one of which
    may be None: the bytes the others leave, of which there must be
    some.  With most, the payload is 1 to most records of those widths,
    and the result one list of fields per record.  A payload of any
    other length is a ProtocolError."""
    blob, size = frame.payload, sum(w or 0 for w in widths)
    count = len(blob) // size if most else 1
    rest = len(blob) - count * size
    if (rest <= 0 if None in widths else rest) or \
            not 0 < count <= max(most, 1):
        raise ProtocolError(
            f"malformed {transport.type_name(frame.ftype)} of {len(blob)} "
            f"bytes, expected {f'1 to {most} records of ' if most else ''}"
            f"{'more than ' if None in widths else ''}{size}")
    cuts = list(accumulate([rest if w is None else w for w in widths] * count,
                           initial=0))
    fields = [blob[a:b] for a, b in zip(cuts, cuts[1:])]
    if most:
        return [fields[i:i + len(widths)]
                for i in range(0, len(fields), len(widths))]
    return fields


# the ring predecessor of each role, whose aborts it passes on (_abort)
_PREDECESSOR = {ROLE_CSP: ROLE_DA, ROLE_DO: ROLE_CSP, ROLE_DA: ROLE_DO}


def _abort(e, sid, role, a, b) -> SessionAborted:
    """The SessionAborted to raise for fault e of session sid at role,
    whose channel ends are a and b.  A fault found here goes to both
    peers.  An abort received from one peer is passed on to the other
    only by the ring successor of the role that found it (server, then
    owner, then analyst, then server): that peer is the one the finder's
    other peer may be waiting on."""
    if isinstance(e, SessionAborted):
        if e.origin == _PREDECESSOR[role]:
            (b if e.channel is a else a).abort(sid, e.reason, e.origin)
        err = e
    else:
        a.abort(sid, str(e), role)
        b.abort(sid, str(e), role)
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
        # the next node's rerandomizers, Enc(0) per node ciphertext,
        # made but never sent
        self._zeros = None
        # the analyst's output labels, 16 bytes per circuit output
        self._labels_width = garbling.LABEL_BYTES * len(
            params.build_circuit().outputs)
        # an upload's fields behind the last round's labels: Enc(xbar),
        # then under Pedersen Enc(a) and the commitment, of any width
        width = paillier.cipher_width(pk.key_bits)
        self._pedersen = params.integrity == integrity.SCHEME_PEDERSEN
        self._upload_widths = (width, width, None) if self._pedersen \
            else (width,)
        self._bounds = _offset_bounds(params)
        # the sentinel 2^l, above every plaintext, encrypted under
        # randomness 1: each node's Enc(0) rerandomizes what is sent
        self._sentinel = paillier.add_plain(pk, 1, 1 << params.l)

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
                self.da_ch.abort(frame.session_id, str(e), ROLE_CSP)

    def run_session(self, sid: bytes, op: int, column: str = DEFAULT_COLUMN):
        """Protocol main loop: h compare rounds, the last of which brings
        an encrypt's upload, then the commit point and the order.

        A fault before the commit aborts the session at both peers, and
        an abort from the analyst is passed on to the owner.  A fault
        after it, such as a failed ORDER_RESULT send, rolls nothing
        back: the entry stays, tagged with its session id, for
        DaEngine.cleanup to remove.
        """
        encrypt = op == OP_ENCRYPT
        try:
            table = self.tables.get(column)
            if table is None:
                raise ProtocolError(f"unknown column {column!r}")
            # an empty table runs one round, against the sentinel, so
            # every session has a last round to carry the upload
            h = max(table.height, 1)
            # every round's offsets, which go out with the first node
            records = [[self.rng.randrange(b) for b in self._bounds]
                       for _ in range(h)]
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
            b_e, side, searching = 1, 0, lo < hi
            for rnd in range(h):
                mid = (lo + hi) // 2
                self._blind_node(sid, table.entry_at(mid) if searching
                                 else sentinel, records[rnd],
                                 records if rnd == 0 else None)
                # the analyst's output labels, and behind an encrypt's
                # last the upload
                labels, *upload = _fields(
                    self.da_ch.recv(SHARES, session=sid), self._labels_width,
                    *self._upload_widths if encrypt and rnd + 1 == h else ())
                if rnd == 0:
                    # the owner's decode hashes of the session's h
                    # comparators, one per round, read after the labels
                    # that follow them, so that the server waits on the
                    # analyst alone and hears every abort (_abort)
                    hashes = _fields(self.do_ch.recv(SHARES, session=sid),
                                     *[2 * self._labels_width] * h)
                bits = garbling.decode(hashes[rnd], labels)
                if not searching:
                    continue
                # fh's one traversal bit always moves the search
                b_e, side = bits if len(bits) == 2 else (1, *bits)
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
            elif not encrypt:
                # a bound answers the included side of its gap
                ybar = table.gap(i)[1 if op == OP_BOUND_LOW else 0]
            else:
                ybar, remap = ope_state.place(table, i)
                entry = self._parse_upload(sid, upload, ybar)
        except OopeError as e:
            raise _abort(e, sid, ROLE_CSP, self.do_ch, self.da_ch)

        # the commit point
        if remap is not None:
            table.reassign_orders(remap)
            if self.rows is not None:
                self.rows.apply_remap(column, remap)
        if entry is not None:
            table.insert(entry)
        self.da_ch.send(Frame(ORDER_RESULT, sid,
                              fixed_bytes(ybar, OFFSET_BYTES)))
        return ybar

    # -- rounds --

    def _make_zeros(self):
        """Enc(0) for each ciphertext of a node."""
        return tuple(paillier.encrypt(self.pk, 0, self.rng)
                     for _ in range(1 + self._pedersen))

    def _blind_node(self, sid, entry, record, records=None):
        """Send the owner entry's Enc(x + r), and under Pedersen its
        Enc(a + r'), record being (r[, r']), then the analyst the
        session's offset records with the first node and under Pedersen
        the node's commitment; then make the next node's Enc(0)s."""
        pk = self.pk
        width = paillier.cipher_width(pk.key_bits)
        ciphers = [entry.cipher]
        if self._pedersen:
            if entry.node_tag is None:
                raise IntegrityError("node lacks its integrity tag")
            ciphers.append(entry.node_tag[0])
        zeros, self._zeros = self._zeros or self._make_zeros(), None
        self.do_ch.send(Frame(RANDOMIZED_NODE, sid, b"".join(
            fixed_bytes(paillier.add_plain(pk, paillier.hom_add(pk, c, z), v),
                        width) for c, z, v in zip(ciphers, zeros, record))))
        if records:
            self.da_ch.send(Frame(RANDOM_OFFSET, sid, b"".join(
                fixed_bytes(v, w) for record in records
                for v, w in zip(record, _RECORD_WIDTHS))))
        if self._pedersen:
            self.da_ch.send(Frame(INTEGRITY_TAG, sid, entry.node_tag[1]))
        # made while owner and analyst work on this node
        self._zeros = self._make_zeros()

    # -- state updates --

    def _parse_upload(self, sid, fields, ybar) -> OpeEntry:
        """The entry at order ybar from the upload's fields: Enc(xbar),
        then under Pedersen Enc(a) and the commitment, whose width only
        owner and analyst know."""
        cipher, *tag = fields
        node_tag = (int.from_bytes(tag[0], "big"), tag[1]) if tag else None
        return OpeEntry(int.from_bytes(cipher, "big"), ybar, tag=sid,
                        node_tag=node_tag)

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
        session id starts that session, whose garbled comparators round 1
        makes; no frame ends one.  The server's aborts are passed on to
        the analyst, which waits on this engine alone between rounds."""
        sid, garbled, rnd = NULL_SESSION, None, 0
        while True:
            try:
                frame = self.csp_ch.recv(RANDOMIZED_NODE, idle=True)
            except SessionAborted as e:
                _abort(e, e.session_id, ROLE_DO, self.csp_ch, self.da_ch)
                continue
            except ProtocolError:
                # a frame of another type is dropped; a dead channel ends
                # the loop
                if self.csp_ch.poisoned:
                    return
                continue
            if frame.session_id != sid:
                sid, garbled, rnd = frame.session_id, None, 0
            try:
                garbled = self._round(frame, garbled, rnd)
            except OopeError as e:
                # a frame this engine cannot use aborts its session, and
                # a peer's abort goes on to the other; a dead channel
                # ends the loop
                if self.csp_ch.poisoned or self.da_ch.poisoned:
                    return
                _abort(e, sid, ROLE_DO, self.csp_ch, self.da_ch)
            rnd += 1

    def _round(self, frame, garbled, rnd):
        """Serve node rnd of the session whose garbled comparators are
        garbled, None before round 1 makes them; returns them."""
        sid = frame.session_id
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
        opening = b""
        if pedersen:
            # full CRT: the analyst chose a and nothing range-checks
            # a + r', so a mod-P result would tell it whether a + r' < P
            a_blind = paillier.decrypt(self.sk, ciphers[1])
            opening = wire_group(integrity.ped_open(v, a_blind,
                                                    self.mac_params),
                                 self.mac_params)

        gen_bits = int_to_bits(v, p.width)
        if p.mode == MODE_FH:
            gen_bits.append(self.rng.getrandbits(1))  # r_x, the owner's coin
        n = len(self.circuit.eval_inputs)
        rest = b""
        if garbled is None:
            # round 1 reads the session's extension batch only now, and
            # garbles a comparator per round, h = m // n of them (exact,
            # as n >= 8), whose decode hashes go to the server first; its
            # GC_PAYLOAD carries every comparator's tables and the reply
            # of all h·n OTs, which spends the batch
            pads = self.ot_sender.extend(
                self.da_ch.recv(OT_MSG, session=sid).payload,
                p.m.bit_length() * n)
            if len(pads) < n:
                raise ProtocolError("OT extension batch too small for a round")
            garbled = garbling.GarbledCircuit(self.circuit, self.rng,
                                              len(pads) // n)
            self.csp_ch.send(Frame(SHARES, sid, garbled.decode_hashes))
            rest = garbled.tables + self.ot_sender.send_pairs(
                pads, garbled.eval_pairs)
        if rnd >= len(garbled.eval_pairs) // n:
            raise ProtocolError("session's garbled comparators used up")
        # the Pedersen opening, the round's owner labels[, the rest]
        self.da_ch.send(Frame(GC_PAYLOAD, sid, opening + garbling.payload(
            garbled, rnd, gen_bits) + rest))
        return garbled


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
        # a comparator's owner labels and its tables in GC_PAYLOAD
        self._labels_width = garbling.LABEL_BYTES * len(
            self.circuit.gen_inputs)
        self._tables_width = 2 * garbling.LABEL_BYTES * len(
            self.circuit.nonfree_gates())

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
        # the width of a Pedersen commitment and opening, none without
        self._opening = () if self._tag is None else \
            (_group_width(self.mac_params),)
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
        self.csp_ch.send(Frame(SESSION_START, sid,
                               bytes([op]) + column.encode()))
        try:
            records = _read_offsets(
                self.csp_ch.recv(RANDOM_OFFSET, session=sid),
                _offset_bounds(p), p.m.bit_length())
            # every round's choices are known now: one batch carries them
            # all, before the upload is built
            blob, batch = self.ot_receiver.extend(
                [b for r, *_ in records for b in self._choices(op, xbar, r)])
            self.da_do_ch.send(Frame(OT_MSG, sid, blob))
            # an encrypt's upload rides behind the last round's labels
            tails = [b""] * len(records)
            if op == OP_ENCRYPT:
                tails[-1] = self._cipher_upload(xbar)
            # round 1 brings every comparator's tables and the labels of
            # every round's choices
            garbled = None
            for rnd, tail in enumerate(tails):
                garbled = self._round(sid, records, rnd, tail, batch, garbled)
            (ybar,), = _read_offsets(
                self.csp_ch.recv(ORDER_RESULT, session=sid), (p.m + 1,), 1)
            return ybar
        except OopeError as e:
            # each peer may be waiting on this engine alone, so a fault
            # found here, such as a malformed garbled payload, aborts the
            # session at both; a dead channel just ends it
            if self.csp_ch.poisoned or self.da_do_ch.poisoned:
                raise
            raise _abort(e, sid, ROLE_DA, self.csp_ch, self.da_do_ch)

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

    def _round(self, sid, records, rnd, tail, batch, garbled):
        """Round rnd of the session blinded by records, (r[, r']) each,
        whose OT choices batch holds; tail follows the output labels in
        its SHARES.  garbled is every comparator's tables and the labels
        of all h·n analyst inputs, which round 1's GC_PAYLOAD brings, None
        before; returns it.  Under Pedersen the node's opening is checked
        against its commitment before anything is evaluated."""
        commit = _fields(self.csp_ch.recv(INTEGRITY_TAG, session=sid),
                         *self._opening) if self._opening else ()
        # [the opening,] the owner's labels, and in round 1 alone the h
        # comparators' tables and the OT reply, a label pair per input
        h, n, width = len(records), len(self.circuit.eval_inputs), \
            self._tables_width
        first = rnd == 0
        *opening, gen_labels, tables, reply = _fields(
            self.da_do_ch.recv(GC_PAYLOAD, session=sid), *self._opening,
            self._labels_width, first * h * width,
            first * h * 2 * garbling.LABEL_BYTES * n)
        if opening and not integrity.ped_verify(
                int.from_bytes(commit[0], "big"), *records[rnd],
                int.from_bytes(opening[0], "big"), self.mac_params):
            raise IntegrityError("node authentication failed")
        if first:
            garbled = tables, self.ot_receiver.receive_pairs(batch, reply,
                                                             h * n)
        tables, eval_labels = garbled
        # the output labels, which only the server can decode
        self.csp_ch.send(Frame(SHARES, sid, garbling.evaluate(
            self.circuit, tables[rnd * width:(rnd + 1) * width], gen_labels,
            eval_labels[rnd * n:(rnd + 1) * n]) + tail))
        return garbled

    def _cipher_upload(self, xbar):
        """The upload: Enc(xbar), then under Pedersen Enc(a) and the
        commitment."""
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
