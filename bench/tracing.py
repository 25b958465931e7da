"""Outside-in tracing of the oope modules.

The tracer wraps public functions and methods of the modules under
`src/oope` and records one span per call: name, role, op id, start,
end and parent span.  Nothing under `src` changes; `uninstall` puts
every original back.  Roles are learned from the thread that enters
`CspEngine.serve` or `DoEngine.serve`; the analyst is whichever thread
the runner registers as `da`; any call made before a thread is
registered counts as `setup`.

`Channel.recv` is itself a span, so a parent's self time (duration
minus its child spans) already excludes the time it waited for a
frame.  `Channel.send` is not timed; it only counts frames and bytes
per frame type and op.

Tracing can be switched off between ops (`enabled`); a switched-off
wrapper only tests that flag and calls through.
"""

import functools
import json
import threading
import time
from collections import defaultdict

from oope import (datastore, engine, garbling, integrity, ope_state, ot,
                  paillier, transport)

SETUP = -1  # op id of everything recorded before the measured phase
FRAME_HEADER_BYTES = 4 + 1 + transport.SESSION_BYTES

# (owner, attribute, span name); owners are modules or classes
TRACED = [
    (paillier, "keygen", "paillier.keygen"),
    (paillier, "encrypt", "paillier.encrypt"),
    (paillier, "decrypt", "paillier.decrypt"),
    (paillier, "hom_add", "paillier.hom_add"),
    (paillier, "hom_scale", "paillier.hom_scale"),
    (garbling.GarbledCircuit, "__init__", "garbling.GarbledCircuit"),
    (garbling, "payload", "garbling.payload"),
    (garbling, "evaluate", "garbling.evaluate"),
    (garbling, "decode", "garbling.decode"),
    (ot.OtExtSender, "setup", "ot.OtExtSender.setup"),
    (ot.OtExtReceiver, "setup", "ot.OtExtReceiver.setup"),
    (ot.OtExtSender, "send_pairs", "ot.send_pairs"),
    (ot.OtExtReceiver, "receive_pairs", "ot.receive_pairs"),
    (integrity, "ped_open", "integrity.ped_open"),
    (integrity, "ped_verify", "integrity.ped_verify"),
    (integrity, "ped_commit_make", "integrity.ped_commit_make"),
    (ope_state, "init_state", "ope_state.init_state"),
    (ope_state, "rebalance", "ope_state.rebalance"),
    (datastore, "exec_range", "datastore.exec_range"),
    (transport.Channel, "recv", "transport.recv"),
]
ROLE_ENTRIES = [(engine.CspEngine, "serve", "csp"),
                (engine.DoEngine, "serve", "do")]


class Span:
    __slots__ = ("name", "role", "op", "start", "end", "parent", "child_ns")

    def __init__(self, name, role, op, start, parent):
        self.name = name
        self.role = role
        self.op = op
        self.start = start
        self.end = None
        self.parent = parent
        self.child_ns = 0

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns


class Tracer:
    """Spans and frame counts of one run, kept in memory."""

    def __init__(self):
        self.op = SETUP
        self.enabled = True
        self.roles = {}          # thread ident -> role
        self.frames = defaultdict(lambda: [0, 0])  # (op, ftype) -> [n, bytes]
        self.rows = [0, 0]       # rows examined, rows returned
        self._threads = []       # per-thread span lists, in creation order
        self._local = threading.local()
        self._undo = []

    # -- installation --

    def install(self):
        for owner, attr, name in TRACED:
            self._patch(owner, attr, self._span_wrapper(
                owner.__dict__[attr], name))
        for owner, attr, role in ROLE_ENTRIES:
            self._patch(owner, attr, self._role_wrapper(
                owner.__dict__[attr], role))
        self._patch(transport.Channel, "send",
                    self._send_wrapper(transport.Channel.send))
        self._patch(datastore, "exec_range",
                    self._rows_wrapper(datastore.exec_range))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return traced

    def _role_wrapper(self, fn, role):
        tracer = self

        @functools.wraps(fn)
        def serve(*args, **kwargs):
            tracer.register(role)
            return fn(*args, **kwargs)
        return serve

    def _send_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def send(channel, frame):
            if tracer.enabled:
                count = tracer.frames[(tracer.op, frame.ftype)]
                count[0] += 1
                count[1] += FRAME_HEADER_BYTES + len(frame.payload)
            return fn(channel, frame)
        return send

    def _rows_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def exec_range(store, query):
            result = fn(store, query)
            if tracer.enabled:
                tracer.rows[0] += len(store.rows)
                tracer.rows[1] += result if isinstance(result, int) \
                    else len(result)
            return result
        return exec_range

    # -- recording --

    def register(self, role):
        """Attribute every later span of the calling thread to role."""
        self.roles[threading.get_ident()] = role

    def role_threads(self):
        return {role: ident for ident, role in self.roles.items()}

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.spans = []
            self._threads.append(self._local.spans)
            return self._local.stack

    def _open(self, name):
        stack = self._stack()
        span = Span(name, self.roles.get(threading.get_ident(), "setup"),
                    self.op, 0, stack[-1] if stack else None)
        self._local.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start

    def spans(self):
        """Every finished span, over all threads."""
        return [s for spans in self._threads for s in spans
                if s.end is not None]

    def dump(self, path):
        """Write every span as one JSON line; parents by span id."""
        spans = self.spans()
        ids = {id(s): i for i, s in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(spans):
                out.write(json.dumps(
                    [i, s.name, s.role, s.op, s.start, s.end,
                     ids.get(id(s.parent))]) + "\n")
        return len(spans)


# --- per-layer metrics ------------------------------------------------------

# metric prefix -> (span names, role or None for any role); calls are
# counted on the first span name, self time summed over all of them
OP_FUNCTIONS = {
    "paillier.encrypt.csp": (("paillier.encrypt",), "csp"),
    "paillier.encrypt.da": (("paillier.encrypt",), "da"),
    "paillier.decrypt.do": (("paillier.decrypt",), "do"),
    "paillier.decrypt.da": (("paillier.decrypt",), "da"),
    "paillier.hom_scale": (("paillier.hom_scale",), None),
    "paillier.hom_add": (("paillier.hom_add",), None),
    "garbling.garble": (("garbling.GarbledCircuit", "garbling.payload"), None),
    "garbling.evaluate": (("garbling.evaluate", "garbling.decode"), None),
    "ot.send_pairs": (("ot.send_pairs",), None),
    "ot.receive_pairs": (("ot.receive_pairs",), None),
    "integrity.ped_open": (("integrity.ped_open",), None),
    "integrity.ped_verify": (("integrity.ped_verify",), None),
    "integrity.ped_commit_make": (("integrity.ped_commit_make",), None),
    "datastore.exec_range": (("datastore.exec_range",), None),
}
ROLES = ("csp", "do", "da")
OP_FRAMES = [t for t in range(256)
             if not transport.type_name(t).startswith("0x")
             and t != transport.HELLO]
OT_SETUP = ("ot.OtExtSender.setup", "ot.OtExtReceiver.setup")
KB = 1024


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix in OP_FUNCTIONS:
        units[prefix + ".calls_per_op"] = "count"
        units[prefix + ".self_ms_per_op"] = "ms"
    units.update({
        "paillier.encrypt.setup.calls": "count",
        "paillier.encrypt.setup.self_s": "s",
        "paillier.keygen_s": "s",
        "ot.setup_s": "s",
        "ope_state.init_state_s": "s",
        "ope_state.rebalance.calls_per_op": "count",
        "ope_state.tree_height.end": "count",
        "datastore.rows_examined_per_row_returned": "ratio",
        "transport.setup_kb": "KB",
    })
    for t in OP_FRAMES:
        units[f"transport.bytes_per_op.{transport.type_name(t)}"] = "B"
        units[f"transport.frames_per_op.{transport.type_name(t)}"] = "count"
    for role in ROLES:
        units[f"transport.recv_wait_ms_per_op.{role}"] = "ms"
        units[f"engine.cpu_ms_per_op.{role}"] = "ms"
    units["trace.overhead"] = "ratio"
    units["trace.traced_ops"] = "count"
    return units


def per_layer(tracer, ops, cpu_ns, tree_height, overhead):
    """Per-layer metrics of the traced ops.

    ops maps each traced op id to its (start_ns, end_ns) interval as the
    analyst timed it; cpu_ns sums each role's thread CPU time over those
    ops.  Per-op figures divide by the number of traced ops.
    """
    n = len(ops)
    spans = tracer.spans()
    values = {}
    for prefix, (names, role) in OP_FUNCTIONS.items():
        picked = [s for s in spans if s.name in names and s.op in ops
                  and (role is None or s.role == role)]
        values[prefix + ".calls_per_op"] = \
            sum(s.name == names[0] for s in picked) / n
        values[prefix + ".self_ms_per_op"] = \
            sum(s.self_ns for s in picked) / 1e6 / n

    setup = [s for s in spans if s.op == SETUP]
    enc = [s for s in setup if s.name == "paillier.encrypt"]
    ot_setup = [s for s in setup if s.name in OT_SETUP]
    values["paillier.encrypt.setup.calls"] = len(enc)
    values["paillier.encrypt.setup.self_s"] = sum(s.self_ns for s in enc) / 1e9
    values["paillier.keygen_s"] = sum(
        s.end - s.start for s in setup if s.name == "paillier.keygen") / 1e9
    values["ot.setup_s"] = (max(s.end for s in ot_setup) -
                            min(s.start for s in ot_setup)) / 1e9
    values["ope_state.init_state_s"] = sum(
        s.end - s.start for s in setup
        if s.name == "ope_state.init_state") / 1e9
    values["ope_state.rebalance.calls_per_op"] = sum(
        s.name == "ope_state.rebalance" and s.op in ops for s in spans) / n
    values["ope_state.tree_height.end"] = tree_height
    examined, returned = tracer.rows
    values["datastore.rows_examined_per_row_returned"] = \
        examined / returned if returned else 0.0
    values["transport.setup_kb"] = sum(
        b for (op, _), (_, b) in tracer.frames.items() if op == SETUP) / KB

    for t in OP_FRAMES:
        name = transport.type_name(t)
        counted = [c for (op, ft), c in tracer.frames.items()
                   if ft == t and op in ops]
        values[f"transport.bytes_per_op.{name}"] = sum(
            c[1] for c in counted) / n
        values[f"transport.frames_per_op.{name}"] = sum(
            c[0] for c in counted) / n

    wait = dict.fromkeys(ROLES, 0)
    for s in spans:
        if s.name == "transport.recv" and s.op in ops and s.role in wait:
            start, end = ops[s.op]
            wait[s.role] += max(0, min(s.end, end) - max(s.start, start))
    for role in ROLES:
        values[f"transport.recv_wait_ms_per_op.{role}"] = wait[role] / 1e6 / n
        values[f"engine.cpu_ms_per_op.{role}"] = cpu_ns[role] / 1e6 / n
    values["trace.overhead"] = overhead
    values["trace.traced_ops"] = n
    return values
