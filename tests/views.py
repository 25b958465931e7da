"""What each role sees of a cluster's traffic, and how deep each frame
lies on the protocol's critical path.

tap() wraps Channel.send and Channel.recv of every channel end made
while it is active, so a cluster built inside it is seen from its
first frame.  A channel end is named "<role>-><peer>" (LocalCluster),
so each send and each receive belongs to the role whose end it is.

* A role's view is the ordered list of (peer, "send" or "recv", frame
  type, payload length) for every frame it sent or received, in the
  order its thread did so.  Two sessions that show a role the same
  view are, to that role, the same but for payload bytes.
* Flight depth is a Lamport clock over frames: a send is stamped 1 plus
  its role's depth, and a receive raises its role's depth to the
  frame's stamp.  The stamps of a session's last frame and first frame
  differ by the number of one-way flights on its critical path.
"""

import contextlib
from collections import defaultdict, deque

from oope import transport


class Tap:
    """The views and frame stamps that tap() records."""

    def __init__(self):
        self.views = defaultdict(list)   # role -> [(peer, dir, type, len)]
        self.sent = []                   # (frame, stamp) in send order
        self._senders = []               # the sending role of each
        self._depth = defaultdict(int)   # role -> depth
        self._links = defaultdict(deque)  # sender's end name -> (frame, stamp)

    def stamp(self, ftype, sid) -> int:
        """The stamp of the last frame of this type sent in session sid."""
        return [s for f, s in self.sent
                if f.ftype == ftype and f.session_id == sid][-1]

    def session_frames(self, sid, sender=None) -> list:
        """Session sid's frames in send order, with sender only those
        that role sent."""
        return [f for (f, _), role in zip(self.sent, self._senders)
                if f.session_id == sid and sender in (None, role)]

    def _on_send(self, channel, frame):
        role, peer = channel.name.split("->")
        stamp = self._depth[role] + 1
        self.sent.append((frame, stamp))
        self._senders.append(role)
        # queued before the frame leaves, so its receiver finds it
        self._links[channel.name].append((frame, stamp))
        self.views[role].append((peer, "send", frame.ftype,
                                 len(frame.payload)))

    def _on_recv(self, channel, frame):
        role, peer = channel.name.split("->")
        queue = self._links[f"{peer}->{role}"]
        # frames the channel dropped as stale, or raised as an abort,
        # were received too: pop up to this one
        while True:
            sent, stamp = queue.popleft()
            self._depth[role] = max(self._depth[role], stamp)
            if sent == frame:
                break
        self.views[role].append((peer, "recv", frame.ftype,
                                 len(frame.payload)))


@contextlib.contextmanager
def tap():
    """A Tap on every Channel while the block runs."""
    t = Tap()
    send, recv = transport.Channel.send, transport.Channel.recv

    def tapped_send(channel, frame):
        t._on_send(channel, frame)
        send(channel, frame)

    def tapped_recv(channel, *expected, **kw):
        frame = recv(channel, *expected, **kw)
        t._on_recv(channel, frame)
        return frame

    transport.Channel.send, transport.Channel.recv = tapped_send, tapped_recv
    try:
        yield t
    finally:
        transport.Channel.send, transport.Channel.recv = send, recv
