"""Seeded request schedules and small synchronous protocol helpers.

The timed traffic itself is sent by src/loadgen.cpp (perfbench_loadgen), a
compiled client, so the generator is never the bottleneck it measures.
"""

import json
import random
import socket

# Op mix of every request class.  The 4:2:2:2 weighting is an assumption of
# this benchmark, not measured traffic: no usage data exists to derive it from.
OP_WEIGHTS = (("identify", 4), ("lift", 2), ("lint", 2), ("evaluate", 2))


def pick_op(rng):
    total = sum(w for _, w in OP_WEIGHTS)
    draw = rng.randrange(total)
    for op, weight in OP_WEIGHTS:
        if draw < weight:
            return op
        draw -= weight
    raise AssertionError("unreachable")


def build_schedule(seed, hot, cold, warm_count, rate):
    """Open-loop schedule: warm_count hot-set requests plus one request per
    cold design, shuffled, with Poisson arrivals at `rate` per second.

    Every cold design is named exactly once, so each cold request reaches a
    daemon that has never seen its design.
    """
    rng = random.Random(seed)
    reqs = [{"cls": "warm", "op": pick_op(rng), "design": rng.choice(hot)}
            for _ in range(warm_count)]
    reqs += [{"cls": "cold", "op": pick_op(rng), "design": d} for d in cold]
    rng.shuffle(reqs)
    t = 0.0
    for i, req in enumerate(reqs):
        t += rng.expovariate(rate)
        req["id"] = "r%d" % i
        req["t"] = t
    return reqs


def request_line(req):
    return json.dumps({"id": req["id"], "op": req["op"],
                       "design": req["design"]})


class Conn:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def read_line(self):
        """The next complete reply line."""
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def send(self, req):
        self.sock.sendall((json.dumps(req) + "\n").encode())

    def close(self):
        self.sock.close()


def call(host, port, op, design=None):
    """One synchronous request; returns the parsed reply object."""
    conn = Conn(host, port)
    req = {"id": "c", "op": op}
    if design is not None:
        req["design"] = design
    conn.send(req)
    try:
        return json.loads(conn.read_line())
    finally:
        conn.close()
