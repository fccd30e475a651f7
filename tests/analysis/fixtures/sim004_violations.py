"""Seeded SIM004 violations: unannotated data-dependent round loops."""

from repro.sim.message import Message


def converge(net, frontier):
    while frontier:
        msgs = [Message(0, dst, ("probe", dst), 1) for dst in sorted(frontier)]
        inboxes = net.superstep(msgs)
        frontier = sorted(inboxes)


def drain(net, queues):
    for queue in queues:
        net.broadcast(0, ("drain", len(queue)), 1)


def announce(net, counts):
    for count in counts:
        net.fanout([(0, ("count", count), 1)])
