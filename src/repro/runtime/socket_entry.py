"""Spawn target of a socket-backend node: the port first, the stack after.

A spawned interpreter imports this module to find its target before it
runs anything of the package, so it imports only :mod:`socket`.  The child
binds its UDP socket and reports the port at once; the parent's address-book
barrier waits out one interpreter start per child, and the protocol stack
loads afterwards, inside the start-up grace.  From the port report on the
node is reachable: datagrams sent to it queue in the bound socket until it
runs.
"""

import socket


def socket_node_main(node_id: int, cfg: bytes, conn) -> None:
    """Bind, report the port, then load the stack and run the node."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", 0))
        conn.send(("port", node_id, sock.getsockname()[1]))
        from repro.runtime.socket_host import run_child

        run_child(cfg, conn, sock)
    finally:
        sock.close()
        conn.close()
