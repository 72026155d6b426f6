"""Paper Figure 15: break-even number of vectors (§5.4).

"Break-even number of exchanged vectors, for a sequential and a
two-process client ... The server runs on four nodes, with up to four
processes per node."  The break-even point is the number of multiplies by
the same matrix after which shipping the work to the server (schedules +
matrix + per-vector path) beats computing in the client; the paper finds
~2 for the 4-8-process server with a sequential client, and *no*
break-even for the 2-client/2-server configuration.
"""

from common import record, check_shape, matvec, print_header

SERVER_PROCS = (2, 4, 8, 12, 16)
CLIENTS = (1, 2)
MAX_V = 50


def break_even(nclient: int, nserver: int) -> int | None:
    """Smallest vector count where the server path wins, from two runs.

    ``t(v) = setup + v * pervec`` and the local alternative is
    ``v * local1``, so the crossover is ``setup / (local1 - pervec)``.
    """
    t1 = matvec(nclient, nserver, 1)
    t2 = matvec(nclient, nserver, 2)
    pervec = t2.total_ms - t1.total_ms
    setup = t1.total_ms - pervec
    local1 = t1.local_alternative_ms  # one vector, this client size
    if local1 <= pervec:
        return None
    v = int(setup / (local1 - pervec)) + 1
    return v if v <= MAX_V else None


def run_fig15():
    print_header("Figure 15: break-even number of vectors")
    table = {}
    for nclient in CLIENTS:
        for ns in SERVER_PROCS:
            table[(nclient, ns)] = break_even(nclient, ns)
    print(f"{'server procs':<16}" + "".join(f"{ns:>8}" for ns in SERVER_PROCS))
    for nclient in CLIENTS:
        row = "".join(
            f"{table[(nclient, ns)] if table[(nclient, ns)] else '--':>8}"
            for ns in SERVER_PROCS
        )
        print(f"{nclient}-process client{row}")

    seq = {ns: table[(1, ns)] for ns in SERVER_PROCS}
    check_shape(
        seq[8] is not None and seq[8] <= 8,
        f"sequential client breaks even within a few vectors at 8 server "
        f"processes (got {seq[8]}; paper: ~2)",
    )
    check_shape(
        seq[4] is not None and seq[8] <= seq[4],
        "break-even improves (or holds) from 4 to 8 server processes",
    )
    check_shape(
        seq[2] is None or seq[2] >= seq[8],
        "a 2-process server needs the most vectors (or never pays off)",
    )
    two = {ns: table[(2, ns)] for ns in SERVER_PROCS}
    check_shape(
        two[2] is None or two[2] > 2 * (seq[2] or MAX_V) or two[2] > seq[8],
        "2-process client / 2-process server is the paper's no-break-even "
        f"corner (got {two[2]})",
    )
    check_shape(
        all((two[ns] or MAX_V + 1) >= (seq[ns] or MAX_V + 1) for ns in SERVER_PROCS),
        "a parallel client (faster local alternative) always needs at "
        "least as many vectors to justify the server",
    )
    record("fig15", {
        "server_procs": list(SERVER_PROCS),
        "breakeven": {
            f"client{nc}": [table[(nc, ns)] for ns in SERVER_PROCS]
            for nc in CLIENTS
        },
    })
    return table


if __name__ == "__main__":
    run_fig15()
