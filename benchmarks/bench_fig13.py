"""Paper Figure 13: twenty vectors, sequential client (§5.4).

"Total time for twenty vectors for a one-process client.  The server runs
on four nodes."  With twenty multiplies of the same matrix, the one-time
costs (schedules + matrix shipment) amortize and the server-compute and
vector-transfer components dominate; the paper derives a speedup of ~4.5
for the eight-process server relative to computing in the client.
"""

from common import record, check_shape, matvec, print_header

SERVER_PROCS = (1, 2, 4, 8, 12, 16)
NV = 20


def run_fig13():
    results = {ns: matvec(1, ns, NV) for ns in SERVER_PROCS}
    print_header(f"Figure 13: breakdown for {NV} vectors, sequential client (ms)")
    print(f"{'component':<18}" + "".join(f"{ns:>9}" for ns in SERVER_PROCS))
    for comp, attr in (
        ("compute schedule", "sched_ms"),
        ("send matrix", "matrix_ms"),
        ("HPF program", "server_ms"),
        ("send/recv vector", "vector_ms"),
        ("total", "total_ms"),
    ):
        row = "".join(f"{getattr(results[ns], attr):>9.0f}" for ns in SERVER_PROCS)
        print(f"{comp:<18}{row}")
    local = results[8].local_alternative_ms
    print(f"{'client-local (model)':<18}{local:>9.0f}  "
          f"(20 sequential 512x512 multiplies in the client)")
    for ns in SERVER_PROCS:
        print(f"  speedup vs local, {ns:>2} server procs: "
              f"{results[ns].speedup_vs_local:4.2f}x")

    check_shape(
        results[8].speedup_vs_local > 2.0,
        f"8-process server beats the sequential client by >2x "
        f"({results[8].speedup_vs_local:.2f}x; paper reports 4.5x)",
    )
    check_shape(
        results[8].speedup_vs_local > results[1].speedup_vs_local,
        "speedup grows with server processes (1 -> 8)",
    )
    one = matvec(1, 8, 1)
    check_shape(
        abs(results[8].sched_ms - one.sched_ms) < 0.2 * one.sched_ms + 2
        and abs(results[8].matrix_ms - one.matrix_ms) < 0.2 * one.matrix_ms + 2,
        "schedule and matrix costs are one-time (identical for 1 or 20 vectors)",
    )
    check_shape(
        results[8].server_ms > 10 * one.server_ms,
        "per-vector work scales with the number of vectors",
    )
    record("fig13", {
        "server_procs": list(SERVER_PROCS),
        "total_ms": [results[ns].total_ms for ns in SERVER_PROCS],
        "speedup_vs_local": [
            results[ns].speedup_vs_local for ns in SERVER_PROCS
        ],
    })
    return results


if __name__ == "__main__":
    run_fig13()
