"""Paper Figures 10-12: client/server time breakdown vs server processes.

One 512x512 double matrix is shipped to an HPF server which performs one
matrix-vector multiply per operand vector.  The figures stack four
components — compute schedule, send matrix, HPF program (server compute),
send/recv vector — against the number of server processes (1..16 on four
4-way SMP Alpha nodes), for a sequential (Fig 10), two-process (Fig 11)
and four-process (Fig 12) client.
"""

from common import record, check_shape, matvec, print_header

SERVER_PROCS = (1, 2, 4, 8, 12, 16)
CLIENTS = {"Figure 10 (sequential client)": 1,
           "Figure 11 (two-process client)": 2,
           "Figure 12 (four-process client)": 4}


def run_fig10_12():
    all_results = {}
    for title, nclient in CLIENTS.items():
        results = {ns: matvec(nclient, ns, 1) for ns in SERVER_PROCS}
        all_results[nclient] = results
        print_header(f"{title}: time breakdown vs server processes (ms)")
        print(f"{'component':<18}" + "".join(f"{ns:>9}" for ns in SERVER_PROCS))
        for comp, attr in (
            ("compute schedule", "sched_ms"),
            ("send matrix", "matrix_ms"),
            ("HPF program", "server_ms"),
            ("send/recv vector", "vector_ms"),
            ("total", "total_ms"),
        ):
            row = "".join(
                f"{getattr(results[ns], attr):>9.0f}" for ns in SERVER_PROCS
            )
            print(f"{comp:<18}{row}")

        totals = {ns: results[ns].total_ms for ns in SERVER_PROCS}
        check_shape(
            totals[8] < 0.8 * totals[1],
            f"client={nclient}: total improves substantially 1 -> 8 server "
            f"processes ({totals[1]:.0f} -> {totals[8]:.0f})",
        )
        check_shape(
            abs(totals[16] - totals[8]) < 0.08 * totals[8],
            f"client={nclient}: total flat beyond 8 processes "
            f"({totals[8]:.0f} vs {totals[16]:.0f}) — extra processes no "
            "longer pay (the paper's 8-process optimum)",
        )
        check_shape(
            results[16].server_ms < results[1].server_ms / 3,
            f"client={nclient}: server compute scales down with processes",
        )
        check_shape(
            results[16].sched_ms > results[4].sched_ms,
            f"client={nclient}: schedule cost rises again past 4 server "
            "processes (message count + ATM contention)",
        )
        check_shape(
            results[4].matrix_ms < results[1].matrix_ms
            and abs(results[16].matrix_ms - results[4].matrix_ms)
            < 0.15 * results[4].matrix_ms,
            f"client={nclient}: matrix transfer parallelizes 1 -> 4 then "
            "hits the client's injection bound",
        )
        record(f"fig10_12_client{nclient}", {
            "server_procs": list(SERVER_PROCS),
            "sched_ms": [results[ns].sched_ms for ns in SERVER_PROCS],
            "matrix_ms": [results[ns].matrix_ms for ns in SERVER_PROCS],
            "server_ms": [results[ns].server_ms for ns in SERVER_PROCS],
            "vector_ms": [results[ns].vector_ms for ns in SERVER_PROCS],
            "total_ms": [results[ns].total_ms for ns in SERVER_PROCS],
        })
    return all_results


if __name__ == "__main__":
    run_fig10_12()
