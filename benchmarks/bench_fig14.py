"""Paper Figure 14: total time vs number of vectors (§5.4).

"Total time, broken down by various functions, for varying numbers of
vectors exchanged between the client and server.  The client runs
sequentially and the server is an eight-process program running on four
nodes."  The fixed components (schedules, matrix) are flat; compute and
vector transfer grow linearly — the amortization argument.
"""

import numpy as np

from common import record, check_shape, matvec, print_header

VECTOR_COUNTS = (1, 2, 4, 6, 8, 12, 16, 20)
NSERVER = 8


def run_fig14():
    results = {v: matvec(1, NSERVER, v) for v in VECTOR_COUNTS}
    print_header(
        f"Figure 14: breakdown vs number of vectors (sequential client, "
        f"{NSERVER}-process server), ms"
    )
    print(f"{'component':<18}" + "".join(f"{v:>8}" for v in VECTOR_COUNTS))
    for comp, attr in (
        ("compute schedule", "sched_ms"),
        ("send matrix", "matrix_ms"),
        ("HPF program", "server_ms"),
        ("send/recv vector", "vector_ms"),
        ("total", "total_ms"),
    ):
        row = "".join(f"{getattr(results[v], attr):>8.0f}" for v in VECTOR_COUNTS)
        print(f"{comp:<18}{row}")

    fixed = [results[v].sched_ms + results[v].matrix_ms for v in VECTOR_COUNTS]
    check_shape(
        max(fixed) - min(fixed) < 0.15 * np.mean(fixed),
        "schedule + matrix components are flat in the vector count",
    )
    per_vec = [
        (results[v].server_ms + results[v].vector_ms) / v for v in VECTOR_COUNTS
    ]
    check_shape(
        max(per_vec) - min(per_vec) < 0.35 * np.mean(per_vec),
        "compute + vector transfer grow ~linearly with the vector count",
    )
    marginal = (results[20].total_ms - results[1].total_ms) / 19
    check_shape(
        marginal < 0.25 * results[1].total_ms,
        f"marginal vector ({marginal:.1f} ms) far cheaper than the first "
        f"({results[1].total_ms:.0f} ms) — setup amortizes",
    )
    record("fig14", {
        "vectors": list(VECTOR_COUNTS),
        "total_ms": [results[v].total_ms for v in VECTOR_COUNTS],
        "marginal_ms": marginal,
    })
    return results


if __name__ == "__main__":
    run_fig14()
