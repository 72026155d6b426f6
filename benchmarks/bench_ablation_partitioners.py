"""Ablation: irregular partitioner choice vs executor communication.

DESIGN.md's irregular substrate uses recursive coordinate bisection by
default.  This ablation quantifies why: the same unstructured edge sweep
runs under RCB, BFS graph-growing, block, and random partitions of the
node array, and the executor's communication volume (and logical time)
tracks the partition's edge cut.  The inspector cost, by contrast, is
partition-insensitive — it is dereference-bound (Table 1's story).
"""

import functools

import numpy as np

from common import check_shape, print_header
from repro.apps.meshes import delaunay_mesh
from repro.chaos import ChaosArray, EdgeSweep, bfs_owners, random_owners, rcb_owners
from repro.chaos.partition import block_owners
from repro.vmachine import VirtualMachine

NPOINTS = 8192
MESH = delaunay_mesh(NPOINTS, seed=3)
P = 8


def _owners(kind: str, nprocs: int) -> np.ndarray:
    if kind == "rcb":
        return rcb_owners(MESH.coords, nprocs)
    if kind == "bfs":
        return bfs_owners(NPOINTS, MESH.ia, MESH.ib, nprocs)
    if kind == "block":
        return block_owners(NPOINTS, nprocs)
    return random_owners(NPOINTS, nprocs, seed=1)


@functools.cache
def run_one(kind: str):
    owners = _owners(kind, P)
    cut = int(np.sum(owners[MESH.ia] != owners[MESH.ib]))

    def spmd(comm):
        proc = comm.process
        x = ChaosArray.zeros(comm, owners)
        y = ChaosArray.like(x)
        x.local[:] = 1.0
        # Computation follows the data: each edge is processed by the
        # owner of its first endpoint (the standard Chaos arrangement),
        # so the gather halo is exactly the partition's edge cut.
        mine = np.flatnonzero(owners[MESH.ia] == comm.rank)
        with proc.span("inspector"):
            sweep = EdgeSweep(x, MESH.ia[mine], MESH.ib[mine])
        comm.barrier()
        b0 = proc.stats["bytes_sent"]
        with proc.span("executor"):
            sweep.execute(x, y)
        return proc.stats["bytes_sent"] - b0

    result = VirtualMachine(P).run(spmd)
    bytes_moved = int(sum(result.values))
    return (result.span_ms("inspector"), result.span_ms("executor"),
            bytes_moved, cut)


def run_ablation():
    print_header(
        f"Ablation: partitioner choice ({NPOINTS}-point mesh, "
        f"{MESH.nedges} edges, P={P})"
    )
    print(f"{'partition':<10}{'inspector ms':>14}{'executor ms':>13}"
          f"{'exec bytes':>12}{'edge cut':>10}")
    rows = {}
    for kind in ("rcb", "bfs", "block", "random"):
        insp, execu, nbytes, cut = run_one(kind)
        rows[kind] = (insp, execu, nbytes, cut)
        print(f"{kind:<10}{insp:>14.1f}{execu:>13.2f}{nbytes:>12,}{cut:>10,}")

    check_shape(
        rows["rcb"][3] < 0.3 * rows["random"][3],
        "RCB's edge cut is a small fraction of random's",
    )
    check_shape(
        rows["rcb"][2] < rows["random"][2],
        "executor communication volume tracks the edge cut",
    )
    check_shape(
        rows["rcb"][1] < rows["random"][1],
        "executor time follows (locality pays every iteration)",
    )
    check_shape(
        rows["rcb"][0] < rows["random"][0],
        "the one-time inspector also benefits: dereferences happen per "
        "*unique* reference, and locality shrinks each rank's halo",
    )
    check_shape(
        rows["rcb"][0] > 5 * rows["rcb"][1],
        "even so, the inspector dwarfs one executor iteration "
        "(the amortization that makes inspector/executor worthwhile)",
    )
    check_shape(
        rows["bfs"][3] < 0.4 * rows["random"][3],
        "graph-growing (BFS) also achieves a low cut",
    )
    return rows


if __name__ == "__main__":
    run_ablation()
