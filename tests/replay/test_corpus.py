"""The committed artifacts (``tests/replay/corpus``) still load, verify and
replay — the guard that a slot, field or canonical-form change cannot
silently strand a recorded v2 run.

The two CLI workloads move one schedule and so send bare arrays; the third
artifact carries fused messages (``FusedBuffer`` + ``WireLayout`` pickles,
recorded before ``WireLayout`` grew its digest memo).  No workload names a
multi-schedule move, so its program lives here and this file records it:
``PYTHONPATH=src python tests/replay/test_corpus.py OUT`` (corpus README).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.replay import (
    Recorder, load_artifact, replay_full, replay_rank, verify_artifact,
)
from repro.vmachine import VirtualMachine
from repro.vmachine.faults import FaultPlan, FaultRates

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.replay.json.gz"))

FUSED_DTYPES = ("f8", "i4", "c16")
FUSED_SHAPE = (8, 6)


def fused_copy(comm):
    """Three fields of three dtypes, BlockParti -> Chaos, one fused message
    per processor pair, reliability on."""
    import repro.blockparti  # noqa: F401
    import repro.chaos  # noqa: F401
    from repro.blockparti import BlockPartiArray
    from repro.chaos import ChaosArray
    from repro.core import (
        IndexRegion, ScheduleMethod, SectionRegion, SetOfRegions,
        SingleProgramUniverse, mc_compute_schedule, mc_copy_many,
    )
    from repro.distrib.section import Section

    rows, cols = FUSED_SHAPE
    n = rows * cols
    src_sor = SetOfRegions([SectionRegion(Section.from_slices(
        (slice(0, rows), slice(0, cols)), FUSED_SHAPE))])
    srcs, dsts, schedules = [], [], []
    for k, dtype in enumerate(FUSED_DTYPES):
        perm = np.random.default_rng(k).permutation(n)
        grid = (np.arange(n).reshape(FUSED_SHAPE) * (k + 1)).astype(dtype)
        srcs.append(BlockPartiArray.from_global(comm, grid))
        dsts.append(ChaosArray.zeros(comm, (perm * 7) % comm.size, dtype=dtype))
        schedules.append(mc_compute_schedule(
            comm, "blockparti", srcs[-1], src_sor, "chaos", dsts[-1],
            SetOfRegions([IndexRegion(perm.astype(np.int64))]),
            ScheduleMethod.COOPERATION,
        ))
    universe = SingleProgramUniverse(comm)
    universe.enable_reliability()
    mc_copy_many(universe, schedules, srcs, dsts, policy="overlap")
    return [dst.gather_global() for dst in dsts]


#: the program of an artifact that names no workload, by file stem
PROGRAMS = {"fused-3f-overlap-s7": fused_copy}


def record_fused(out: str) -> str:
    recorder = Recorder(payloads=True, note="tests/replay/test_corpus.py")
    rates = FaultRates(drop=0.2, dup=0.2, reorder=0.2, delay=0.2)
    VirtualMachine(
        3, faults=FaultPlan(seed=7, rates=rates), recorder=recorder,
        recv_timeout_s=30.0,
    ).run(fused_copy)
    return recorder.save(out)


def test_the_corpus_is_there():
    assert len(CORPUS) >= 3


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name.split(".")[0])
def test_committed_artifact_verifies_and_replays(path):
    artifact = load_artifact(str(path))
    assert verify_artifact(artifact) == []
    body = artifact["body"]
    assert body["payloads"] and body["error"] is None
    fn = PROGRAMS.get(path.name.split(".")[0])
    assert (fn is None) == (body["config"].get("workload") is not None)
    report = replay_full(artifact, fn=fn)
    assert report.identical, report.summary()
    for rank in range(body["config"]["nprocs"]):
        report = replay_rank(artifact, rank, fn=fn)
        assert report.identical, report.summary()


def test_the_fused_artifact_carries_fused_messages():
    from repro.core.wire import FusedBuffer
    from repro.replay.artifact import decode_payload

    (path,) = [p for p in CORPUS if p.name.startswith("fused-")]
    fused = [
        item
        for rank in load_artifact(str(path))["body"]["ranks"]
        for encoded in rank["recvs"]["payload"]
        for payload in [decode_payload(encoded)]
        for item in (payload if isinstance(payload, tuple) else (payload,))
        if isinstance(item, FusedBuffer)
    ]
    assert fused and all(buf.nsegments == len(FUSED_DTYPES) for buf in fused)


if __name__ == "__main__":
    print(record_fused(sys.argv[1]))
