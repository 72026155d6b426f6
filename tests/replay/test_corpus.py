"""The committed artifacts (``tests/replay/corpus``) still load, verify and
replay — the guard that a slot, field or canonical-form change cannot
silently strand a recorded v2 run."""

from pathlib import Path

import pytest

from repro.replay import load_artifact, replay_full, replay_rank, verify_artifact

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.replay.json.gz"))


def test_the_corpus_is_there():
    assert len(CORPUS) >= 2


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name.split(".")[0])
def test_committed_artifact_verifies_and_replays(path):
    artifact = load_artifact(str(path))
    assert verify_artifact(artifact) == []
    body = artifact["body"]
    assert body["payloads"] and body["error"] is None
    report = replay_full(artifact)
    assert report.identical, report.summary()
    for rank in range(body["config"]["nprocs"]):
        report = replay_rank(artifact, rank)
        assert report.identical, report.summary()
