"""End-to-end ``python -m repro record|replay`` CLI behaviour."""

import base64
import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"


def _run(*args):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "run.replay.json.gz"
    proc = _run("record", "--workload", "copy", "--param", "procs=3",
                "--param", "seed=7", "--payloads", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "recorded copy" in proc.stdout
    return path


class TestRecordReplayCLI:
    def test_full_replay_exits_zero(self, recorded):
        proc = _run("replay", str(recorded))
        assert proc.returncode == 0, proc.stderr
        assert "integrity OK" in proc.stdout
        assert "identical" in proc.stdout

    def test_single_rank_replay_exits_zero(self, recorded):
        proc = _run("replay", str(recorded), "--rank", "1")
        assert proc.returncode == 0, proc.stderr

    def test_verify_only(self, recorded):
        proc = _run("replay", str(recorded), "--verify-only")
        assert proc.returncode == 0, proc.stderr
        assert "integrity OK" in proc.stdout

    def test_missing_artifact_exits_2(self, tmp_path):
        proc = _run("replay", str(tmp_path / "nope.json"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_unknown_workload_exits_2(self, tmp_path):
        proc = _run("record", "--workload", "nonesuch",
                    "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_tampered_artifact_localized_and_exits_1(self, recorded,
                                                     tmp_path):
        art = json.loads(gzip.decompress(recorded.read_bytes()))
        # Flip one byte inside the first captured payload we can find.
        for rank in art["body"]["ranks"]:
            payloads = rank["recvs"]["payload"]
            if payloads:
                raw = bytearray(base64.b64decode(payloads[0]))
                raw[-1] ^= 0x01
                payloads[0] = base64.b64encode(bytes(raw)).decode()
                break
        else:
            pytest.skip("no captured payload in artifact")
        bad = tmp_path / "tampered.replay.json"
        bad.write_text(json.dumps(art))
        proc = _run("replay", str(bad), "--verify-only")
        assert proc.returncode == 1
        out = proc.stdout + proc.stderr
        assert "checksum" in out
        # Localization in the human-readable report: rank + channel.
        assert "rank" in out and "channel" in out
