"""Replay-divergence detection: structural diff of two artifact bodies.

:func:`diff_bodies` compares a recorded body against a replayed one and
returns a list of :class:`Divergence` records, each localized as tightly
as the data allows: message-log divergences carry ``(rank, channel,
seq)``; clock/trace/value divergences carry the rank and first differing
index.  Comparisons are exact — floats are compared for bit equality
(JSON round-trips doubles exactly), which is the whole point: the
virtual machine is deterministic by construction, so *any* difference is
a bug, an environment drift, or tampering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.replay.artifact import RecvRecord, SendRecord, records

__all__ = ["Divergence", "ReplayReport", "diff_bodies"]


@dataclass(frozen=True)
class Divergence:
    """One localized difference between a recorded and a replayed run."""

    kind: str                          # "config" | "clock" | "send" | ...
    rank: int | None
    channel: tuple[int, int] | None    # (src, dst) global ranks
    seq: int | None
    field: str
    recorded: object
    replayed: object

    def __str__(self) -> str:
        loc = []
        if self.rank is not None:
            loc.append(f"rank {self.rank}")
        if self.channel is not None:
            loc.append(f"channel {self.channel[0]} -> {self.channel[1]}")
        if self.seq is not None:
            loc.append(f"seq {self.seq}")
        where = f" ({', '.join(loc)})" if loc else ""
        return (
            f"[{self.kind}]{where} {self.field}: "
            f"recorded {self.recorded!r} != replayed {self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """Outcome of one replay comparison."""

    mode: str                          # "full" | "isolate"
    divergences: list[Divergence] = field(default_factory=list)
    ranks_compared: int = 0

    @property
    def identical(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.identical:
            return (
                f"replay ({self.mode}): byte-identical across "
                f"{self.ranks_compared} rank(s)"
            )
        lines = [
            f"replay ({self.mode}): {len(self.divergences)} divergence(s):"
        ]
        lines += [f"  {d}" for d in self.divergences[:50]]
        if len(self.divergences) > 50:
            lines.append(f"  ... and {len(self.divergences) - 50} more")
        return "\n".join(lines)


def _diff_log(
    out: list[Divergence],
    kind: str,
    rank: int,
    recorded: dict,
    replayed: dict,
) -> None:
    """Diff one rank's send or recv stream, localizing the *first* mismatch
    per directed channel (later mismatches on the same channel are almost
    always knock-on effects of the first).  Only the record's columns are
    compared: payload capture is optional and a replay records none."""
    record, peer = (SendRecord, "dst") if kind == "send" else (RecvRecord, "src")
    # Group both logs per peer so a divergence names its channel even when
    # interleaving across channels shifted.
    rec_by_peer, rep_by_peer = {}, {}
    for stream, groups in ((recorded, rec_by_peer), (replayed, rep_by_peer)):
        for rec in records(stream, record):
            groups.setdefault(getattr(rec, peer), []).append(rec)
    for who in sorted(set(rec_by_peer) | set(rep_by_peer)):
        a = rec_by_peer.get(who, [])
        b = rep_by_peer.get(who, [])
        channel = (rank, who) if peer == "dst" else (who, rank)
        for ra, rb in zip(a, b):
            if ra != rb:
                name = next(f for f in record._fields
                            if getattr(ra, f) != getattr(rb, f))
                out.append(Divergence(
                    kind, rank, channel, ra.seq, name,
                    getattr(ra, name), getattr(rb, name),
                ))
                break
        else:
            if len(a) != len(b):
                out.append(Divergence(
                    kind, rank, channel, min(len(a), len(b)), "count",
                    len(a), len(b),
                ))


def diff_bodies(
    recorded: dict,
    replayed: dict,
    ranks: list[int] | None = None,
) -> list[Divergence]:
    """Compare two artifact bodies.  ``ranks`` restricts the comparison
    (single-rank isolation); None compares every rank."""
    out: list[Divergence] = []

    # Config / provenance.
    for key in ("kind", "fault_plan", "env_fingerprint"):
        if recorded.get(key) != replayed.get(key):
            out.append(Divergence(
                "config", None, None, None, key,
                recorded.get(key), replayed.get(key),
            ))
    rc, pc = recorded.get("config", {}), replayed.get("config", {})
    for key in ("nprocs", "profile", "programs"):
        if rc.get(key) != pc.get(key):
            out.append(Divergence(
                "config", None, None, None, f"config.{key}",
                rc.get(key), pc.get(key),
            ))

    rec_ranks = recorded.get("ranks", [])
    rep_ranks = replayed.get("ranks", [])
    if ranks is None:
        ranks = list(range(max(len(rec_ranks), len(rep_ranks))))

    for rank in ranks:
        a = rec_ranks[rank] if rank < len(rec_ranks) else None
        b = rep_ranks[rank] if rank < len(rep_ranks) else None
        if a is None or b is None:
            out.append(Divergence(
                "rank", rank, None, None, "present",
                a is not None, b is not None,
            ))
            continue

        if a["clock"] != b["clock"]:
            out.append(Divergence(
                "clock", rank, None, None, "clock", a["clock"], b["clock"],
            ))

        _diff_log(out, "send", rank, a["sends"], b["sends"])
        _diff_log(out, "recv", rank, a["recvs"], b["recvs"])

        if a["probes"] != b["probes"]:
            pa, pb = a["probes"], b["probes"]
            i = next(
                (k for k in range(min(len(pa), len(pb))) if pa[k] != pb[k]),
                min(len(pa), len(pb)),
            )
            out.append(Divergence(
                "probe", rank, None, i, "outcome",
                pa[i] if i < len(pa) else None,
                pb[i] if i < len(pb) else None,
            ))

        ta, tb = a["trace"], b["trace"]
        for i in range(min(len(ta), len(tb))):
            if ta[i] != tb[i]:
                out.append(Divergence(
                    "trace", rank, None, i, "event", ta[i], tb[i],
                ))
                break
        else:
            if len(ta) != len(tb):
                out.append(Divergence(
                    "trace", rank, None, min(len(ta), len(tb)), "count",
                    len(ta), len(tb),
                ))

        if a["value"] != b["value"]:
            out.append(Divergence(
                "value", rank, None, None, "digest", a["value"], b["value"],
            ))

    return out
