"""The wire-tag map: every named tag under ``src/repro`` is distinct and
lies where ``repro.vmachine.tags`` says tags may lie."""

import ast
import importlib
import re
from pathlib import Path

import repro
from repro.vmachine import tags

SRC = Path(repro.__file__).parent
#: ``TAG_*`` / ``_TAG_*`` / ``*_TAG``; ``ANY_TAG`` is the receive wildcard
TAG_NAME = re.compile(r"_?TAG_\w+|(?!ANY_TAG$)\w+_TAG")


def test_the_pattern_sees_every_spelling_of_a_tag_name():
    for name in ("TAG_DATA", "_TAG_SYNC", "_SYNC_TAG", "SERVICE_TAG"):
        assert TAG_NAME.fullmatch(name), name
    for name in ("ANY_TAG", "COLLECTIVE_TAG_BASE", "CONTEXT_STRIDE"):
        assert not TAG_NAME.fullmatch(name), name


def named_tags() -> dict[str, int]:
    """``module.NAME -> value`` for every module-level tag-named
    assignment (an import of one is not a definition)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = [
            target.id
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and TAG_NAME.fullmatch(target.id)
        ]
        if names:
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            mod = importlib.import_module(module)
            found.update((f"{module}.{n}", getattr(mod, n)) for n in names)
    return found


def test_every_named_tag_is_distinct_and_below_the_collective_base():
    found = named_tags()
    assert "repro.vmachine.tags.TAG_DATA" in found and len(found) >= 15
    by_value = {}
    for name, value in found.items():
        assert isinstance(value, int), name
        assert 0 <= value < tags.COLLECTIVE_TAG_BASE, name
        by_value.setdefault(value, []).append(name)
    assert not {v: n for v, n in by_value.items() if len(n) > 1}


def test_named_tags_keep_out_of_the_reserved_blocks():
    # a reliability shadow bit or a window's tag pair must never alias one
    for name, value in named_tags().items():
        assert not value & (tags.REL_DATA | tags.REL_ACK), name
        if name != "repro.vmachine.tags.TAG_RMA_BASE":
            assert value < tags.TAG_RMA_BASE, name


def test_the_transport_reads_the_map():
    from repro.core import universe
    from repro.vmachine import comm, faults, reliability, window

    assert comm.CONTEXT_STRIDE is tags.CONTEXT_STRIDE
    assert reliability.REL_DATA is tags.REL_DATA
    assert window.TAG_RMA_BASE is tags.TAG_RMA_BASE
    assert universe.TAG_DATA is tags.TAG_DATA
    assert faults.tag_class(tags.TAG_RMA_BASE) == "rma"
