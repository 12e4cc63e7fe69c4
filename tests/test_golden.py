"""The shipped outputs, regenerated in process by `tools/digest.py` and
compared line by line with the checked-in `tests/golden/outputs.txt`.

A change that moves an output regenerates the file
(`python3 tools/digest.py > tests/golden/outputs.txt`) and commits it; the
file's diff is then the list of moved outputs.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.txt"
REGENERATE = "python3 tools/digest.py > tests/golden/outputs.txt"
SHOWN = 6       # differing lines quoted in a failure message


def _digest():
    spec = importlib.util.spec_from_file_location(
        "digest", ROOT / "tools" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _labels(lines: list[str]) -> list[str]:
    """For each line, the `$ banachscale ARGV` or `@ NAME` line that opens
    its block."""
    label, out = "", []
    for line in lines:
        if line.startswith(("$ ", "@ ")):
            label = line
        out.append(label)
    return out


def mismatch(golden: list[str], fresh: list[str]) -> str | None:
    """Why fresh is not golden (None when it is): the two version headers,
    or the number of moved lines and the first few with their labels."""
    if golden[:1] != fresh[:1]:
        return (f"the golden file was written under {golden[0][2:]!r} and "
                f"this run has {fresh[0][2:]!r}; on the new versions, "
                f"regenerate it with `{REGENERATE}` and review its diff")
    if golden == fresh:
        return None
    blocks = [op for op in difflib.SequenceMatcher(
        None, golden, fresh, autojunk=False).get_opcodes() if op[0] != "equal"]
    moved = sum(max(i2 - i1, j2 - j1) for _, i1, i2, j1, j2 in blocks)
    old_labels, new_labels = _labels(golden), _labels(fresh)
    shown = []
    for _, i1, i2, j1, j2 in blocks:
        shown += [f"{old_labels[i]}\n  - {golden[i]}" for i in range(i1, i2)]
        shown += [f"{new_labels[j]}\n  + {fresh[j]}" for j in range(j1, j2)]
    return "\n".join([f"{moved} of {len(golden)} golden lines moved; if the "
                      f"move is meant, run `{REGENERATE}` and list the diff "
                      f"in CHANGES.md", *shown[:SHOWN]])


def test_shipped_outputs_match_the_golden_file():
    message = mismatch(GOLDEN.read_text().splitlines(), _digest().outputs())
    if message is not None:
        pytest.fail(message, pytrace=False)


def test_mismatch_names_versions_and_moved_lines():
    golden = ["# python 3.11.7 numpy 2.4.6", "$ banachscale lie --demo circle",
              "exit 0", "residual 1.6e-20", "@ circle(cap=64)",
              "residual 0x1.30fe268657736p-66"]
    assert mismatch(golden, list(golden)) is None

    other = ["# python 3.12.1 numpy 2.4.6", *golden[1:]]
    message = mismatch(golden, other)
    assert "python 3.11.7 numpy 2.4.6" in message
    assert "python 3.12.1 numpy 2.4.6" in message

    moved = [*golden[:3], "residual 1.7e-20", *golden[4:-1],
             "residual 0x1.30fe268657737p-66"]
    lines = mismatch(golden, moved).splitlines()
    assert lines[0].startswith("2 of 6 golden lines moved")
    assert lines[1:] == [
        "$ banachscale lie --demo circle", "  - residual 1.6e-20",
        "$ banachscale lie --demo circle", "  + residual 1.7e-20",
        "@ circle(cap=64)", "  - residual 0x1.30fe268657736p-66",
        "@ circle(cap=64)", "  + residual 0x1.30fe268657737p-66"]
