"""Each call of the seeded campaign corpus (``tests/corpus.py``) gives its pinned digest.

A change that moves an output on purpose re-pins only the lines it moves
and lists them in CHANGES.md; ``corpus.SEED`` and ``corpus.SIZE`` stay.
"""

from pathlib import Path

import corpus

PINS = Path(__file__).with_name("corpus.sha256")


def test_each_call_gives_its_pinned_digest(tmp_path):
    pinned = PINS.read_text().splitlines()
    lines = corpus.digests(str(tmp_path))
    assert len(lines) == len(pinned) == 2 * corpus.SIZE
    texts = {name: text for name, _, text in corpus.calls()}
    for was, now in zip(pinned, lines):
        name = now.split(" ", 1)[1]
        assert now == was, f"call {name!r} moved from {was!r}; its campaign file:\n{texts[name]}"
