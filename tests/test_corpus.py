"""Each call of the seeded corpora (``tests/corpus.py``) gives its pinned digest.

A change that moves an output on purpose re-pins only the lines it moves
and lists them in CHANGES.md; the corpora's seeds and sizes stay.
"""

from pathlib import Path

import corpus

PINS = Path(__file__).with_name("corpus.sha256")


def test_each_call_gives_its_pinned_digest(tmp_path):
    pinned = PINS.read_text().splitlines()
    lines = corpus.digests(str(tmp_path))
    assert len(lines) == len(pinned) == (2 * corpus.SIZE + corpus.BOUNDARY_SIZE
                                         + len(corpus.VERIFY_OPTIONS))
    calls = {name: f"its campaign file:\n{text}" for name, _, text in corpus.calls()}
    calls.update((name, f"its call: {how}") for name, how, _ in corpus.boundary_calls())
    calls.update((name, f"its command line: {argv}") for name, argv in corpus.verify_calls())
    for was, now in zip(pinned, lines):
        name = now.split(" ", 1)[1]
        assert now == was, f"call {name!r} moved from {was!r}; {calls[name]}"
