"""`present` streams its output: the same bytes, in memory that does not
grow with them.

The 300-letter word is 4-strand, drawn from ``random.Random(3)`` as
``randint(1, 3)`` per letter, as in ``tests/data/ladder.py``: 297 bricks
and 44,159 relators, 5.3 MB of JSON. Its stdout in each format is pinned
by SHA-256, as printed when the relators were a tuple spelled in full
before the first byte. Into a sink that drops what it is given, the
peak of Python's allocations in plain format at 300 letters is at most
twice that at 150 letters: with every relator held it was 4.3 times
(4.5 to 19.2 MiB), streamed 256 relators a piece it is 0.41 to 0.43 MiB.
"""

import contextlib
import hashlib
import io
import random
import tracemalloc

import pytest

from braidforge.cli import main
from braidforge.presentations import Presentation, serialize, serialize_pieces

PINS = {
    "plain": "b5aae8eeb074f97336cf4d47dd24a15f5cfcd4ea40f8fd75637c8b72a9aca7c8",
    "gap-style": "276def07a06fcc4b9381262f850ec086bced96bcae1bbf51d77772c66f490823",
    "json": "2de9810700383f2d252068728232e32516e8d2ee2e44e159fd32fbad438188ce",
}


def word(letters: int) -> str:
    rng = random.Random(3)
    return " ".join(str(rng.randint(1, 3)) for _ in range(letters))


class Null(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("fmt", sorted(PINS))
def test_present_prints_the_pinned_bytes(fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["present", word(300), "--strands", "4", "--format", fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINS[fmt]


def test_present_peak_does_not_grow_with_its_output():
    argv = ["present", "--strands", "4", "--format", "plain"]
    peaks = []
    with contextlib.redirect_stdout(Null()):
        assert main([*argv, "1 2 1"]) == 0  # the parsers, built once per process
        for letters in (150, 300):
            tracemalloc.start()
            try:
                assert main([*argv, word(letters)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_pieces_join_to_serialize():
    p = Presentation(0, ())
    for fmt in PINS:
        assert "".join(serialize_pieces(p, fmt)) == serialize(p, fmt)
    with pytest.raises(ValueError):
        serialize_pieces(p, "nope")
