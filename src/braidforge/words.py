"""Positive braid words and the elementary move calculus.

A word is a finite sequence of generator indices 1..N-1 on N strands,
stored left to right; position 1 is the leftmost letter and the end of
the sequence is the top of the braid. Moves are the positive braid
relation, far commutativity, elementary conjugation at either end, and
positive Markov (de)stabilization. All values are immutable. Where a
braid relation or a far commutation applies is tested once, at one
position, by _site, the one site test: rewrite_sites enumerates it,
move_applies and replay ask it, and so does garside's realization. The
end moves follow one rule table: end_position says where each stands,
undo_move which move undoes an applied move, and NEUTRAL which kinds
keep every brick in place; no other module restates them. replay is the
one move applier; apply_move replays one move.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .errors import MoveError, WordError


class MoveKind(Enum):
    BRAID_REL = "braid"
    FAR_COMM = "farcomm"
    ELEM_CONJ_LEFT = "conjL"
    ELEM_CONJ_RIGHT = "conjR"
    MARKOV_STAB = "stab"
    MARKOV_DESTAB = "destab"


@dataclass(frozen=True)
class BraidWord:
    """A positive word over sigma_1..sigma_{N-1} with strand count N."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise WordError(f"strand count must be >= 2, got {self.strands}")
        top = self.strands - 1
        # min and max read every letter at C speed
        if self.letters and not 1 <= min(self.letters) <= max(self.letters) <= top:
            pos, i = next((p, i) for p, i in enumerate(self.letters, 1) if not 1 <= i <= top)
            raise WordError(f"letter {i} at position {pos} out of range 1..{top}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return serialize_word(self)

    def letter(self, position: int) -> int:
        """The letter at a 1-based position."""
        if not 1 <= position <= len(self.letters):
            raise WordError(f"position {position} out of range")
        return self.letters[position - 1]

    def occurrences(self, column: int) -> tuple[int, ...]:
        """1-based positions of sigma_column, in increasing order."""
        return tuple(p for p, i in enumerate(self.letters, start=1) if i == column)

    def occurrences_by_letter(self) -> dict[int, tuple[int, ...]]:
        """occurrences() of each letter that occurs, in increasing letter
        order, from one pass over the word."""
        occ: dict[int, list[int]] = {}
        for p, i in enumerate(self.letters, start=1):
            occ.setdefault(i, []).append(p)
        return {i: tuple(occ[i]) for i in sorted(occ)}

    def to_dict(self) -> dict:
        """The word's JSON object, the one spelling of it in any output."""
        return {"strands": self.strands, "letters": list(self.letters)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class WordMove:
    """One elementary move, located by a 1-based position into the word."""

    kind: MoveKind
    position: int = 1


_WORD = re.compile(r"(?:[\s,]*(?:s|σ)?\d+(?=[\s,]|\Z))*[\s,]*")
_INDEX = re.compile(r"\d+")


def parse_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace- or comma-separated indices, optionally 's'-prefixed.

    The strand count is max index + 1 unless given explicitly; an explicit
    count may exceed that (split links are allowed). Empty input requires
    an explicit count. One match reads the tokens, an optional s or σ and
    digits each; only a text it refuses is read token by token.
    """
    letters = tuple(map(int, _INDEX.findall(text))) if _WORD.fullmatch(text) else None
    if letters is None or 0 in letters:
        for tok in filter(None, re.split(r"[\s,]+", text)):
            if not _WORD.fullmatch(tok):
                raise WordError(f"cannot parse letter {tok!r}")
            if not int(_INDEX.search(tok)[0]):
                raise WordError("generator index must be positive, got 0")
    if strands is None:
        if not letters:
            raise WordError("empty word needs an explicit strand count")
        strands = max(letters) + 1
    return BraidWord(strands, letters)


def serialize_word(w: BraidWord) -> str:
    """Inverse of parse_word: space-separated indices."""
    return " ".join(str(i) for i in w.letters)


def move_applies(w: BraidWord, m: WordMove) -> bool:
    """Whether the move is valid on this word at its position."""
    return _applies(w.strands, w.letters, m.kind, m.position)


def _applies(strands: int, letters: tuple[int, ...] | list[int], kind: MoveKind, p: int) -> bool:
    """move_applies on a word's strand count and letters, a tuple or list.
    An end move applies at its end position only; all but stab need a
    letter, and destab a single trailing sigma_{N-1} that is its only
    occurrence, on three strands or more."""
    if kind is MoveKind.BRAID_REL or kind is MoveKind.FAR_COMM:
        return _site(letters, kind, p)
    end = end_position(kind, len(letters))
    if end is None:
        raise MoveError(f"unknown move kind {kind}")
    if kind is MoveKind.MARKOV_DESTAB:
        top = strands - 1
        return p == end >= 1 and strands >= 3 and letters[-1] == top and letters.count(top) == 1
    return p == end and (kind is MoveKind.MARKOV_STAB or len(letters) >= 1)


def apply_move(w: BraidWord, m: WordMove) -> BraidWord:
    """Apply a move; raises MoveError if it does not apply."""
    return replay(w, (m,))


def end_position(kind: MoveKind, n: int) -> int | None:
    """Where an end move of the kind stands on a word of n letters: conjL
    at 1, conjR and destab at n, stab at n + 1; None for braid and
    farcomm, which stand where their letters do."""
    if kind is MoveKind.ELEM_CONJ_LEFT:
        return 1
    if kind is MoveKind.ELEM_CONJ_RIGHT or kind is MoveKind.MARKOV_DESTAB:
        return n
    return n + 1 if kind is MoveKind.MARKOV_STAB else None


# each end move's inverse kind, in enumerate_moves order
_UNDO = {
    MoveKind.ELEM_CONJ_LEFT: MoveKind.ELEM_CONJ_RIGHT,
    MoveKind.ELEM_CONJ_RIGHT: MoveKind.ELEM_CONJ_LEFT,
    MoveKind.MARKOV_STAB: MoveKind.MARKOV_DESTAB,
    MoveKind.MARKOV_DESTAB: MoveKind.MARKOV_STAB,
}

# the kinds that keep every brick in place: the linking graph is unchanged
NEUTRAL = frozenset({MoveKind.FAR_COMM, MoveKind.MARKOV_STAB, MoveKind.MARKOV_DESTAB})


def undo_move(m: WordMove, n: int) -> WordMove:
    """The move that undoes m, a move already applied, on the word of n
    letters it produced; unchecked. Braid relations and far commutations
    undo themselves; an end move's inverse kind stands at its end position."""
    kind = _UNDO.get(m.kind)
    return m if kind is None else WordMove(kind, end_position(kind, n))


def inverse_move(w: BraidWord, m: WordMove) -> WordMove:
    """The move that undoes m; valid on apply_move(w, m). Raises MoveError
    where m does not apply, as apply_move does."""
    return undo_move(m, len(apply_move(w, m).letters))


def _site(letters: tuple[int, ...] | list[int], kind: MoveKind, p: int) -> bool:
    """Whether a braid relation (letters i j i at p with |i - j| = 1) or a
    far commutation (letters i j at p with |i - j| >= 2) applies at the
    1-based position p; False outside the word."""
    if kind is MoveKind.BRAID_REL:
        return (
            1 <= p <= len(letters) - 2
            and letters[p - 1] == letters[p + 1]
            and abs(letters[p - 1] - letters[p]) == 1
        )
    return 1 <= p <= len(letters) - 1 and abs(letters[p - 1] - letters[p]) >= 2


def rewrite_sites(letters: tuple[int, ...]) -> Iterator[tuple[MoveKind, int]]:
    """(kind, position) of every braid relation, then every far
    commutation, each by increasing position: the moves that keep the
    braid, in enumerate_moves order."""
    for kind in (MoveKind.BRAID_REL, MoveKind.FAR_COMM):
        for p in range(1, len(letters)):
            if _site(letters, kind, p):
                yield kind, p


def enumerate_moves(w: BraidWord) -> list[WordMove]:
    """All valid moves, ordered by kind then position."""
    strands, letters = w.strands, w.letters
    moves = [WordMove(kind, p) for kind, p in rewrite_sites(letters)]
    for kind in _UNDO:
        p = end_position(kind, len(letters))
        if _applies(strands, letters, kind, p):
            moves.append(WordMove(kind, p))
    return moves


def replay(w: BraidWord, moves: list[WordMove] | tuple[WordMove, ...]) -> BraidWord:
    """The word after the moves in order, each tested where it stands and
    applied in place on one letter list (braid relations and far
    commutations in O(1)); raises MoveError at the first that does not apply."""
    strands, letters = w.strands, list(w.letters)
    braid, far = MoveKind.BRAID_REL, MoveKind.FAR_COMM  # read once: Enum reads are slow
    for m in moves:
        kind, p = m.kind, m.position
        if kind is braid or kind is far:
            if not _site(letters, kind, p):
                raise MoveError(f"{kind.value} does not apply at position {p}")
            if kind is braid:
                letters[p - 1 : p + 2] = letters[p], letters[p - 1], letters[p]
            else:
                letters[p - 1], letters[p] = letters[p], letters[p - 1]
        elif not _applies(strands, letters, kind, p):
            raise MoveError(f"{kind.value} does not apply at position {p}")
        elif kind is MoveKind.ELEM_CONJ_LEFT:
            letters.append(letters.pop(0))
        elif kind is MoveKind.ELEM_CONJ_RIGHT:
            letters.insert(0, letters.pop())
        elif kind is MoveKind.MARKOV_STAB:
            letters.append(strands)
            strands += 1
        else:
            letters.pop()
            strands -= 1
    return BraidWord(strands, tuple(letters))
