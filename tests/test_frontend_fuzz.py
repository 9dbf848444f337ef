"""Frontend mutation fuzzing: each corpus file with a token deleted,
duplicated or swapped with another, or a stray character inserted, through
`caps check` and `caps run --verify-meta`.  Whatever the mutant, the command
ends in a documented exit code (0-3) and prints no traceback."""

import random

import pytest

from capslang import cli
from capslang.parser import tokenize

from conftest import CORPUS

# ASCII characters no token uses, and non-ASCII ones: letters, a currency
# sign, spaces, a byte-order mark and digits (`str.isdigit` holds for the
# last three)
STRAY = "@#$%^&*!?~`|\\'\":<>[]-/\x00\x0b\x0c" + "éλ€\u00a0\u2028\ufeff²٣１"

# mutants of each kind per file, with a seed of its own per file
PER_KIND = 20


def token_spans(src):
    """(offset, length) of each token of src, EOF excluded."""
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    return [
        (line_starts[t.line - 1] + t.col - 1, len(t.text)) for t in tokenize(src)[:-1]
    ]


def mutants(src, rng):
    spans = token_spans(src)
    for _ in range(PER_KIND):
        (a, la), (b, lb) = sorted(rng.sample(spans, 2))
        first, second = src[a : a + la], src[b : b + lb]
        yield src[:a] + src[a + la :]  # delete
        yield src[: a + la] + " " + first + src[a + la :]  # duplicate
        yield src[:a] + second + src[a + la : b] + first + src[b + lb :]  # swap
        k = rng.randrange(len(src) + 1)
        yield src[:k] + rng.choice(STRAY) + src[k:]  # stray character


@pytest.mark.parametrize(
    "path", sorted(CORPUS.glob("*/*.caps")), ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_mutants_end_in_a_documented_exit(path, tmp_path, capsys):
    rng = random.Random(path.name)
    f = tmp_path / "mutant.caps"
    for mutant in mutants(path.read_text(), rng):
        f.write_text(mutant, encoding="utf-8")
        for argv in (["check", str(f)], ["run", "--verify-meta", str(f)]):
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, mutant, err)
            assert "Traceback" not in err, (argv, mutant, err)
