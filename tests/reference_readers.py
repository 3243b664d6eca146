"""Reference oracle: the per-character accent stripping and the per-link
Pharaoh parsing that ``tagcopy.corpus`` and ``tagcopy.align`` replaced.

``_strip_accents`` calls ``unicodedata.combining`` on every character;
``read_pharaoh`` converts every link token with ``int()`` and checks each
line for ``--``, ``+`` and ``_``. The parity tests require the library to
return equal results and raise identical messages; it is not used by the
toolkit.
"""

import unicodedata

from tagcopy.corpus import NormProfile
from tagcopy.errors import MalformedFile


def _strip_accents(text: str) -> str:
    # canonical decomposition, then drop combining marks; this exact recipe
    # keeps the transform bit-reproducible across runs and machines
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def tokenize_normalize(raw_line: str, profile: NormProfile = NormProfile()) -> list[str]:
    if profile.lowercase:
        raw_line = raw_line.lower()
    if profile.strip_accents:
        raw_line = _strip_accents(raw_line)
    return raw_line.split()


def _is_link(part: str) -> bool:
    """Whether read_pharaoh accepts a token: two digit runs joined by ``-``."""
    i, _, j = part.partition("-")
    try:
        int(i), int(j)
    except ValueError:
        return False
    return i.isdigit() and j.isdigit()


def read_pharaoh(path) -> list[set[tuple[int, int]]]:
    """One set of (i, j) links per line of ``i-j`` tokens, each index bare
    digits; a malformed file raises MalformedFile naming path:line."""
    sets = []
    with open(path, encoding="utf-8", newline="\n") as f:  # a line ends only at "\n"
        # one handler around the whole read keeps the per-token loop bare
        try:
            for line in f:
                links = set()
                for part in line.split():
                    i, _, j = part.partition("-")
                    links.add((int(i), int(j)))
                # int() also reads a sign and underscores; one check of the
                # whole line keeps them out of the per-token loop
                if "--" in line or "+" in line or "_" in line:
                    raise ValueError
                sets.append(links)
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError:
            part = next(p for p in line.split() if not _is_link(p))
            raise MalformedFile(
                f"{path}:{len(sets) + 1}: bad link {part!r}, expected i-j"
            ) from None
    return sets
