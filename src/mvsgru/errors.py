"""Exception types shared across the package.

Everything raised on purpose derives from MvsError so the CLI can map
validation problems to exit code 1 and genuine runtime failures to 2.
``header_tokens`` and ``header_number`` read the text headers of the scene
file formats; they sit next to FileFormatError, through which they fail.
"""

import re


class MvsError(Exception):
    """Base class for all errors this package raises deliberately."""


class ShapeError(MvsError):
    """An array has the wrong rank, extent, or axis for the requested op."""


class ContractError(MvsError):
    """A call violated a documented precondition (not a shape problem)."""


class ConfigError(MvsError):
    """Invalid configuration value, camera setup, or CLI argument."""


class FileFormatError(MvsError):
    """Malformed on-disk artifact. Carries the path and byte offset.

    The offset counts bytes from the start of the file and points at the
    first token at fault, in file order (for ``pair.txt``, at the start of
    that token's line).  A truncated file fails at its length; a fault that
    no one byte holds, such as a missing file or camera values that do not
    fit together, at 0.
    """

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = str(path)
        self.offset = int(offset)


# a comment ends at its newline, so each one matches one way only and no
# backtracking can start a token inside it; one with no newline after it
# runs to the end of the file, where no token follows
_TOKEN = {False: re.compile(rb"\s*(\S+)"),
          True: re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)")}


def header_tokens(raw: bytes, count: int,
                  comments: bool = False) -> tuple[list[tuple[int, bytes]], int]:
    """The first ``count`` whitespace-separated tokens of ``raw``.

    Returns ``[(byte offset, token), ...]`` and the offset just past the
    last token found.  Whitespace is ASCII whitespace: ``raw`` is never
    decoded.  With ``comments``, a ``#`` where a token could start skips
    the rest of its line.  A file with fewer tokens gets ``(len(raw), b"")``
    for each missing one, which no check accepts, so a truncated header
    fails at the file's length once the tokens before the cut are checked.
    """
    pattern, tokens, end = _TOKEN[comments], [], 0
    while len(tokens) < count and (m := pattern.match(raw, end)):
        tokens.append((m.start(1), m[1]))
        end = m.end()
    return tokens + [(len(raw), b"")] * (count - len(tokens)), end


def header_number(path, token: tuple[int, bytes], cast, what: str, lo=None):
    """``cast`` of a ``(byte offset, token)`` pair, or FileFormatError there.

    ``lo``, if given, is the smallest value accepted.  A ``_`` fails: no
    header format has the digit groups ``int`` and ``float`` accept.
    """
    offset, text = token
    try:
        value = cast(text)
        if b"_" not in text and (lo is None or value >= lo):
            return value
    except ValueError:
        pass
    raise FileFormatError(path, offset, f"bad {what}" if text else f"truncated before the {what}")


class SceneGenerationError(MvsError):
    """A synthetic scene spec produced a degenerate scene."""


class NumericalError(MvsError):
    """A computation went numerically bad: a runtime failure, not bad input."""


class TrainStepError(NumericalError):
    """A training step went numerically bad (NaN gradient or loss)."""


class EmptySampleError(MvsError):
    """A training sample has no valid ground-truth pixels and was skipped."""
