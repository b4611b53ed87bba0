"""The sample file of the command line: `estimate`'s readers, `simulate`'s
writer, and the pool of forked workers that parses and formats its text on
every usable core.

The command line imports this module inside the commands that read or
write a sample, so `trunctail diagnose` loads no numpy.
"""

from __future__ import annotations

import collections
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._params import _usable_cores
from .estimator import _adopt, _TailTooShort

# Values per chunk of `simulate`'s text: about 1.3 MB
_WRITE_CHUNK = 2**16
# Bytes per piece of `estimate`'s file: about 100,000 lines
_READ_PIECE = 2**21
# Most lines, as a share of n, that _top_samples parses one at a time. A line
# costs it about 2.5 times what it costs _read_sample_file's bulk conversion
# on two cores, so near a third of n the full reader would be faster
_TOP_SHARE = 1 / 8
# Bytes per piece of _top_samples' scan: the first alone refuses a file in
# another format, and smaller pieces than _READ_PIECE's keep the scan in cache
_SCAN_PIECE = 2**18


def _top_samples(data: bytes, k: int | None):
    """Samples of the file's top, parsed exactly, for a forced k or None.

    One scan gives the start, end and class of every line after the header,
    piece by piece (_line_ranges with _SCAN_PIECE). A plain line is digits
    with one point, as repr writes the values in [1e-4, 1e16). Its class is
    its count d of integer digits, so its value is below 10**d, except that
    '0.' and digits is class 0, as is a line starting with the point: below
    1 = 10**0. Classes stop at 310, where every line is inf. Every other line
    is special and takes the top class. A sample holds the special lines and
    the plain lines of the classes down to c, each from float() on its own
    bytes, as the line loop reads it. It floors at 10**b, b the highest class
    below c (-inf when there is none): a plain line it does not hold has at
    most b integer digits, so its decimal value is below 10**b, and rounding
    is monotone, so its double is at most float(10**b). Every value above the
    floor is held, the invariant of _adopt, so a count or an order statistic
    reaching the floor raises _TailTooShort and none answers wrongly.

    Special lines are parsed first, with the top class, so the whole file is
    known to be valid before the first sample. The samples stop, leaving the
    file to the full reader, for a file with no data lines or whose last line
    has no line feed; when the special lines of a piece pass _TOP_SHARE of
    its lines, as in a file written in another format; when a forced k passes
    _TOP_SHARE of the lines that the first piece's line length gives the
    file; when a special line is not a finite nonnegative number (a blank
    line is not); or when the lines to hold would pass _TOP_SHARE of n."""
    if data[-1:] != b"\n":
        return
    buf = np.frombuffer(data, np.uint8)
    pieces = []
    for start, end in _line_ranges(data, _SCAN_PIECE):
        pieces.append(_scan_piece(buf, start, end))
        lines = pieces[-1][2].size
        if np.count_nonzero(pieces[-1][2] < 0) > _TOP_SHARE * lines:
            return
        if len(pieces) == 1 and k is not None and k > _TOP_SHARE * lines * (len(data) - start) / (end - start):
            return
    if not pieces:
        return
    top = max(max(int(classes.max()) for _, _, classes in pieces), 0)
    for _, _, classes in pieces:
        classes[classes < 0] = top
    n = sum(classes.size for _, _, classes in pieces)
    counts = sum(np.bincount(classes, minlength=311) for _, _, classes in pieces)
    down = np.flatnonzero(counts)[::-1].tolist()
    held = np.empty(0)
    for c, below in zip(down, down[1:] + [None]):
        if held.size + counts[c] > _TOP_SHARE * n:
            return
        bounds = []
        for starts, ends, classes in pieces:
            new = np.flatnonzero(classes == c)
            bounds += zip(starts[new].tolist(), ends[new].tolist())
        try:
            values = np.array([float(data[s:e]) for s, e in bounds])
        except ValueError:
            return
        if not (np.isfinite(values).all() and not (values < 0.0).any()):
            return
        held = np.concatenate((held, values))
        try:
            # a top class of 310 holds an inf, so below <= 308 here
            sample = _adopt(held, n, -math.inf if below is None else float(10**below))
        except _TailTooShort:  # what it holds rounds to the floor
            continue
        yield sample


def _scan_piece(buf: np.ndarray, start: int, end: int):
    """The start, end and class of each line in buf[start:end], which ends in
    a line feed, with class -1 for a special line."""
    below = buf[start:end] - 48  # a byte below b"0" wraps past 9 in uint8
    at = np.flatnonzero(np.greater(below, 9, out=below.view(bool)))
    at += start
    byte = buf[at]
    nl = np.flatnonzero(byte == 10)
    ends = at[nl]
    starts = np.empty_like(ends)
    starts[0] = start
    np.add(ends[:-1], 1, out=starts[1:])
    # a plain line's non-digits are its point and its line feed, after the
    # line feed before it, for which the piece's last stands in at its start
    point = at[nl - 1]
    plain = (byte[nl - 1] == 46) & (byte.take(nl - 2, mode="wrap") == 10) & (ends - starts > 1)
    digits = point - starts
    digits -= (digits == 1) & (buf[point - 1] == 48)
    # a line of 310 or more integer digits is inf, whatever its length
    return starts, ends, np.where(plain, np.minimum(digits, 310), -1).astype(np.int16)


def _read_sample_file(path: str, pieces: list[bytes]) -> np.ndarray:
    """The values of the file at path from the pieces that _cut_lines makes
    of its bytes (none if it cannot be read): one nonnegative decimal per
    line; optional 'x' header; blanks ignored.

    Each piece that _cut_lines makes goes through one numpy conversion, on
    every usable core when there are two or more pieces. The conversion
    parses each line as float() parses bytes: ASCII only, with ASCII
    whitespace around the number. The line loop also breaks lines at
    vertical tabs and form feeds, which here can only sit in that whitespace,
    so it reads the same values. A file that does not convert cleanly is read
    again by the line loop, which raises the line-numbered error or reads the
    blank lines it allows."""
    if pieces:
        parts: list[np.ndarray] = []
        try:
            _map_chunks(_parse_chunk, pieces, parts.append)
        except ValueError:
            pass
        else:
            values = np.concatenate(parts)
            if np.isfinite(values).all() and not (values < 0.0).any():
                return values
    return np.array(_read_sample_lines(path))


def _cut_lines(data: bytes) -> list[bytes]:
    """The bytes after the header in the pieces of _line_ranges with
    _READ_PIECE. A file with a NUL byte gives no pieces, since numpy's
    fixed-width strings drop trailing NULs."""
    if b"\0" in data:
        return []
    return [data[start:end] for start, end in _line_ranges(data, _READ_PIECE)]


def _line_ranges(data: bytes, piece: int):
    """(start, end) of each piece of the bytes after the header (_header_end),
    cut just after the first line feed at least piece bytes into it, or at
    the end of the bytes. A line feed always ends a line, so the pieces'
    lines are the file's lines."""
    start = _header_end(data)
    while start < len(data):
        end = data.find(b"\n", start + piece) + 1 or len(data)
        yield start, end
        start = end


def _header_end(data: bytes) -> int:
    """Where the data lines start: after the first line if it is an 'x'
    header. The header test strips only spaces and tabs, the whitespace
    bytes.splitlines leaves inside a line."""
    first = data[:data.find(b"\n") + 1 or None].splitlines(keepends=True)[:1]
    return len(first[0]) if first and first[0].rstrip(b"\r\n").strip(b" \t").lower() == b"x" else 0


def _parse_chunk(piece: bytes) -> np.ndarray:
    return np.array(piece.splitlines(), dtype=float)


def _read_sample_lines(path: str) -> list[float]:
    """The line-by-line reader: the reference for _read_sample_file's
    conversion of pieces and the source of every reader error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        if lineno == 1 and s.lower() == "x":
            continue
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {s!r}") from None
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(
                f"{path}: line {lineno}: values must be finite and nonnegative, got {s}"
            )
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no data values")
    return values


def _write_sample(out, values: np.ndarray) -> None:
    """The 'x' header, then repr of each value on its own line. The values are
    formatted _WRITE_CHUNK at a time, on every usable core when there is more
    than one chunk, and written in order as each chunk's text is ready, so
    the text is never held whole. The formatter's module is imported here,
    before the pool forks, so the workers start with it and `estimate` does
    not load it."""
    from . import _reprtext

    out.write("x\n")
    chunks = [values[i:i + _WRITE_CHUNK] for i in range(0, values.size, _WRITE_CHUNK)]
    _map_chunks(_reprtext.repr_lines, chunks, out.write)


def _map_chunks(func, chunks: list, sink) -> None:
    """sink(func(chunk)) for each chunk, in order. With two or more chunks
    and usable cores, and 'fork' available, func runs in a pool of forked
    processes, one per usable core, with at most two chunks per worker in
    flight; otherwise it runs here. If sink or func raises, the chunks not
    yet started are cancelled and the workers joined before the exception
    goes on. A worker that dies raises ChildProcessError, which main reports
    as an OSError. The pool modules are imported only on the pool path."""
    workers = min(len(chunks), _usable_cores())
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        for chunk in chunks:
            sink(func(chunk))
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a forked worker flushes the standard streams as it exits, so anything
    # they hold now would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker)
    try:
        pending = collections.deque()
        for chunk in chunks:
            if len(pending) == 2 * workers:
                sink(pending.popleft().result())
            pending.append(pool.submit(func, chunk))
        while pending:
            sink(pending.popleft().result())
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from None
    finally:
        pool.shutdown(cancel_futures=True)


def _start_worker() -> None:
    """Leave Ctrl-C to the parent, which cancels the chunks and joins the
    workers, and end the worker when the parent ends: a killed parent
    cannot join it, and it would wait for chunks forever."""
    import multiprocessing
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with, args=(multiprocessing.parent_process(),), daemon=True).start()


def _exit_with(parent) -> None:
    parent.join()
    os._exit(1)
