"""FOCP v1, the text format of finite problems (grammar in the README).

Both directions work on numpy columns, a block at a time, with no Python
loop over records: the writer formats each distinct cost once and lays the
records out as byte arrays; the reader classes the bytes of about 8 MiB of
whole lines at once and converts token columns, sending only tokens outside
the plain ASCII forms through int() or float().  FiniteProblem imports this
module on first use.
"""

from __future__ import annotations

import re

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import INF, format_cost
from .errors import InputError, SoundnessAlarm


def text_blocks(problem):
    """FOCP v1 text of ``problem`` in consecutive pieces.  Each distinct cost
    is formatted once, and the records are assembled as byte arrays a block
    of pairs at a time."""
    costs = problem.edge_costs if problem.edge_costs is not None else problem.pair_costs
    bits = np.unique(np.concatenate([problem.G, costs]).view(np.uint64))
    tokens = np.array([format_cost(v) for v in bits.view(np.float64)], dtype="S")
    tokens = tokens.view(np.uint8).reshape(len(bits), -1)

    def token_of(values):
        return np.searchsorted(bits, values.view(np.uint64))

    states, inputs = _decimal_table(problem.n), _decimal_table(problem.m)
    pair_token = None if problem.pair_costs is None else token_of(problem.pair_costs)
    yield f"focp {problem.n} {problem.m}\n"
    yield _render([b"G ", states, b" ", tokens[token_of(problem.G)], b"\n"])
    ptr, start = problem.trans_ptr, 0
    while start < problem.n * problem.m:
        stop = max(start + 1, int(np.searchsorted(ptr, ptr[start] + _WRITE_EDGES, "right")) - 1)
        pid = np.repeat(np.arange(start, stop), np.diff(ptr[start : stop + 1]))
        a, b = ptr[start], ptr[stop]
        token = token_of(problem.edge_costs[a:b]) if pair_token is None else pair_token[pid]
        yield _render([
            b"T ", states[pid // problem.m], b" ", inputs[pid % problem.m], b" ",
            states[problem.trans_succ[a:b]], b" ", tokens[token], b"\n",
        ])
        start = stop


def read(text: str):
    """(n, m, G, trans_ptr, trans_succ, edge_costs) of FOCP v1 text, read
    about _READ_BYTES of whole lines at a time; trans_succ is int32.  An
    error quotes the first offending line in file order."""
    if not text.isascii():
        # str.split and str.splitlines also cut at non-ASCII whitespace:
        # make it ASCII, so that the byte tokenizer cuts in the same places
        text = re.sub(r"[^\S\x00-\x7f]", lambda s: "\n" if s[0] in "\x85\u2028\u2029" else " ", text)
    data = text.encode("utf-8", "surrogatepass")
    classes = _byte_classes()
    n = m = None
    columns = [[] for _ in range(5)]  # G: state, cost; T: pair id, successor, cost
    t_blocks = []
    start = 0
    while start < len(data):
        block = _Block(data, start, classes)
        if n is None and len(block.first):
            n, m = _header(block.line(0))
            block.drop_header()
        if n is not None:
            records = block.records(n, m)
            for column, values in zip(columns, records):
                column.append(values)
            t_blocks.append((start, len(records[-1])))
        start = block.stop
    if n is None:
        raise InputError("missing focp header")
    del data, block  # the text is encoded again only to quote a duplicate
    # one column at a time, each freeing its blocks before the next is joined
    g_state, g_cost, pid, succ, costs = (np.concatenate(columns.pop(0)) for _ in range(5))
    G = np.full(n, INF)
    last = len(g_state) - 1 - np.unique(g_state[::-1], return_index=True)[1]
    G[g_state[last]] = g_cost[last]  # a repeated G record: the last one wins
    key = pid.astype(np.int64) * n + succ
    if np.any(key[1:] <= key[:-1]):
        sorted_key = np.sort(key)
        if np.any(sorted_key[1:] == sorted_key[:-1]):
            order = np.argsort(key, kind="stable")
            record = int(order[1:][key[order[1:]] == key[order[:-1]]].min())
            (p, u), q = divmod(int(pid[record]), m), int(succ[record])
            for start, count in t_blocks:
                if record < count:
                    break
                record -= count
            line = _Block(text.encode("utf-8", "surrogatepass"), start, classes).t_line(record)
            raise InputError(f"duplicate transition ({p},{u},{q}): {line!r}")
        if np.any(pid[1:] < pid[:-1]):
            order = np.argsort(pid, kind="stable")  # pair order; file order within a pair
            pid, succ, costs = pid[order], succ[order], costs[order]
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(pid, minlength=n * m), out=ptr[1:])
    return n, m, G, ptr, succ, costs


_WRITE_EDGES = 1 << 18  # T records rendered per block by text_blocks
_READ_BYTES = 1 << 23  # text tokenized per block by read
_INT_DIGITS = 18  # longer integer tokens are read by int(), one at a time
_COST_CHARS = 32  # longer cost tokens are read by float(), one at a time


def _decimal_table(count):
    """Row v: the ASCII decimal digits of v, left-aligned, zero bytes after."""
    v = np.arange(count, dtype=np.int64)[:, None]
    width = len(str(count - 1))
    n_digits = 1 + (v >= 10 ** np.arange(1, width)).sum(axis=1, keepdims=True)
    shift = n_digits - 1 - np.arange(width)
    digits = v // 10 ** np.maximum(shift, 0) % 10 + ord("0")
    return np.where(shift >= 0, digits, 0).astype(np.uint8)


def _render(fields):
    """ASCII text of records laid out field by field.  A field is a (records,
    width) uint8 array, whose zero bytes are padding, or bytes that every
    record repeats."""
    widths = [len(f) if isinstance(f, bytes) else f.shape[1] for f in fields]
    out = np.zeros((max(len(f) for f in fields if isinstance(f, np.ndarray)), sum(widths)), np.uint8)
    col = 0
    for f, width in zip(fields, widths):
        out[:, col : col + width] = np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f
        col += width
    return out[out != 0].tobytes().decode("ascii")


def _header(line):
    if not line.startswith("focp"):
        raise InputError("missing focp header")
    try:
        _, n_s, m_s = line.split()
        n, m = int(n_s), int(m_s)
    except ValueError as exc:
        raise InputError("malformed focp header") from exc
    if n <= 0 or m <= 0:
        raise InputError("focp header: need positive state/input counts")
    if n * m >= 2**31:
        raise InputError("focp header: need fewer than 2**31 (state, input) pairs")
    return n, m


def _check_record(line, n, m):
    """Raise the InputError of one G or T record line, if it has one."""
    parts = line.split()
    try:
        if parts[0] == "G" and len(parts) == 3:
            if not 0 <= int(parts[1]) < n:
                raise InputError(f"state index out of range: {line!r}")
            cost = float(parts[2])
        elif parts[0] == "T" and len(parts) == 5:
            p, u, q = int(parts[1]), int(parts[2]), int(parts[3])
            if not (0 <= p < n and 0 <= u < m and 0 <= q < n):
                raise InputError(f"index out of range: {line!r}")
            cost = float(parts[4])
        else:
            raise InputError(f"unrecognized focp record: {line!r}")
    except ValueError as exc:
        raise InputError(f"malformed focp record: {line!r}") from exc
    if not cost >= 0.0:
        raise InputError(f"cost must be non-negative or inf: {line!r}")


def _byte_classes():
    """bytes.translate table of byte classes: 0 a token byte, 1 a token byte
    that only int() and float() read (NUL, non-ASCII), 2 a space, 3 a line
    break.  Spaces and line breaks are those of str.split and
    str.splitlines within ASCII."""
    table = bytearray(256)
    table[0] = 1
    table[0x80:] = b"\x01" * 0x80
    for byte in b"\t\x1f ":
        table[byte] = 2
    for byte in b"\n\v\f\r\x1c\x1d\x1e":
        table[byte] = 3
    return bytes(table)


class _Block:
    """Tokens and non-blank lines of the whole lines of encoded FOCP text in
    about _READ_BYTES from ``start`` on.

    Integer tokens of up to _INT_DIGITS ASCII digits and cost tokens of up to
    _COST_CHARS bytes are converted a column at a time, costs by numpy's
    bytes-to-float cast, which reads them as float() does; other tokens go
    through int() or float() one at a time.
    """

    def __init__(self, data: bytes, start, classes):
        size = _READ_BYTES
        while True:
            stop = min(start + size, len(data))
            chunk = data[start:stop]
            cls = np.frombuffer(chunk.translate(classes), dtype=np.uint8)
            breaks = np.flatnonzero(cls == 3)
            if stop == len(data) or len(breaks):
                break
            size *= 2  # a line longer than the block
        if stop < len(data):
            chunk, cls = chunk[: breaks[-1] + 1], cls[: breaks[-1] + 1]
        self.size, self.stop, self.breaks = len(chunk), start + len(chunk), breaks
        # zero bytes after the text: every cost token can be read as a _COST_CHARS window
        self.text = np.frombuffer(chunk + bytes(_COST_CHARS), dtype=np.uint8)
        edges = np.flatnonzero(np.diff(cls >= 2, prepend=True, append=True))
        self.tok_start, self.tok_end = edges[0::2], edges[1::2]
        self.unusual = bool(np.any(cls == 1))
        # a token starts a line when the whitespace before it holds a line break
        starts_line = np.ones(len(self.tok_start), dtype=bool)
        starts_line[1:] = cls[self.tok_end[:-1]] == 3
        wide = np.flatnonzero(self.tok_start[1:] - self.tok_end[:-1] > 1)
        starts_line[1 + wide] = np.searchsorted(breaks, self.tok_end[wide]) < np.searchsorted(
            breaks, self.tok_start[1 + wide]
        )
        self.first = np.flatnonzero(starts_line)  # first token of each non-blank line
        count = np.diff(self.first, append=len(starts_line))
        single = self.tok_end[self.first] - self.tok_start[self.first] == 1
        letter = self.text[self.tok_start[self.first]]
        self.is_g = single & (letter == ord("G")) & (count == 3)
        self.is_t = single & (letter == ord("T")) & (count == 5)

    def drop_header(self):
        self.first, self.is_g, self.is_t = self.first[1:], self.is_g[1:], self.is_t[1:]

    def records(self, n, m):
        """State and cost of the G records, then pair id, successor and cost
        of the T records; raises on the first bad line."""
        is_g, is_t = self.is_g, self.is_t
        bad = ~(is_g | is_t)
        tok = self.first[is_g]
        g_state, g_cost = self.ints(tok + 1), self.costs(tok + 2)
        bad[is_g] |= (g_state < 0) | (g_state >= n) | ~(g_cost >= 0.0)
        tok = self.first[is_t]
        p, u, q, cost = self.ints(tok + 1), self.ints(tok + 2), self.ints(tok + 3), self.costs(tok + 4)
        bad[is_t] |= (p < 0) | (p >= n) | (u < 0) | (u >= m) | (q < 0) | (q >= n) | ~(cost >= 0.0)
        for i in np.flatnonzero(bad):
            _check_record(self.line(i), n, m)
        if bad.any():
            raise SoundnessAlarm("focp reader flagged a record that the record check accepts")
        # checked in range: pair ids are below n*m < 2**31
        return g_state, g_cost, (p * m + u).astype(np.int32), q.astype(np.int32), cost

    def line(self, i):
        """Text of the i-th non-blank line."""
        line = int(np.searchsorted(self.breaks, self.tok_start[self.first[i]]))
        a = int(self.breaks[line - 1]) + 1 if line else 0
        b = int(self.breaks[line]) if line < len(self.breaks) else self.size
        return self.text[a:b].tobytes().decode("utf-8", "surrogatepass")

    def t_line(self, record):
        """Text of the line of the block's T record number ``record``."""
        return self.line(np.flatnonzero(self.is_t)[record])

    def token(self, k):
        return self.text[self.tok_start[k] : self.tok_end[k]].tobytes().decode("utf-8", "surrogatepass")

    def ints(self, tok):
        """Non-negative integer tokens; -1 where a token is not one."""
        begin = self.tok_start[tok]
        width = np.minimum(self.tok_end[tok] - begin, _INT_DIGITS + 1)  # longer: read alone
        value = np.full(len(tok), -1, dtype=np.int64)
        for w in np.flatnonzero(np.bincount(width)):
            group = np.flatnonzero(width == w)
            if w <= _INT_DIGITS:
                start = begin[group]
                v = np.zeros(len(group), dtype=np.int64)
                digits = np.ones(len(group), dtype=bool)
                for j in range(w):
                    d = self.text[start + j] - np.uint8(ord("0"))
                    digits &= d < 10
                    v = v * 10 + d
                value[group[digits]] = v[digits]
                group = group[~digits]
            for k in group:  # signs, underscores, non-ASCII digits, long tokens
                try:
                    v = int(self.token(tok[k]))
                except ValueError:
                    continue
                if 0 <= v < 2**62:
                    value[k] = v
        return value

    def costs(self, tok):
        """Cost tokens as float() reads them; NaN where a token is not one."""
        start, length = self.tok_start[tok], self.tok_end[tok] - self.tok_start[tok]
        width = max(min(int(length.max(initial=0)), _COST_CHARS), 1)
        raw = as_strided(self.text, shape=(self.size, width), strides=(1, 1))[start]
        raw[np.arange(width) >= length[:, None]] = 0
        # the cast drops trailing NULs and reads bytes, not UTF-8: such blocks go a token at a time
        fast = (length <= width) & (not self.unusual)
        value = np.full(len(tok), np.nan)
        try:
            value[fast] = (raw if fast.all() else raw[fast]).view(f"S{width}").ravel().astype(np.float64)
        except ValueError:
            pass  # some token is not a number: all stay NaN, the record check names it
        for k in np.flatnonzero(~fast):
            try:
                value[k] = float(self.token(tok[k]))
            except ValueError:
                pass
        return value
