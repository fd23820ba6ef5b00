"""The ASCII record grammar of symoc's input files and FOCP v1 (README).

One byte tokenizer, _Block, reads every input file: FOCP problems and
value, controller and relation files.  It classes the bytes of about 8 MiB
of whole lines at once and converts token columns with no Python loop over
records.  The FOCP writer formats each distinct cost once and lays the
records out as byte arrays.  symoc imports this module on first use.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import INF, STOP, format_cost
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


def as_bytes(text):
    """The bytes of an input file given as bytes or str.  A str is encoded
    once; a lone surrogate becomes a backslash escape, which no token rule
    accepts."""
    return text.encode("utf-8", "backslashreplace") if isinstance(text, str) else text


def read(data: bytes):
    """(n, m, G, trans_ptr, trans_succ, edge_costs) of FOCP v1 text, read
    about _READ_BYTES of whole lines at a time; trans_succ is int32.  An
    error quotes the first offending line in file order."""
    n = m = None
    columns = [[] for _ in range(5)]  # G: state, cost; T: pair id, successor, cost
    t_blocks = []  # (block start, T records in it)
    for block in _blocks(data):
        if n is None and len(block.first):
            n, m = _header(block.line(block.first[0]))
            block.first, block.count, block.bad = block.first[1:], block.count[1:], block.bad[1:]
        if n is not None:
            records = _records(block, n, m)
            for column, values in zip(columns, records):
                column.append(values)
            t_blocks.append((block.start, len(records[-1])))
    if n is None:
        raise InputError("missing focp header")
    # one column at a time, each freeing its blocks before the next is joined
    g_state, g_cost, pid, succ, costs = (np.concatenate(columns.pop(0)) for _ in range(5))
    record = first_repeat(pid.astype(np.int64) * n + succ)
    if record is not None:
        (p, u), q = divmod(int(pid[record]), m), int(succ[record])
        raise InputError(f"duplicate transition ({p},{u},{q}): {_record_line(data, t_blocks, record, b'T')!a}")
    if np.any(pid[1:] < pid[:-1]):
        order = np.argsort(pid, kind="stable")  # pair order; file order within a pair
        pid, succ, costs = pid[order], succ[order], costs[order]
    if len(pid) < n * m:  # a pair without T records, found before any array of n or n * m entries
        pairs = np.unique(pid)
        gap = np.flatnonzero(pairs != np.arange(len(pairs)))
        p, u = divmod(int(gap[0]) if len(gap) else len(pairs), m)
        raise InputError(f"every (state, input) pair needs a successor (F strict): ({p},{u}) has none")
    G = np.full(n, INF)
    last = len(g_state) - 1 - np.unique(g_state[::-1], return_index=True)[1]
    G[g_state[last]] = g_cost[last]  # a repeated G record: the last one wins
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(pid, minlength=n * m), out=ptr[1:])
    return n, m, G, ptr, succ, costs


def read_records(text, what):
    """The records of a two-column file of ``what`` records.  A value or
    controller file gives its second column indexed by the first, which
    must list each state 0..n-1 once; a relation file gives both columns
    in file order.  An error quotes the first offending line in file order."""
    data = as_bytes(text)
    firsts, seconds, blocks = [], [], []
    for block in _blocks(data):
        two = (block.count == 2) & ~block.bad
        tok = block.first[two]
        first = block.ints(tok)
        second = block.costs(tok + 1) if what == "value" else block.ints(tok + 1)
        stop = (block.window(tok + 1, 5).view("S5").ravel() == b"STOP") & (what == "controller")
        malformed = ~two
        malformed[two] = first < 0
        bad = malformed.copy()
        bad[two] |= ~((second >= 0) | stop)  # NaN, a cost that is not a number, fails too
        if bad.any():
            i = np.argmax(bad)
            message = f"malformed {what} record"
            if what == "controller" and not malformed[i]:
                message = "controller input is neither an index nor STOP"
            raise InputError(f"{message}: {block.line(block.first[i])!a}")
        second[stop] = STOP
        firsts.append(first)
        seconds.append(second)
        blocks.append((block.start, len(first)))
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    if what == "relation":
        return first, second
    record = first_repeat(first)
    if record is not None:
        raise InputError(f"state listed twice in {what} record: {_record_line(data, blocks, record)!a}")
    if first.max(initial=-1) != len(first) - 1:
        raise InputError(f"{what} file must cover states 0..n-1")
    return second[np.argsort(first)]


def first_repeat(key):
    """File-order index of the first entry of ``key`` equal to an earlier
    one, or None; a strictly increasing ``key`` is not sorted."""
    if not np.any(key[1:] <= key[:-1]):
        return None
    order = np.argsort(key, kind="stable")
    repeat = order[1:][key[order[1:]] == key[order[:-1]]]
    return int(repeat.min()) if len(repeat) else None


_WRITE_EDGES = 1 << 18  # T records rendered per block by text_blocks
_READ_BYTES = 1 << 23  # text tokenized per block by _Block
_INT_DIGITS = 18  # an index token has 1 to _INT_DIGITS ASCII digits
_COST_CHARS = 32  # longer cost tokens are read by float(), one at a time
# bytes.translate table of byte classes: 0 a token byte, 1 a byte outside
# the grammar (it makes its line malformed), 2 a space or tab, 3 a line end
_CLASSES = bytes(
    3 if b in b"\r\n" else 2 if b in b" \t" else 0 if 0x21 <= b <= 0x7E else 1 for b in range(256)
)


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


def _blocks(data):
    """The _Blocks of ``data`` in order; one, without lines, for no data."""
    start = 0
    while True:
        block = _Block(data, start)
        yield block
        start = block.stop
        if start >= len(data):
            return


def _records(block, n, m):
    """State and cost of the G records, then pair id, successor and cost
    of the T records of a block; raises on the first bad line."""
    first = block.first
    single = block.tok_end[first] - block.tok_start[first] == 1
    letter = block.text[block.tok_start[first]]
    is_g = single & (letter == ord("G")) & (block.count == 3) & ~block.bad
    is_t = single & (letter == ord("T")) & (block.count == 5) & ~block.bad
    bad = ~(is_g | is_t)
    tok = first[is_g]
    g_state, g_cost = block.ints(tok + 1), block.costs(tok + 2)
    bad[is_g] |= (g_state < 0) | (g_state >= n) | ~(g_cost >= 0.0)
    tok = first[is_t]
    p, u, q, cost = block.ints(tok + 1), block.ints(tok + 2), block.ints(tok + 3), block.costs(tok + 4)
    bad[is_t] |= (p < 0) | (p >= n) | (u < 0) | (u >= m) | (q < 0) | (q >= n) | ~(cost >= 0.0)
    for i in np.flatnonzero(bad):
        _check_record(block.line(first[i]), n, m)
    if bad.any():
        raise SoundnessAlarm("focp reader flagged a record that the record check accepts")
    # checked in range: pair ids are below n*m < 2**31
    return g_state, g_cost, (p * m + u).astype(np.int32), q.astype(np.int32), cost


def _record_line(data, blocks, record, letter=None):
    """Text of the line of record number ``record`` in file order, given
    the (start, records) of each block; with ``letter``, only lines that
    start with it hold records.  Used on errors only: it tokenizes one
    block again."""
    for start, count in blocks:
        if record < count:
            break
        record -= count
    block = _Block(data, start)
    first = block.first
    if letter is not None:
        first = first[block.text[block.tok_start[first]] == ord(letter)]
    return block.line(first[record])


def _index(token):
    """Value of an index token (of a line _fields accepts), 1 to _INT_DIGITS
    digits; else -1."""
    return int(token) if len(token) <= _INT_DIGITS and token.isdigit() else -1


def _fields(line):
    """Tokens of a line, or None if a byte of it is outside the grammar."""
    return line.split() if line.isascii() and line.replace("\t", " ").isprintable() else None


def _header(line):
    if not line.startswith("focp"):
        raise InputError("missing focp header")
    parts = _fields(line) or []
    n, m = map(_index, parts[1:]) if len(parts) == 3 and parts[0] == "focp" else (-1, -1)
    if n < 0 or m < 0:
        raise InputError("malformed focp header")
    if n == 0 or m == 0:
        raise InputError("focp header: need positive state/input counts")
    if n * m >= 2**31:
        raise InputError("focp header: need fewer than 2**31 (state, input) pairs")
    return n, m


def _check_record(line, n, m):
    """Raise the InputError of one G or T record line, if it has one, by the
    rules that _records applies a block at a time."""
    parts = _fields(line)
    if parts is None:
        raise InputError(f"malformed focp record: {line!a}")
    if parts[0] == "G" and len(parts) == 3:
        kind, bounds = "state index", (n,)
    elif parts[0] == "T" and len(parts) == 5:
        kind, bounds = "index", (n, m, n)
    else:
        raise InputError(f"unrecognized focp record: {line!a}")
    indices = parts[1:-1]
    # a negative or over-long decimal integer is an index out of range, any other token malformed
    if not all(t[t.startswith("-") :].isdigit() for t in indices):
        raise InputError(f"malformed focp record: {line!a}")
    if not all(0 <= _index(t) < bound for t, bound in zip(indices, bounds)):
        raise InputError(f"{kind} out of range: {line!a}")
    try:
        cost = float(parts[-1])
    except ValueError:
        raise InputError(f"malformed focp record: {line!a}") from None
    if not cost >= 0.0:
        raise InputError(f"cost must be non-negative or inf: {line!a}")


class _Block:
    """Tokens and non-blank lines of the whole lines of ``data`` in about
    _READ_BYTES from ``start`` on.

    ``first`` holds the first token of each non-blank line, ``count`` its
    tokens and ``bad`` whether it holds a byte outside the grammar.  Index
    tokens are converted a column at a time; cost tokens of up to
    _COST_CHARS bytes too, by numpy's bytes-to-float cast, which reads
    them as float() does.
    """

    def __init__(self, data: bytes, start):
        size = _READ_BYTES
        while True:
            stop = min(start + size, len(data))
            chunk = data[start:stop]
            cls = np.frombuffer(chunk.translate(_CLASSES), dtype=np.uint8)
            breaks = np.flatnonzero(cls == 3)
            if stop == len(data) or len(breaks):
                break
            size *= 2  # a line longer than the block
        if stop < len(data):
            chunk, cls = chunk[: breaks[-1] + 1], cls[: breaks[-1] + 1]
        self.start, self.size, self.stop, self.breaks = start, len(chunk), start + len(chunk), breaks
        # zero bytes after the text: every cost token can be read as a _COST_CHARS window
        self.text = np.frombuffer(chunk + bytes(_COST_CHARS), dtype=np.uint8)
        edges = np.flatnonzero(np.diff(cls >= 2, prepend=True, append=True))
        self.tok_start, self.tok_end = edges[0::2], edges[1::2]
        # a token starts a line when the whitespace before it holds a line break
        starts_line = np.ones(len(self.tok_start), dtype=bool)
        starts_line[1:] = cls[self.tok_end[:-1]] == 3
        wide = np.flatnonzero(self.tok_start[1:] - self.tok_end[:-1] > 1)
        starts_line[1 + wide] = np.searchsorted(breaks, self.tok_end[wide]) < np.searchsorted(
            breaks, self.tok_start[1 + wide]
        )
        self.first = np.flatnonzero(starts_line)
        self.count = np.diff(self.first, append=len(starts_line))
        odd = np.flatnonzero(cls == 1)  # a byte outside the grammar makes its line malformed
        self.bad = np.zeros(len(self.first), dtype=bool) if not len(odd) else np.isin(
            np.searchsorted(breaks, self.tok_start[self.first]), np.searchsorted(breaks, odd))

    def line(self, tok):
        """Text of the line holding token ``tok``, a character per byte."""
        line = int(np.searchsorted(self.breaks, self.tok_start[tok]))
        a = int(self.breaks[line - 1]) + 1 if line else 0
        b = int(self.breaks[line]) if line < len(self.breaks) else self.size
        return self.text[a:b].tobytes().decode("latin-1")

    def ints(self, tok):
        """Index tokens; -1 where a token is not one."""
        begin = self.tok_start[tok]
        width = np.minimum(self.tok_end[tok] - begin, _INT_DIGITS + 1)
        value = np.full(len(tok), -1, dtype=np.int64)
        for w in np.flatnonzero(np.bincount(width)[: _INT_DIGITS + 1]):
            group = np.flatnonzero(width == w)
            start = begin[group]
            v = np.zeros(len(group), dtype=np.int64)
            digits = np.ones(len(group), dtype=bool)
            for j in range(w):
                d = self.text[start + j] - np.uint8(ord("0"))
                digits &= d < 10
                v = v * 10 + d
            value[group[digits]] = v[digits]
        return value

    def window(self, tok, width):
        """(len(tok), width) array of the first ``width`` bytes of tokens
        ``tok``, zero after each token's end."""
        raw = as_strided(self.text, shape=(self.size, width), strides=(1, 1))[self.tok_start[tok]]
        raw[np.arange(width) >= (self.tok_end[tok] - self.tok_start[tok])[:, None]] = 0
        return raw

    def costs(self, tok):
        """Cost tokens as float() reads them; NaN where a token is not a number."""
        start, length = self.tok_start[tok], self.tok_end[tok] - self.tok_start[tok]
        width = max(min(int(length.max(initial=0)), _COST_CHARS), 1)
        raw = self.window(tok, width)
        cast = length <= width
        value = np.full(len(tok), np.nan)
        try:
            value[cast] = (raw if cast.all() else raw[cast]).view(f"S{width}").ravel().astype(np.float64)
        except ValueError:
            cast[:] = False  # some token is not a number: read each alone to find it
        for k in np.flatnonzero(~cast):
            try:
                value[k] = float(self.text[start[k] : start[k] + length[k]].tobytes())
            except ValueError:
                pass
        return value
