"""The ASCII record files of symoc (grammar in the README): FOCP v1
problems and value, controller and relation files.

This module alone reads, checks and writes records, with no Python loop
over records: the readers take the text from a binary file a block of about
_READ_BYTES of whole lines at a time, _Block tokenizes one block, _columns
converts and checks columns of tokens, and the writers lay records out as
byte arrays.  symoc imports this module on first use.

An index token is read from the 8-byte words that end at its last byte,
8 digits a word (_eight_digits).  The writers build digit rows by integer
arithmetic (_decimals), and the FOCP writer lays out 'T <p> <u> ' once per
pair and repeats it for each of the pair's records.

Costs are read as float() reads them and written in their shortest
round-trip form.  An exact short decimal such as 1.484 is read with integer
arithmetic, as m / 10**k (_Block._exact_decimals), and a table of exact
decimals of one scale finds each cost's token at its decimal key m
(_cost_tokens); any other token takes numpy's cast, and any other table a
binary search.
"""

from __future__ import annotations

import io

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import core
from .core import INF, STOP, chunks, offsets, repeats
from .errors import InputError


def text_blocks(problem):
    """FOCP v1 text of ``problem`` in consecutive pieces: the header, G for
    every state, then T records in pair order, a block of pairs at a time."""
    tokens = _cost_tokens(np.concatenate([problem.G, problem.costs]))
    states, inputs = _decimals(np.arange(problem.n)), _decimals(np.arange(problem.m))
    pair_token = None if problem.pair_costs is None else tokens(problem.pair_costs)
    yield f"focp {problem.n} {problem.m}\n"
    yield _render([b"G ", states, b" ", tokens(problem.G), b"\n"])
    ptr = problem.trans_ptr
    cuts = chunks(ptr, _WRITE_EDGES)
    for start, stop in zip(cuts, cuts[1:]):
        pairs, sizes = np.arange(start, stop), np.diff(ptr[start : stop + 1])
        prefix = _fields([b"T ", states[pairs // problem.m], b" ", inputs[pairs % problem.m], b" "])
        a, b = ptr[start], ptr[stop]
        token = tokens(problem.edge_costs[a:b]) if pair_token is None else pair_token[start:stop].repeat(sizes, 0)
        yield _render([prefix.repeat(sizes, 0), states[problem.trans_succ[a:b]], b" ", token, b"\n"])


def values_text(W):
    """Value file text: '<state> <cost>' per state.  A cost the value reader
    rejects, NaN or negative, is an input error naming its state."""
    W = np.asarray(W, dtype=np.float64)
    bad = np.flatnonzero(~(W >= 0.0))
    if len(bad):
        raise InputError(f"value state {bad[0]} has cost {float(W[bad[0]])!r}, neither non-negative nor inf")
    return _render([_decimals(np.arange(len(W))), b" ", _cost_tokens(W)(W), b"\n"])


def controller_text(choice):
    """Controller file text: '<state> <input>' or '<state> STOP' per state."""
    stop = (choice == STOP)[:, None]
    word, digits = np.where(stop, np.frombuffer(b"STOP", np.uint8), 0), _decimals(np.maximum(choice, 0))
    return _render([_decimals(np.arange(len(choice))), b" ", word, np.where(stop, 0, digits), b"\n"])


def relation_text(a, b):
    """Relation file text: '<a> <b>' per pair."""
    return _render([_decimals(a), b" ", _decimals(b), b"\n"])


def read(source):
    """The FiniteProblem of FOCP v1 text, a str, bytes or a binary file,
    read about _READ_BYTES of whole lines at a time; its trans_succ is
    int32 and its costs are per edge.  Reading holds one block of text
    beside the parsed columns; a file that cannot seek (a pipe) is held
    whole.  An error quotes the first offending line in file order."""
    fh = _seekable(source)
    n = m = None
    columns = [[] for _ in range(5)]  # G: state, cost; T: pair id, successor, cost
    t_blocks = []  # (block start, block size, T records in it)
    for block in _blocks(fh):
        if n is None and len(block.first):
            n, m = _counts(block)
            block.first, block.count, block.bad = block.first[1:], block.count[1:], block.bad[1:]
        if n is not None:
            records = _records(block, n, m)
            for column, values in zip(columns, records):
                column.append(values)
            t_blocks.append((block.start, block.size, len(records[-1])))
    if n is None:
        raise InputError("missing focp header")
    del block, column, values, records  # else the loop's names keep the last block alive past the joins
    g_state, g_cost, pid, succ, costs = (_join(columns.pop(0)) for _ in range(5))
    order = None  # file order of the records in pair order, when the two differ
    if np.any(pid[1:] < pid[:-1]):
        order = np.argsort(pid, kind="stable")  # pair order; file order within a pair
        pid, succ, costs = pid[order], succ[order], costs[order]
    if len(pid) < n * m:  # a pair without T records, found before any array of n or n * m entries
        pairs = np.unique(pid)
        gap = np.flatnonzero(pairs != np.arange(len(pairs)))
        p, u = divmod(int(gap[0]) if len(gap) else len(pairs), m)
        strict = f"every (state, input) pair needs a successor (F strict): ({p},{u}) has none"
        raise _duplicate(fh, t_blocks, pid, succ, order, m) or InputError(strict)  # a repeat is named first
    G = np.full(n, INF)
    last = len(g_state) - 1 - np.unique(g_state[::-1], return_index=True)[1]
    G[g_state[last]] = g_cost[last]  # a repeated G record: the last one wins
    del g_state, g_cost, last
    ptr = offsets(pid, n * m)  # pid is int32, so the search is too
    del pid
    try:  # the constructor's repeat search is the only one a good file pays for
        return core.FiniteProblem(n, m, G, ptr, succ, edge_costs=costs)
    except InputError as error:  # it names the first repeat in pair order: quote the first in file order
        pid = np.arange(n * m, dtype=np.int32).repeat(np.diff(ptr))
        raise _duplicate(fh, t_blocks, pid, succ, order, m) or error from None


def read_records(source, what):
    """The records of a two-column file of ``what`` records, a str, bytes or
    a binary file, read as ``read`` reads.  A value or controller file gives
    its second column indexed by the first, which must list each state
    0..n-1 once; a relation file gives both columns in file order.  An error
    quotes the first offending line in file order."""
    fh = _seekable(source)
    kinds = (_UNBOUNDED, {"value": _COST, "controller": _INPUT, "relation": _UNBOUNDED}[what])
    columns, blocks = [], []
    for block in _blocks(fh):
        two = (block.count == 2) & ~block.bad
        (first, second), good = _columns(block, block.first[two], kinds)
        bad = ~two
        bad[two] = ~good
        if bad.any():
            i = int(np.argmax(bad))
            messages = {NOT_AN_INPUT: "controller input is neither an index nor STOP"}  # else malformed
            raise _line_error(block, i, kinds if two[i] else None, messages, f"malformed {what} record")
        columns.append((first, second))
        blocks.append((block.start, block.size, len(first)))
    first, second = map(np.concatenate, zip(*columns))
    if what == "relation":
        return first, second
    repeat = repeats(np.zeros(1, dtype=np.int64), first)  # one list: the states
    if len(repeat):
        raise InputError(f"state listed twice in {what} record: {_record_line(fh, blocks, int(repeat[0]))!a}")
    if first.max(initial=-1) != len(first) - 1:
        raise InputError(f"{what} file must cover states 0..n-1")
    return second[np.argsort(first)]


def _join(blocks):
    """The blocks of one column as one array, grown a block at a time
    (``ndarray.resize``, a realloc) and each block released once it is
    copied, so no column is held twice."""
    out = np.empty(0, dtype=blocks[0].dtype)
    blocks.reverse()
    while blocks:
        block = blocks.pop()
        at = len(out)
        out.resize(at + len(block), refcheck=False)
        out[at:] = block
    return out


def _duplicate(fh, blocks, pid, succ, order, m):
    """The InputError quoting the first T record in file order whose (pair,
    successor) an earlier one has, or None; ``blocks`` as _record_line
    takes them.  ``pid`` does not fall; ``order`` gives each record's
    file-order index (None: its own).  The search (``core.repeats``) runs
    over chunks of whole pairs, about CHECK_EDGES records each."""
    first = None
    starts = np.unique(np.searchsorted(pid, pid[:: core.CHECK_EDGES]))
    for a, b in zip(starts, [*starts[1:], len(pid)]):
        p = pid[a:b]
        repeat = repeats(np.flatnonzero(np.append(True, p[1:] != p[:-1])), succ[a:b]) + a
        if len(repeat):
            records = repeat if order is None else order[repeat]
            i = int(np.argmin(records))
            if first is None or records[i] < first[0]:
                first = int(records[i]), int(repeat[i])
    if first is None:
        return None
    record, at = first
    (p, u), q = divmod(int(pid[at]), m), int(succ[at])
    return InputError(f"duplicate transition ({p},{u},{q}): {_record_line(fh, blocks, record, b'T')!a}")


_WRITE_EDGES = 1 << 18  # T records rendered per block by text_blocks
_READ_BYTES = 1 << 20  # text read and tokenized per block
_INT_DIGITS = 18  # an index token has 1 to _INT_DIGITS ASCII digits
_COST_CHARS = 32  # longer cost tokens are read by float(), one at a time
_DECIMAL_DIGITS = 15  # an exact-decimal cost token has 1 to _DECIMAL_DIGITS digits: below 10**15 < 2**53
_DECIMAL_CHARS = _DECIMAL_DIGITS + 1  # and a '.' at most; longer tokens go to the cast at once
_POW10 = (10 ** np.arange(_DECIMAL_DIGITS + 1)).astype(np.float64)  # 10**k, exact doubles
_SPAN_ROWS = 4  # the decimal-keyed token table may hold this many rows per distinct cost
# row c, 0 to 8, keeps the last c bytes of a little-endian word
_LAST_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - c)) for c in range(9)], dtype=np.uint64)
# bytes.translate table of byte classes: 0 a token byte, 1 a byte outside
# the grammar (it makes its line malformed), 2 a space or tab, 3 a line end
_CLASSES = bytes(
    3 if b in b"\r\n" else 2 if b in b" \t" else 0 if 0x21 <= b <= 0x7E else 1 for b in range(256)
)
# column kinds besides an index column, which is its bound: a cost; an input index or STOP
_COST, _INPUT = "cost", "input"
_UNBOUNDED = 10**_INT_DIGITS  # above every index
# classes of a bad line, by its worst part, least severe first
NEGATIVE, NOT_A_NUMBER, NOT_AN_INPUT, OUT_OF_RANGE, NOT_AN_INDEX, WRONG_SHAPE, BAD_BYTE = range(1, 8)


def _decimals(values):
    """Row k: the ASCII digits of values[k] >= 0, right-aligned after zero
    bytes, which are padding."""
    v = np.array(values, dtype=np.uint64)
    rows = np.empty((len(str(v.max(initial=0))), len(v)), dtype=np.uint8)
    for j, row in enumerate(rows[::-1]):  # the last digit first
        quotient = v // np.uint64(10)
        np.subtract(v, quotient * np.uint64(10), out=row, casting="unsafe")
        row += np.uint8(ord("0"))
        if j:
            row *= v > 0  # zero digits before the first are padding
        v = quotient
    return np.ascontiguousarray(rows.T)


def _cost_tokens(costs):
    """A map from float64 arrays of costs among ``costs`` to the byte rows of
    their tokens (shortest round-trip form, or inf), formatted once each.
    A cost finds its token by a binary search of the distinct costs' bits,
    or, where they are exact decimals of one scale (_decimal_keys), at its
    decimal key in a table of a row per integer of their span."""
    bits = np.sort(costs.view(np.uint64))  # not np.unique, which hashes integers: several times slower
    bits = bits[np.diff(bits, prepend=bits[:1] - 1) != 0]  # the first of each run
    distinct = bits.view(np.float64)
    table = np.array(["inf" if v == INF else repr(v) for v in distinct.tolist()], dtype="S")
    table = table.view(np.uint8).reshape(len(bits), table.itemsize)
    decimal = _decimal_keys(distinct)
    if decimal is None:
        return lambda values: table[np.searchsorted(bits, values.view(np.uint64))]
    scale, keys = decimal  # ascending, as the distinct costs are; inf, if any, comes last
    low, top = keys[0], keys[-1] + 1  # inf's key is top: scaled and clipped to it
    rows = np.zeros((int(top - low) + 1, table.shape[1]), dtype=np.uint8)
    rows[(keys - low).astype(np.intp)] = table[: len(keys)]
    if distinct[-1] == INF:
        rows[-1] = table[-1]

    def tokens(values):
        key = values * scale
        np.rint(key, out=key)
        np.minimum(key, top, out=key)
        key -= low
        index = key.astype(np.intp)
        del key  # freed before the rows are gathered: their array can take its place in the heap
        return rows[index]

    return tokens


def _decimal_keys(distinct):
    """(10**k, m) for the least k <= _DECIMAL_DIGITS at which each finite
    cost among the ascending ``distinct`` costs is m / 10**k, with integers
    0 <= m < 2**53 spanning at most _SPAN_ROWS per distinct cost, else
    None: also when a cost has its sign bit set, as -0.0 and 0.0 would
    share m = 0.  The key of a cost c is rint(c * 10**k); each is checked
    to give back its cost, so distinct costs have distinct keys."""
    finite = distinct[distinct < INF]
    if not len(finite) or finite[-1] >= 2**53 or np.signbit(distinct).any() or np.isnan(distinct).any():
        return None  # a cost of 2**53 or more has m >= 2**53 at every k
    for scale in _POW10:
        keys = np.rint(finite * scale)
        if np.array_equal(keys / scale, finite):
            break
    else:
        return None
    if keys[-1] >= 2**53 or keys[-1] - keys[0] >= _SPAN_ROWS * len(distinct):
        return None
    return scale, keys


def _fields(fields):
    """Records laid out field by field, a (records, width) uint8 array whose
    zero bytes are padding.  A field is such an array or bytes that every
    record repeats."""
    rows = max(len(f) for f in fields if isinstance(f, np.ndarray))
    return np.hstack([f if isinstance(f, np.ndarray) else np.broadcast_to(np.frombuffer(f, np.uint8), (rows, len(f)))
                      for f in fields])


def _render(fields):
    """ASCII text of the records _fields lays out, one empty line for no
    records; the bytes kept are decoded where they lie, not copied first."""
    out = _fields(fields)
    return str(out[out != 0].data, "ascii") if len(out) else "\n"


def _seekable(source):
    """``source``, a str, bytes or a binary file, as a binary file that can
    seek back to a block.  A str is encoded, a lone surrogate as a backslash
    escape, which no token rule accepts; a file that cannot seek (a pipe)
    is read whole."""
    if isinstance(source, str):
        source = source.encode("utf-8", "backslashreplace")
    if isinstance(source, bytes):
        return io.BytesIO(source)
    return source if source.seekable() else io.BytesIO(source.read())


def _blocks(fh):
    """The _Blocks of binary file ``fh`` from where it stands, in order, each
    of the whole lines in about _READ_BYTES; the last holds the text after
    the last line break, if any.  A line longer than a block doubles the read."""
    start, text, more = fh.tell(), b"", True
    while more:
        more = fh.read(max(_READ_BYTES, len(text)))
        text += more
        cut = max(text.rfind(b"\n"), text.rfind(b"\r")) + 1 if more else len(text)
        if cut or not more:
            yield _Block(text[:cut], start)
            start, text = start + cut, text[cut:]


def _counts(block):
    """(n, m) of the FOCP header, the first line of ``block``."""
    first = block.first[:1]
    if not block.line(first[0]).startswith("focp"):
        raise InputError("missing focp header")
    shaped = (block.count[:1] == 3) & ~block.bad[:1] & block.is_word(first, b"focp")
    (n, m), good = _columns(block, first[shaped] + 1, (_UNBOUNDED, _UNBOUNDED))
    if not good.any():
        raise InputError("malformed focp header")
    n, m = int(n[0]), int(m[0])
    if n == 0 or m == 0:
        raise InputError("focp header: need positive state/input counts")
    if n * m >= 2**31:
        raise InputError("focp header: need fewer than 2**31 (state, input) pairs")
    return n, m


def _records(block, n, m):
    """State and cost of the G records, then pair id, successor and cost
    of the T records of a block; raises on the first bad line."""
    first, g_kinds, t_kinds = block.first, (n, _COST), (n, m, n, _COST)
    start = block.tok_start[first]
    lead = np.where(block.tok_end[first] - start == 1, block.text[start], 0)  # a one-byte first token, else 0
    good = ~block.bad
    is_g = (lead == ord("G")) & (block.count == 3) & good
    is_t = (lead == ord("T")) & (block.count == 5) & good
    (g_state, g_cost), g_good = _columns(block, first[is_g] + 1, g_kinds)
    (p, u, q, cost), t_good = _columns(block, first[is_t] + 1, t_kinds)
    bad = ~(is_g | is_t)
    bad[is_g], bad[is_t] = ~g_good, ~t_good
    if bad.any():
        i = int(np.argmax(bad))
        kinds, index = (g_kinds, "state index") if is_g[i] else (t_kinds, "index") if is_t[i] else (None, "")
        messages = {WRONG_SHAPE: "unrecognized focp record", OUT_OF_RANGE: f"{index} out of range",
                    NEGATIVE: "cost must be non-negative or inf"}
        raise _line_error(block, i, kinds, messages, "malformed focp record")
    # checked in range: pair ids are below n*m < 2**31
    return g_state, g_cost, (p * m + u).astype(np.int32), q.astype(np.int32), cost


def _columns(block, tok, kinds):
    """The columns of the records that start at tokens ``tok``, one per
    kind, and whether each record is good: every index below its bound, a
    cost non-negative or inf, an input an index or STOP."""
    values, good = [], np.ones(len(tok), dtype=bool)
    for k, kind in enumerate(kinds):
        if kind == _COST:
            value = block.costs(tok + k)
            good &= value >= 0.0  # NaN, a token that is not a number, fails too
        else:
            value = block.ints(tok + k)
            if kind == _INPUT:  # ints reads STOP as -1, which is STOP
                good &= (value >= 0) | block.is_word(tok + k, b"STOP")
            else:
                good &= (value >= 0) & (value < kind)
        values.append(value)
    return values, good


def _line_error(block, i, kinds, messages, default):
    """The InputError quoting bad line ``i``, whose last tokens are laid out as
    ``kinds`` (None: the wrong shape); ``messages`` by class, else ``default``."""
    cls = BAD_BYTE if block.bad[i] else WRONG_SHAPE
    if kinds is not None:
        tok = block.first[i] + block.count[i] - len(kinds)
        cls = max(_token_class(block, tok + k, kind) for k, kind in enumerate(kinds))
    return InputError(f"{messages.get(cls, default)}: {block.line(block.first[i])!a}")


def _token_class(block, tok, kind):
    """Class of token ``tok`` as a column of ``kind``; 0 if it is good."""
    if _columns(block, np.array([tok]), (kind,))[1][0]:
        return 0
    if kind == _INPUT:
        return NOT_AN_INPUT
    token = block.text[block.tok_start[tok] : block.tok_end[tok]].tobytes()
    if kind != _COST:  # a decimal integer, negative or too long, is out of range
        return OUT_OF_RANGE if token.removeprefix(b"-").isdigit() else NOT_AN_INDEX
    try:
        float(token)
    except ValueError:
        return NOT_A_NUMBER
    return NEGATIVE  # or NaN


def _record_line(fh, blocks, record, letter=None):
    """Text of the line of record number ``record`` in file order, given
    the (start, size, records) of each block; with ``letter``, only the lines
    of that word hold records.  Used on errors only: it reads and tokenizes
    a block again."""
    for start, size, count in blocks:
        if record < count:
            break
        record -= count
    fh.seek(start)
    block = _Block(fh.read(size), start)
    first = block.first if letter is None else block.first[block.is_word(block.first, letter)]
    return block.line(first[record])


def _eight_digits(words, count):
    """(value, whether all are ASCII digits) of the last ``count`` bytes, 0
    to 8, of each little-endian word, read as a decimal number: the 8-digit
    multiply-shift parse of Langdale & Lemire (VLDB J. 2019)."""
    d = words ^ np.uint64(0x3030303030303030)  # an ASCII digit byte becomes its digit
    d &= _LAST_BYTES[count]  # the bytes before the token become zero digits
    check = d + np.uint64(0x0606060606060606)  # a byte above 9 reaches the high nibble
    check |= d
    good = (check & np.uint64(0xF0F0F0F0F0F0F0F0)) == 0
    d *= np.uint64(10 << 8 | 1)  # digits at bytes 0..7, the first most significant: pairs,
    d >>= np.uint64(8)
    d &= np.uint64(0x00FF00FF00FF00FF)
    d *= np.uint64(100 << 16 | 1)  # then groups of 4,
    d >>= np.uint64(16)
    d &= np.uint64(0x0000FFFF0000FFFF)
    d *= np.uint64(10000 << 32 | 1)  # then all 8
    d >>= np.uint64(32)
    return d.view(np.int64), good


class _Block:
    """Tokens and non-blank lines of ``chunk``, whole lines of text read from
    byte ``start`` on: ``tok_start`` and ``tok_end`` bound each token,
    ``first`` holds the first token of each non-blank line, ``count`` its
    tokens and ``bad`` whether it holds a byte outside the grammar.  The
    one padded copy of the text has zero bytes on both sides; ``text`` views
    the text in it and ``words`` the little-endian word that ends at each of
    its bytes.  Index tokens convert a column at a time, from those words,
    and cost tokens too: an exact decimal of at most _DECIMAL_CHARS bytes by
    one division, which gives the bits float() gives, and any other token of
    up to _COST_CHARS bytes by numpy's bytes-to-float cast, which reads it
    as float() does."""

    def __init__(self, chunk: bytes, start):
        cls = np.frombuffer(chunk.translate(_CLASSES), dtype=np.uint8)
        breaks = np.flatnonzero(cls == 3)
        self.start, self.size, self.breaks = start, len(chunk), breaks
        # 8 zero bytes before the text, so every token ends a word, and zero bytes
        # after it: every cost token can be read as a _COST_CHARS window
        padded = np.frombuffer(b"".join((bytes(8), chunk, bytes(_COST_CHARS))), dtype=np.uint8)
        self.text = padded[8:]
        # words[e]: the 8 bytes before text byte e, a little-endian word at any byte
        self.words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
        edges = np.flatnonzero(np.diff(cls >= 2, prepend=True, append=True))
        self.tok_start, self.tok_end = edges.reshape(-1, 2).T.copy()  # contiguous: faster to gather from
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

    def is_word(self, tok, word):
        """Whether tokens ``tok`` are ``word``; it may read into the zero padding."""
        start = self.tok_start[tok]
        match = self.tok_end[tok] - start == len(word)
        for j, byte in enumerate(word):
            match &= self.text[start + j] == byte
        return match

    def line(self, tok):
        """Text of the line holding token ``tok``, a character per byte."""
        line = int(np.searchsorted(self.breaks, self.tok_start[tok]))
        a = int(self.breaks[line - 1]) + 1 if line else 0
        b = int(self.breaks[line]) if line < len(self.breaks) else self.size
        return self.text[a:b].tobytes().decode("latin-1")

    def ints(self, tok):
        """Index tokens; -1 where a token is not one.  A token's digits are
        read 8 at a time from the words that end at its last byte and 8 and
        16 bytes before it (_eight_digits)."""
        end = self.tok_end[tok]
        width = end - self.tok_start[tok]
        value, good = _eight_digits(self.words[end], np.minimum(width, 8))
        long = np.flatnonzero(width > 8)
        if len(long):
            end, width = end[long], width[long]
            middle, middle_good = _eight_digits(self.words[end - 8], np.minimum(width - 8, 8))
            top, top_good = _eight_digits(self.words[np.maximum(end - 16, 0)], np.clip(width - 16, 0, 8))
            value[long] += (top * 10**8 + middle) * 10**8
            good[long] &= middle_good & top_good & (width <= _INT_DIGITS)
        value[~good] = -1
        return value

    def costs(self, tok):
        """Cost tokens as float() reads them; NaN where a token is not a
        number.  A token of at most _DECIMAL_CHARS bytes is read as an exact
        decimal (``_exact_decimals``) if it is one; any other token by numpy's
        bytes-to-float cast, and, if the cast refuses some token, each by
        float() alone."""
        start, length = self.tok_start[tok], self.tok_end[tok] - self.tok_start[tok]
        value = np.empty(len(tok))
        read = length <= _DECIMAL_CHARS  # a long token goes to the cast at once, and is read once
        short = slice(None) if read.all() else np.flatnonzero(read)
        if read.any():
            value[short], read[short] = self._exact_decimals(start[short], length[short])
        rest = np.flatnonzero(~read)
        if len(rest):
            value[rest] = self._cast(start[rest], length[rest])
        return value

    def _exact_decimals(self, start, length):
        """(value, whether exact) of the tokens at ``start`` of at most
        _DECIMAL_CHARS bytes.  An exact decimal, a token of ASCII digits and
        at most one '.', with 1 to _DECIMAL_DIGITS digits and k of them after
        the '.', is m / 10**k: m < 10**15 < 2**53 and 10**k are exact
        doubles, so the one correctly rounded division gives the bits float()
        gives (Clinger 1990).  One pass reads the tokens byte by byte, a row
        of a (width, tokens) window at a time."""
        width, count = int(length.max()), len(start)
        window = np.empty((width, count), dtype=np.uint8)
        for j, row in enumerate(window):
            np.take(self.text[j:], start, out=row)
        window *= np.arange(width)[:, None] < length  # zero after each token's end: neither digit nor '.'
        m = np.zeros(count)  # the digits so far, an integer below 2**53: exact
        digits, dots, point = (np.zeros(count, dtype=np.uint8) for _ in range(3))
        for j, byte in enumerate(window):
            digit = byte - np.uint8(ord("0"))
            is_digit = digit < 10
            np.multiply(m, 10.0, out=m, where=is_digit)
            np.add(m, digit, out=m, where=is_digit)
            digits += is_digit
            is_dot = byte == ord(".")
            dots += is_dot
            np.copyto(point, j, where=is_dot)
        exact = (digits + dots == length) & (dots <= 1) & (digits >= 1) & (digits <= _DECIMAL_DIGITS)
        k = np.where(dots == 1, length - 1 - point, 0)  # below _DECIMAL_CHARS: in _POW10 for every token
        return m / _POW10[k], exact

    def _cast(self, start, length):
        """The tokens at ``start`` as float() reads them, NaN where one is
        not a number: those of up to _COST_CHARS bytes by numpy's
        bytes-to-float cast, and each by float() alone if the cast refuses
        some token."""
        width = max(min(int(length.max(initial=0)), _COST_CHARS), 1)
        # the first ``width`` bytes of each token, zero after its end
        raw = as_strided(self.text, shape=(self.size, width), strides=(1, 1))[start]
        raw[np.arange(width) >= length[:, None]] = 0
        cast = length <= width
        value = np.full(len(start), np.nan)
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
