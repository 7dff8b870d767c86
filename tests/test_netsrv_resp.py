"""RESP2 streaming parser + encoder conformance (no sockets, tier-1).

The parser contract under test: arbitrary chunk boundaries never change
what is parsed, payloads are binary-safe (a value containing ``\\r\\n``
must survive), pipelined streams yield every completed command per
feed, and malformed frames raise :class:`RespProtocolError` — the
server turns that into one ``-ERR Protocol error`` reply and a close,
which is Redis's behaviour.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsrv import (
    NIL,
    RespParser,
    RespProtocolError,
    encode_array,
    encode_bulk,
    encode_error,
    encode_integer,
    encode_simple,
)


def cmd(*args: bytes) -> bytes:
    """Client-side RESP encoding: an array of bulk strings."""
    out = b"*%d\r\n" % len(args)
    for a in args:
        out += b"$%d\r\n%s\r\n" % (len(a), a)
    return out


class TestEncoders:
    def test_frames(self):
        assert encode_simple("OK") == b"+OK\r\n"
        assert encode_error("ERR boom") == b"-ERR boom\r\n"
        assert encode_integer(42) == b":42\r\n"
        assert encode_integer(-1) == b":-1\r\n"
        assert encode_bulk(b"hello") == b"$5\r\nhello\r\n"
        assert encode_bulk(b"") == b"$0\r\n\r\n"
        assert encode_bulk(None) == NIL == b"$-1\r\n"
        assert encode_array([encode_bulk(b"a"), NIL]) == (
            b"*2\r\n$1\r\na\r\n$-1\r\n"
        )

    def test_bulk_is_binary_safe(self):
        payload = b"a\r\nb\x00c"
        frame = encode_bulk(payload)
        assert RespParser().feed(cmd(b"ECHO", payload)) == [
            [b"ECHO", payload]
        ]
        assert frame == b"$6\r\na\r\nb\x00c\r\n"


class TestParser:
    def test_single_command(self):
        assert RespParser().feed(cmd(b"GET", b"k")) == [[b"GET", b"k"]]

    def test_pipelined_commands_in_one_feed(self):
        data = cmd(b"SET", b"k", b"v") + cmd(b"GET", b"k") + cmd(b"PING")
        assert RespParser().feed(data) == [
            [b"SET", b"k", b"v"], [b"GET", b"k"], [b"PING"],
        ]

    def test_byte_at_a_time(self):
        """Chunk boundaries are invisible: same commands, any split."""
        data = cmd(b"MSET", b"a", b"1", b"b", b"2") + cmd(b"PING")
        parser = RespParser()
        got = []
        for i in range(len(data)):
            got.extend(parser.feed(data[i:i + 1]))
        assert got == [[b"MSET", b"a", b"1", b"b", b"2"], [b"PING"]]
        assert parser.buffered == 0

    def test_split_inside_bulk_payload(self):
        parser = RespParser()
        frame = cmd(b"SET", b"k", b"a\r\nb")
        cut = frame.index(b"a\r\nb") + 2  # mid-payload, after the \r
        assert parser.feed(frame[:cut]) == []
        assert parser.feed(frame[cut:]) == [[b"SET", b"k", b"a\r\nb"]]

    def test_inline_commands(self):
        parser = RespParser()
        assert parser.feed(b"PING\r\n") == [[b"PING"]]
        assert parser.feed(b"GET  k1 \r\n") == [[b"GET", b"k1"]]
        # Blank inline lines are skipped, not commands.
        assert parser.feed(b"\r\n \r\nPING\r\n") == [[b"PING"]]

    def test_inline_mixed_with_arrays(self):
        data = b"PING\r\n" + cmd(b"GET", b"k") + b"QUIT\r\n"
        assert RespParser().feed(data) == [[b"PING"], [b"GET", b"k"],
                                           [b"QUIT"]]

    def test_empty_and_null_arrays_are_skipped(self):
        assert RespParser().feed(b"*0\r\n" + cmd(b"PING")) == [[b"PING"]]
        assert RespParser().feed(b"*-1\r\n" + cmd(b"PING")) == [[b"PING"]]

    def test_long_runs_of_empty_frames_do_not_recurse(self):
        """Blank lines and empty arrays are skipped iteratively: runs
        far deeper than the recursion limit yield nothing and leave the
        parser ready for the next command."""
        parser = RespParser()
        assert parser.feed(b"\r\n" * (1 << 19)) == []  # 1 MiB
        assert parser.feed(b"*0\r\n" * 100_000) == []
        assert parser.feed(b"*-1\r\n" * 100_000) == []
        assert parser.buffered == 0
        assert parser.feed(cmd(b"PING")) == [[b"PING"]]

    def test_invalid_bulk_length(self):
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            RespParser().feed(b"*1\r\n$abc\r\n")
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            RespParser().feed(b"*1\r\n$-5\r\n")

    def test_oversized_bulk_rejected_before_payload_arrives(self):
        parser = RespParser(max_bulk=16)
        with pytest.raises(RespProtocolError, match="invalid bulk length"):
            parser.feed(b"*2\r\n$3\r\nSET\r\n$9999999\r\n")

    def test_bulk_payload_must_end_with_crlf(self):
        with pytest.raises(RespProtocolError, match="not CRLF-terminated"):
            RespParser().feed(b"*1\r\n$4\r\nPINGXX\r\n")

    def test_array_element_must_be_bulk(self):
        with pytest.raises(RespProtocolError, match="expected '\\$'"):
            RespParser().feed(b"*1\r\n:42\r\n")

    def test_invalid_multibulk_length(self):
        with pytest.raises(RespProtocolError, match="invalid multibulk"):
            RespParser().feed(b"*xyz\r\n")
        with pytest.raises(RespProtocolError, match="invalid multibulk"):
            RespParser(max_elements=4).feed(b"*5000\r\n")

    def test_unterminated_inline_line_hits_limit(self):
        parser = RespParser(max_inline=32)
        with pytest.raises(RespProtocolError, match="too big inline"):
            parser.feed(b"X" * 64)

    def test_buffered_counts_incomplete_frame(self):
        parser = RespParser()
        parser.feed(b"*2\r\n$3\r\nGET\r\n$5\r\nhel")
        assert parser.buffered > 0
        assert parser.feed(b"lo\r\n") == [[b"GET", b"hello"]]
        assert parser.buffered == 0

    def test_pending_array_state_survives_feeds(self):
        """The array header is consumed once; elements trickle in."""
        parser = RespParser()
        assert parser.feed(b"*3\r\n") == []
        assert parser.feed(b"$3\r\nSET\r\n") == []
        assert parser.feed(b"$1\r\nk\r\n$1\r\nv\r\n") == [
            [b"SET", b"k", b"v"]
        ]


# ----------------------------------------------------------------------
# Property suites: any split, any bytes, bounded buffer.
# ----------------------------------------------------------------------
#: Bytes that steer random input into the parser's interesting paths
#: (headers, lengths, terminators) far more often than uniform bytes.
_RESP_TOKENS = [b"*", b"$", b"\r\n", b"\r", b"\n", b"-", b"0", b"1", b"3",
                b"9", b" ", b"_", b"PING", b"*1\r\n", b"$1\r\n", b"$3\r\n"]

#: Array and bulk headers, some padded with zeros or spaces (which
#: ``int()`` accepts), and long runs of one byte (long lines).
_headers = st.builds(
    lambda lead, pad, n: lead + pad + b"%d\r\n" % n,
    st.sampled_from([b"*", b"$"]),
    st.sampled_from([b"", b"0" * 40, b" " * 40]),
    st.integers(-2, 20))
_runs = st.builds(lambda b, n: b * n, st.sampled_from([b"0", b" ", b"x"]),
                  st.integers(1, 40))

_inline_token = st.binary(min_size=1, max_size=6).filter(
    lambda t: not (set(t) & set(b" \t\r\n\x0b\x0c")) and t[:1] != b"*")


@st.composite
def resp_stream(draw):
    """A valid RESP byte stream and the commands it encodes."""
    data, commands = b"", []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["array", "inline", "empty"]))
        if kind == "array":
            args = draw(st.lists(st.binary(max_size=20), min_size=1,
                                 max_size=4))
            data += cmd(*args)
            commands.append(args)
        elif kind == "inline":
            tokens = draw(st.lists(_inline_token, min_size=1, max_size=3))
            data += b" ".join(tokens) + b"\r\n"
            commands.append(tokens)
        else:
            data += draw(st.sampled_from([b"*0\r\n", b"*-1\r\n", b"\r\n"]))
    return data, commands


def _split(data: bytes, cuts):
    bounds = [0] + sorted(set(cuts)) + [len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(stream=resp_stream(), cuts=st.lists(st.integers(0, 400)))
    def test_any_split_parses_like_one_feed(self, stream, cuts):
        data, expected = stream
        assert RespParser().feed(data) == expected
        parser = RespParser()
        got = []
        for chunk in _split(data, [c for c in cuts if c <= len(data)]):
            got.extend(parser.feed(chunk))
        assert got == expected
        assert parser.buffered == 0

    @settings(max_examples=300, deadline=None)
    # A bulk header padded past max_inline once buffered its whole
    # line while waiting for the payload.
    @example(chunks=[b"*1\r\n$" + b"0" * 40 + b"16\r\n" + b"x" * 10])
    @given(chunks=st.lists(
        st.lists(st.one_of(st.binary(max_size=8),
                           st.sampled_from(_RESP_TOKENS), _headers, _runs),
                 max_size=12).map(b"".join),
        max_size=6))
    def test_arbitrary_bytes_raise_typed_errors_and_stay_bounded(
            self, chunks):
        """Any input either parses or raises RespProtocolError, and
        the buffer never holds more than one incomplete frame: a
        header line of at most ``max_inline`` bytes plus its CRLF and
        all but the last byte of a ``max_bulk`` payload's CRLF."""
        parser = RespParser(max_bulk=16, max_elements=4, max_inline=12)
        bound = parser.max_inline + parser.max_bulk + 3
        try:
            for chunk in chunks:
                parser.feed(chunk)
                assert parser.buffered <= bound
        except RespProtocolError:
            pass
