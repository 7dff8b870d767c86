"""memcached text-protocol streaming parser conformance (tier-1).

The contract: data blocks are consumed by byte count (a payload
containing ``\\r\\n`` or even ``get foo\\r\\n`` must never be read as a
command), chunk boundaries are invisible, oversized values are
swallowed without buffering, and a data block whose terminator is not
CRLF raises :class:`McProtocolError` — stream sync is unrecoverable
once the byte count was wrong, so the server closes.

Malformed-but-parseable lines do NOT raise: real memcached answers
``ERROR`` / ``CLIENT_ERROR`` and keeps the connection; the parser
mirrors that by emitting ``("error",)`` / ``("client_error", msg)``
events for the server to answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsrv import McParser, McProtocolError


def set_frame(key: bytes, data: bytes, flags: int = 0, exptime: int = 0,
              noreply: bool = False) -> bytes:
    tail = b" noreply" if noreply else b""
    return (b"set %s %d %d %d%s\r\n" % (key, flags, exptime, len(data), tail)
            + data + b"\r\n")


class TestCommands:
    def test_set_roundtrip_event(self):
        events = McParser().feed(set_frame(b"k", b"hello", flags=7,
                                           exptime=60))
        assert events == [("set", "k", 7, 60, b"hello", False)]

    def test_set_noreply(self):
        events = McParser().feed(set_frame(b"k", b"v", noreply=True))
        assert events == [("set", "k", 0, 0, b"v", True)]

    def test_data_block_is_binary_safe(self):
        """A payload that LOOKS like commands is still just bytes."""
        payload = b"get other\r\nEND\r\n"
        frame = set_frame(b"k", payload)
        events = McParser().feed(frame + b"version\r\n")
        assert events == [("set", "k", 0, 0, payload, False), ("version",)]

    def test_get_and_gets(self):
        parser = McParser()
        assert parser.feed(b"get a b c\r\n") == [("get", ["a", "b", "c"],
                                                  False)]
        assert parser.feed(b"gets a\r\n") == [("get", ["a"], True)]

    def test_delete(self):
        parser = McParser()
        assert parser.feed(b"delete k\r\n") == [("delete", "k", False)]
        assert parser.feed(b"delete k noreply\r\n") == [("delete", "k",
                                                         True)]

    def test_admin_verbs(self):
        assert McParser().feed(b"stats\r\nversion\r\nquit\r\n") == [
            ("stats",), ("version",), ("quit",),
        ]

    def test_unknown_verb_is_error_event(self):
        assert McParser().feed(b"frobnicate\r\n") == [("error",)]

    def test_bare_crlf_skipped(self):
        assert McParser().feed(b"\r\nversion\r\n") == [("version",)]

    def test_long_run_of_bare_crlf_does_not_recurse(self):
        """A megabyte of bare CRLFs is skipped iteratively: no event,
        no RecursionError, and the next command still parses."""
        parser = McParser()
        assert parser.feed(b"\r\n" * (1 << 19)) == []
        assert parser.buffered == 0
        assert parser.feed(b"version\r\n") == [("version",)]


class TestClientErrors:
    @pytest.mark.parametrize("line", [
        b"get\r\n",                       # no keys
        b"set k 0 0\r\n",                 # missing byte count
        b"set k a b c\r\n",               # non-integer fields
        b"set k 0 0 -1\r\n",              # negative byte count
        b"delete\r\n",                    # no key
        b"delete a b\r\n",                # too many keys
    ])
    def test_malformed_known_commands(self, line):
        events = McParser().feed(line)
        assert events == [("client_error", "bad command line format")]

    def test_too_many_keys(self):
        parser = McParser(max_keys=4)
        events = parser.feed(b"get a b c d e\r\n")
        assert events == [("client_error", "bad command line format")]


class TestStreaming:
    def test_byte_at_a_time(self):
        data = set_frame(b"k", b"a\r\nb") + b"get k\r\n"
        parser = McParser()
        got = []
        for i in range(len(data)):
            got.extend(parser.feed(data[i:i + 1]))
        assert got == [("set", "k", 0, 0, b"a\r\nb", False),
                       ("get", ["k"], False)]
        assert parser.buffered == 0

    def test_split_inside_data_block(self):
        parser = McParser()
        assert parser.feed(b"set k 0 0 5\r\nhel") == []
        assert parser.feed(b"lo\r\n") == [("set", "k", 0, 0, b"hello",
                                           False)]

    def test_bad_data_chunk_terminator_raises(self):
        parser = McParser()
        with pytest.raises(McProtocolError, match="bad data chunk"):
            parser.feed(b"set k 0 0 5\r\nhelloXXget k\r\n")

    def test_command_line_too_long_raises(self):
        parser = McParser(max_line=64)
        with pytest.raises(McProtocolError, match="too long"):
            parser.feed(b"get " + b"k" * 128)


class TestOversized:
    def test_oversized_set_swallowed_not_buffered(self):
        parser = McParser(max_value_size=16)
        big = b"X" * 1024
        events = parser.feed(b"set k 0 0 1024\r\n")
        assert events == []
        # Feed the payload in chunks: the parser must discard eagerly,
        # never holding the oversized bytes.
        for i in range(0, 1024, 64):
            events = parser.feed(big[i:i + 64])
            assert parser.buffered <= 64
        assert events == []
        assert parser.feed(b"\r\n") == [("too_large", "k", 1024, False)]

    def test_stream_resyncs_after_oversized_value(self):
        parser = McParser(max_value_size=4)
        data = (b"set k 0 0 10\r\n" + b"Y" * 10 + b"\r\n" + b"version\r\n")
        assert parser.feed(data) == [("too_large", "k", 10, False),
                                     ("version",)]


# ----------------------------------------------------------------------
# Property suites: any split, any bytes, bounded buffer.
# ----------------------------------------------------------------------
_MAX_VALUE = 32

_key = st.text(alphabet="abcdefgh:_-0123456789", min_size=1, max_size=8)

#: Verbs, numbers, terminators and set headers, so random input
#: reaches the data-block and swallow states often.
_MC_TOKENS = [b"get ", b"gets ", b"set ", b"delete ", b"stats", b"version",
              b"quit", b"noreply", b" ", b"\r\n", b"\r", b"0", b"5", b"-1",
              b"40", b"set k 0 0 5\r\n", b"set k 0 0 40\r\n",
              b"set k 0 0 400\r\n"]

#: Long runs of payload-ish bytes.
_runs = st.builds(lambda n: b"x" * n, st.integers(1, 80))


@st.composite
def mc_stream(draw):
    """A valid memcached byte stream and the events it encodes."""
    data, events = b"", []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["get", "set", "delete", "admin", "unknown", "blank"]))
        if kind == "get":
            keys = draw(st.lists(_key, min_size=1, max_size=4))
            with_cas = draw(st.booleans())
            verb = b"gets " if with_cas else b"get "
            data += verb + " ".join(keys).encode() + b"\r\n"
            events.append(("get", keys, with_cas))
        elif kind == "set":
            key = draw(_key)
            value = draw(st.binary(max_size=2 * _MAX_VALUE))
            flags, exptime = draw(st.integers(0, 99)), draw(st.integers(0, 99))
            noreply = draw(st.booleans())
            data += set_frame(key.encode(), value, flags, exptime, noreply)
            if len(value) > _MAX_VALUE:
                events.append(("too_large", key, len(value), noreply))
            else:
                events.append(("set", key, flags, exptime, value, noreply))
        elif kind == "delete":
            key, noreply = draw(_key), draw(st.booleans())
            data += b"delete %s%s\r\n" % (key.encode(),
                                           b" noreply" if noreply else b"")
            events.append(("delete", key, noreply))
        elif kind == "admin":
            verb = draw(st.sampled_from(["stats", "version", "quit"]))
            data += verb.encode() + b"\r\n"
            events.append((verb,))
        elif kind == "unknown":
            data += b"frobnicate\r\n"
            events.append(("error",))
        else:
            data += b"\r\n"
    return data, events


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(stream=mc_stream(), cuts=st.lists(st.integers(0, 600)))
    def test_any_split_parses_like_one_feed(self, stream, cuts):
        data, expected = stream
        assert McParser(max_value_size=_MAX_VALUE).feed(data) == expected
        parser = McParser(max_value_size=_MAX_VALUE)
        bounds = [0] + sorted({c for c in cuts if c <= len(data)}) \
            + [len(data)]
        got = []
        for a, b in zip(bounds, bounds[1:]):
            got.extend(parser.feed(data[a:b]))
        assert got == expected
        assert parser.buffered == 0

    @settings(max_examples=300, deadline=None)
    @given(chunks=st.lists(
        st.lists(st.one_of(st.binary(max_size=8),
                           st.sampled_from(_MC_TOKENS), _runs),
                 max_size=12).map(b"".join),
        max_size=6))
    def test_arbitrary_bytes_raise_typed_errors_and_stay_bounded(
            self, chunks):
        """Any input either parses or raises McProtocolError, and the
        buffer holds at most an unterminated command line
        (``max_line``) or a data block short of its last byte
        (``max_value_size + 1``); a swallowed block is never held."""
        parser = McParser(max_value_size=_MAX_VALUE, max_line=24,
                          max_keys=4)
        bound = max(parser.max_line, parser.max_value_size + 1)
        try:
            for chunk in chunks:
                parser.feed(chunk)
                assert parser.buffered <= bound
        except McProtocolError:
            pass
