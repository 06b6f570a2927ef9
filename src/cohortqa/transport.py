"""JSON over HTTP/1.1 on plain sockets, for the remote retriever.

`HTTPSession.post(payload)` sends one JSON payload to one endpoint and
returns `(status, headers, body)`. Each calling thread keeps one
connection alive, and at most 8 connections are being opened at once, so
a pool of threads that starts together does not overflow a server's
listen backlog. A request goes out in one write. A reply is framed by
RFC 9112 (Content-Length, chunked, or up to the server's close), and one
that breaks it raises `ReplyError`.

The headers come back as a dict keyed by lower-cased name. Connections go
straight to the endpoint. A session refuses to start when the environment
would route the endpoint through a proxy (`http_proxy`, `https_proxy` or
`all_proxy`, not bypassed by `no_proxy`), as `urllib.request` reads those
variables. Basic credentials come from the endpoint URL only. HTTPS is
verified against the system CA store (`SSL_CERT_FILE`, `SSL_CERT_DIR`).
"""

from __future__ import annotations

import base64
import json
import os
import select
import socket
import threading
from urllib.parse import unquote, urlsplit, urlunsplit

from . import __version__

# how many of a session's connections may be between connect and their first
# reply at once. Python's socketserver and http.server listen with a backlog
# of 5, and a pool of 32 that connects at once overflows it: the kernel drops
# connects (a 1 s SYN retransmit each) or resets them. 8 is the pool size eval
# used before its default grew to 32, so no pool opens more connections at
# once than that one did, and a server that closes after every reply still
# gets 8 requests at once. Fixed, not a setting.
_OPENING_PERMITS = 8

# a reply's head may have lines of up to 64 KiB and up to 100 header lines,
# the limits http.client named
_MAX_LINE = 65536
_MAX_HEADERS = 100
# a reply's body may be up to 4 MiB. It carries one lookup's answer: a list
# of 1024 items (the default --max-list-len) of 1 KiB of text each is 1 MiB,
# which leaves room for its JSON escaping, and eval's 32 threads holding one
# body each stay near 128 MiB. A longer Content-Length or chunk size is a
# ReplyError before any of it is read, and so is a body that runs on past it.
_MAX_BODY = 4 * 1024 * 1024
_TOO_LONG = f"reply body longer than {_MAX_BODY} bytes"


class ReplyError(OSError):
    """A reply that breaks HTTP/1.1's message syntax (RFC 9112)."""


def _line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ReplyError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _read_fields(reader) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line that ends them, by
    lower-cased name."""
    fields = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ReplyError(f"bad header line {line[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise ReplyError(f"more than {_MAX_HEADERS} headers")


def _read_head(reader) -> tuple[bytes, int, dict[str, str]]:
    """The version, status and headers of the next reply that is not 1xx."""
    while True:
        line = _line(reader)
        if not line:
            raise ReplyError("connection closed before a reply")
        parts = line.split(None, 2)
        if not (len(parts) > 1 and parts[0].startswith(b"HTTP/1.") and len(parts[1]) == 3
                and parts[1].isdigit()):
            raise ReplyError(f"bad status line {line[:80]!r}")
        fields = _read_fields(reader)
        if int(parts[1]) >= 200:
            return parts[0], int(parts[1]), fields


def _body_size(digits: str, base: int, before: int = 0) -> int:
    """A Content-Length (base 10) or chunk size (base 16), refused if it
    takes a body with `before` bytes read so far past _MAX_BODY."""
    digits = digits.lstrip("0") or "0"
    # a longer digit string is too large in either base, and int() would
    # refuse a decimal one past 4300 digits
    if len(digits) > len(str(_MAX_BODY)) or before + int(digits, base) > _MAX_BODY:
        raise ReplyError(_TOO_LONG)
    return int(digits, base)


def _read_chunked(reader) -> bytes:
    chunks, total = [], 0
    while True:
        line = _line(reader)
        size = line.partition(b";")[0].strip()  # a chunk extension is ignored
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise ReplyError(f"bad chunk size line {line[:80]!r}")
        size = _body_size(size.decode("ascii"), 16, total)
        total += size
        if not size:
            _read_fields(reader)  # the trailer
            return b"".join(chunks)
        chunks.append(reader.read(size))
        if len(chunks[-1]) < size or _line(reader) not in (b"\r\n", b"\n"):
            raise ReplyError("reply chunk cut short")


def _read_body(reader, version: bytes, status: int, fields: dict[str, str]) -> tuple[bytes, bool]:
    """The reply's body, and whether its connection may carry another request."""
    tokens = {token.strip() for token in fields.get("connection", "").lower().split(",")}
    keep = "close" not in tokens and (version != b"HTTP/1.0" or "keep-alive" in tokens)
    encoding, length = fields.get("transfer-encoding"), fields.get("content-length")
    if status in (204, 304):
        return b"", keep
    if encoding is not None and encoding.rpartition(",")[2].strip().lower() == "chunked":
        return _read_chunked(reader), keep
    if encoding is not None or length is None:  # delimited by the server's close
        body = reader.read(_MAX_BODY + 1)
        if len(body) > _MAX_BODY:
            raise ReplyError(_TOO_LONG)
        return body, False
    if not (length.isascii() and length.isdigit()):
        raise ReplyError(f"bad Content-Length {length!r}")
    size = _body_size(length, 10)
    body = reader.read(size)
    if len(body) < size:
        raise ReplyError(f"reply body ended after {len(body)} of {size} bytes")
    return body, keep


def _peer_closed(sock: socket.socket) -> bool:
    """True if an idle kept-alive socket is readable: nothing was asked of it,
    so the peer has closed it (or broken the protocol), and it cannot carry a
    request."""
    if not hasattr(select, "poll"):  # Windows
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class _Connection:
    """One thread's socket and its reply reader, both None while closed."""

    sock = reader = None

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()  # a socket with a live makefile() stays open
            self.sock.close()
            self.sock = self.reader = None


class HTTPSession:
    """POST JSON to one endpoint, one kept-alive connection per thread.

    Connections go straight to the endpoint: a proxy that the environment
    would apply to it, by `urllib.request`'s own rules, is a `ValueError`
    here, not a silent direct connection.

    The request head is built once: each request is that head, its
    Content-Length and the body, sent in one `sendall`. Each connection
    keeps one buffered reader for its replies. Before reusing a connection
    the session checks that the peer has not closed it and reconnects if it
    has, so a dropped idle connection costs no retry. A connection that fails
    mid-exchange, or whose reply ends it, is closed, and the thread's next
    request opens a new one. A request on a new or reopened connection first
    takes one of 8 permits, and gives it back once its reply is read or the
    exchange fails: only a reply shows that the server has taken the
    connection off its listen backlog. Requests on a kept-alive connection
    take none, so the permits bound connects, not requests in flight.
    `close` closes every connection opened.
    """

    def __init__(self, endpoint: str, timeout_s: float):
        url = urlsplit(endpoint)
        hostport = url.netloc.rpartition("@")[2]
        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        # the request line and Host go out as they are: an IDN host is given as xn--
        if url.scheme not in ("http", "https") or not url.hostname or not (hostport + target).isascii():
            raise ValueError(f"endpoint {endpoint!r} is not an ASCII http:// or https:// URL")
        # urllib.request takes about 20 ms to import (http.client, email, ssl),
        # so only an environment that may name a proxy pays for it
        if any(value and name.lower().endswith("_proxy") and name.lower() != "no_proxy"
               for name, value in os.environ.items()):
            from urllib.request import getproxies_environment, proxy_bypass_environment

            proxies = getproxies_environment()
            name = url.scheme if url.scheme in proxies else "all"
            # the variable is named, never its value, which may carry credentials
            if name in proxies and not proxy_bypass_environment(hostport, proxies):
                raise ValueError(f"{name}_proxy is set, and the remote client connects only "
                                 "directly: list the endpoint's host in no_proxy")
        tls = url.scheme == "https"
        headers = {
            "Host": hostport,
            "Accept-Encoding": "identity",
            "Content-Type": "application/json",
            "Accept": "application/json",
            "User-Agent": f"cohortqa/{__version__}",
        }
        if url.username is not None:
            # ISO-8859-1, the historical charset of Basic credentials (RFC 7617 section 2.1)
            userinfo = f"{unquote(url.username)}:{unquote(url.password or '')}".encode("latin-1")
            headers["Authorization"] = "Basic " + base64.b64encode(userinfo).decode("ascii")
        lines = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in headers.items()),
                 "Content-Length: "]
        self._head = "\r\n".join(lines).encode("ascii")
        self._tls = None
        if tls:
            import ssl

            self._tls = ssl.create_default_context(), url.hostname
        self._address = (url.hostname, url.port or (443 if tls else 80))
        self._timeout_s = timeout_s
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[_Connection] = []
        self._opening = threading.BoundedSemaphore(_OPENING_PERMITS)

    def _connect(self, conn: _Connection) -> None:
        sock = socket.create_connection(self._address, self._timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                context, server_hostname = self._tls
                sock = context.wrap_socket(sock, server_hostname=server_hostname)
        except BaseException:
            sock.close()
            raise
        conn.sock, conn.reader = sock, sock.makefile("rb")

    def post(self, payload) -> tuple[int, dict[str, str], bytes]:
        """POST `payload` as JSON to the session's endpoint; the reply's
        status, headers (by lower-cased name) and body."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection()
            with self._lock:
                self._opened.append(conn)
        elif conn.sock is not None and _peer_closed(conn.sock):
            conn.close()
        opening = conn.sock is None  # new, reopened, or closed after a failure
        if opening:
            self._opening.acquire()
        try:
            if opening:
                self._connect(conn)
            body = json.dumps(payload).encode()
            conn.sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            version, status, fields = _read_head(conn.reader)
            body, keep = _read_body(conn.reader, version, status, fields)
        except BaseException:
            conn.close()
            raise
        finally:
            if opening:
                self._opening.release()
        if not keep:
            conn.close()
        return status, fields, body

    def close(self) -> None:
        with self._lock:
            opened, self._opened = self._opened, []
        for conn in opened:
            conn.close()
