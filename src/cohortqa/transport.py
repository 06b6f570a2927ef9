"""JSON over HTTP/1.1 on the standard library, for the remote retriever.

`HTTPSession.post` keeps the call shape of `requests.Session.post` for one
endpoint. Each calling thread keeps one connection alive. The route is
resolved once per session:

- the proxy the environment names (`http_proxy`, `https_proxy`, `all_proxy`,
  bypassed by `no_proxy`): plain HTTP goes to it in absolute form, HTTPS
  through a CONNECT tunnel;
- Basic credentials from the endpoint URL, else from `$NETRC` or `~/.netrc`;
- HTTPS verified against the system CA store (`SSL_CERT_FILE`,
  `SSL_CERT_DIR`).
"""

from __future__ import annotations

import base64
import http.client
import json
import netrc
import os
import select
import socket
import threading
from urllib.parse import unquote, urlsplit, urlunsplit
from urllib.request import getproxies, proxy_bypass

from . import __version__

# what a failed exchange raises
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

_encode = json.dumps  # `post` takes a parameter named json


class Response:
    """One reply: `status_code`, `headers` and the body behind `json()`."""

    __slots__ = ("status_code", "headers", "body")

    def __init__(self, status_code: int, headers: http.client.HTTPMessage, body: bytes):
        self.status_code = status_code
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body)


def _basic(user: str, password: str) -> str:
    # ISO-8859-1, the historical charset of Basic credentials (RFC 7617 section 2.1)
    token = base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")
    return f"Basic {token}"


def _url_credentials(url) -> tuple[str, str] | None:
    if url.username is None:
        return None
    return unquote(url.username), unquote(url.password or "")


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """(login, password) for `host` from `$NETRC` or `~/.netrc`, if any; an
    unreadable or malformed file gives none."""
    path = os.environ.get("NETRC") or os.path.expanduser("~/.netrc")
    if not os.path.exists(path):
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account, password


def _peer_closed(sock: socket.socket) -> bool:
    """True if an idle kept-alive socket is readable: nothing was asked of it,
    so the peer has closed it (or broken the protocol), and it cannot carry a
    request."""
    if not hasattr(select, "poll"):  # Windows
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class HTTPSession:
    """POST JSON to one endpoint, one kept-alive connection per thread.

    Before reusing a connection the session checks that the peer has not
    closed it and reconnects if it has, so a dropped idle connection costs no
    retry. A connection that fails mid-exchange is closed, and the thread's
    next request opens a new one. `close` closes every connection opened.
    """

    def __init__(self, endpoint: str, timeout_s: float):
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL")
        tls = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if tls else 80)
        hostport = url.netloc.rpartition("@")[2]
        self._headers = {
            "Content-Type": "application/json",
            "Accept": "application/json",
            "User-Agent": f"cohortqa/{__version__}",
        }
        credentials = _url_credentials(url) or _netrc_credentials(host)
        if credentials:
            self._headers["Authorization"] = _basic(*credentials)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))

        self._options: dict = {"timeout": timeout_s}
        if tls:
            import ssl

            self._options["context"] = ssl.create_default_context()
        self._tunnel = None
        proxies = getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and not proxy_bypass(hostport):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ValueError(f"proxy {proxy!r}: only http:// proxies are supported")
            proxy_headers = {}
            proxy_credentials = _url_credentials(proxy_url)
            if proxy_credentials:
                proxy_headers["Proxy-Authorization"] = _basic(*proxy_credentials)
            if tls:
                self._tunnel = (host, port, proxy_headers)
            else:
                self._target = urlunsplit(("http", hostport, self._target, "", ""))
                self._headers.update(proxy_headers)
            host, port = proxy_url.hostname, proxy_url.port or 80
        self._connection_type = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        self._address = (host, port)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[http.client.HTTPConnection] = []

    def _open(self) -> http.client.HTTPConnection:
        conn = self._connection_type(*self._address, **self._options)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        with self._lock:
            self._opened.append(conn)
        self._local.conn = conn
        return conn

    def post(self, url: str, json, timeout: float) -> Response:
        """POST `json` to the session's endpoint.

        `url` and `timeout` are the endpoint and timeout the session was
        opened with; they keep the call shape that test doubles stand in for.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._open()
        elif conn.sock is not None and _peer_closed(conn.sock):
            conn.close()  # request() reconnects
        try:
            conn.request("POST", self._target, _encode(json).encode(), self._headers)
            reply = conn.getresponse()
            return Response(reply.status, reply.headers, reply.read())
        except TRANSPORT_ERRORS:
            conn.close()
            raise

    def close(self) -> None:
        with self._lock:
            opened, self._opened = self._opened, []
        for conn in opened:
            conn.close()
