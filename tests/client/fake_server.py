"""A scriptable fake HTTP server for client fault injection.

Real-TCP misbehaviour on demand: each accepted request is answered by
the next action in the script —

* ``("respond", status, payload_dict, extra_headers)`` — a complete
  JSON response (``Connection: close``, so pooled clients reconnect
  per request and the script stays in lock-step);
* ``("partial", n_body_bytes)`` — send the complete head but only the
  first ``n_body_bytes`` of the declared body, then close mid-body;
* ``("raw", data)`` — send literal bytes (malformed-payload
  injection), then close;
* ``("close",)`` — close immediately without answering;
* ``("hang", seconds)`` — read the request, then sit silent (timeout
  injection) before closing.

Received requests (method, path, headers, body) are recorded for
assertions — e.g. that a retry carried ``X-Retry-Attempt``.
"""

from __future__ import annotations

import json
import socket
import threading


def _http_response(
    status: int, payload: dict, extra_headers: dict | None = None
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 503: "Service Unavailable"}.get(
        status, "OK"
    )
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
        **(extra_headers or {}),
    }
    head = f"HTTP/1.1 {status} {reason}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()
    )
    return head.encode("latin-1") + b"\r\n" + body


class FakeServer:
    """One-thread accept loop executing a response script."""

    def __init__(self, script: list[tuple]) -> None:
        self.script = list(script)
        self.requests: list[dict] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._closing = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.script and not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            try:
                self._handle(conn)
            finally:
                conn.close()

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        try:
            self.requests.append(_read_request(conn))
        except (OSError, ValueError):
            return
        if not self.script:
            return
        action = self.script.pop(0)
        kind = action[0]
        if kind == "respond":
            _, status, payload, *rest = action
            conn.sendall(
                _http_response(status, payload, rest[0] if rest else None)
            )
        elif kind == "partial":
            full = _http_response(
                200, {"v": 2, "kind": "journey", "pad": "x" * 256}
            )
            head, _, body = full.partition(b"\r\n\r\n")
            conn.sendall(head + b"\r\n\r\n" + body[: action[1]])
        elif kind == "raw":
            conn.sendall(action[1])
        elif kind == "hang":
            self._closing.wait(action[1])
        # "close" (and everything else) falls through to conn.close().

    def close(self) -> None:
        self._closing.set()
        self._sock.close()
        self._thread.join(timeout=5)


def _read_request(conn: socket.socket) -> dict:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            raise ValueError("client closed before a full request arrived")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    method, path, _version = lines[0].split()
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    while len(body) < length:
        chunk = conn.recv(4096)
        if not chunk:
            break
        body += chunk
    return {
        "method": method,
        "path": path,
        "headers": headers,
        "body": body.decode("utf-8", "replace"),
    }
