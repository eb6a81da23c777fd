"""A conforming mock endpoint for integration tests.

Serves the wire protocol from remote.py: POST in, {"reply": ...} out.
Replies cycle through a configured list; an optional artificial delay, a
per-byte drip of the body, an error status and a raw body sent in place
of the JSON document let tests exercise the timeout/retry/fallback paths.

Run standalone with:  python -m lmfa.agents.mock_server --port 8631 --reply C
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Sequence


class MockAgentServer:
    """Threaded test server; use as a context manager."""

    def __init__(
        self,
        replies: Sequence[str] = ("C",),
        delay_s: float = 0.0,
        drip_s: float = 0.0,
        status: int = 200,
        wire_format: str = "lmfa",
        port: int = 0,
        raw_body: Optional[bytes] = None,
    ) -> None:
        self.replies = list(replies)
        self.delay_s = delay_s
        self.drip_s = drip_s  # pause before each body byte; 0 writes it at once
        self.status = status
        self.wire_format = wire_format
        self.port = port
        self.raw_body = raw_body  # sent verbatim instead of the reply document
        self.requests: List[dict] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._server: Optional[ThreadingHTTPServer] = None

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "MockAgentServer":
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802  (http.server API)
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                try:
                    payload = json.loads(body)
                except json.JSONDecodeError:
                    payload = {"_raw": body.decode("utf-8", "replace")}
                with outer._lock:
                    outer.requests.append(
                        {
                            "path": self.path,
                            "headers": dict(self.headers),
                            "body": body,
                            "json": payload,
                        }
                    )
                    index = outer._counter
                    outer._counter += 1
                if outer.delay_s:
                    time.sleep(outer.delay_s)
                reply = outer.replies[index % len(outer.replies)]
                if outer.wire_format == "chat":
                    doc = {"choices": [{"message": {"content": reply}}]}
                else:
                    doc = {"reply": reply}
                data = json.dumps(doc).encode() if outer.raw_body is None else outer.raw_body
                self.send_response(outer.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                try:
                    if outer.drip_s:
                        for i in range(len(data)):
                            time.sleep(outer.drip_s)
                            self.wfile.write(data[i : i + 1])
                    else:
                        self.wfile.write(data)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client stopped reading

            def log_message(self, *args) -> None:  # silence test output
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", self.port), Handler)
        threading.Thread(target=self._server.serve_forever, daemon=True).start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "MockAgentServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        assert self._server is not None, "server not started"
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="mock agent endpoint")
    parser.add_argument("--port", type=int, default=8631)
    parser.add_argument("--reply", action="append", default=None)
    parser.add_argument("--delay", type=float, default=0.0)
    args = parser.parse_args(argv)

    server = MockAgentServer(
        replies=args.reply or ["C"], delay_s=args.delay, port=args.port
    )
    server.start()
    print(f"mock agent serving on {server.url}")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
