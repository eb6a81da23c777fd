"""A zero-delay ``MockAgentServer`` in a child process, driven over a pipe.

The remote workload puts each mock endpoint in its own process so that the
mock's JSON decoding of the large observation payloads does not share the
arena's interpreter lock. The parent talks to the child through one-line
commands on stdin and reads one JSON line back for each:

    load <replies.json>   restart the server on the same port, serving that
                          reply list from the first request; zero the tally
    stats                 {"requests": n, "bytes": total Content-Length}
    (end of input)        stop the server and exit

The server's request list is replaced by a tally, so the child keeps counts
and byte totals but none of the multi-megabyte payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence


class RequestTally:
    """Stands in for ``MockAgentServer.requests``: counts, keeps no payloads."""

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0

    def append(self, entry: dict) -> None:
        self.count += 1
        self.bytes += int(entry["headers"].get("Content-Length", 0))


def serve(wire_format: str) -> int:
    from lmfa.agents.mock_server import MockAgentServer

    def start(replies: Sequence[str], port: int) -> MockAgentServer:
        server = MockAgentServer(replies=replies, wire_format=wire_format, port=port)
        server.requests = RequestTally()
        return server.start()

    server = start(["C"], 0)
    port = int(server.url.rsplit(":", 1)[1].rstrip("/"))
    print(json.dumps({"url": server.url}), flush=True)
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "load":
                replies = json.loads(Path(arg).read_text())
                server.stop()
                server = start(replies, port)
                print(json.dumps({"ok": True}), flush=True)
            elif command == "stats":
                tally = server.requests
                print(json.dumps({"requests": tally.count, "bytes": tally.bytes}), flush=True)
            else:
                print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    finally:
        server.stop()
    return 0


class MockProcess:
    """Parent-side handle of one mock child; ``ready()`` before use."""

    def __init__(self, wire_format: str, src_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--wire-format", wire_format],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.url = ""

    def ready(self) -> None:
        """Wait for the child to report its URL."""
        self.url = self._read()["url"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"mock process exited with {self.proc.poll()}")
        return json.loads(line)

    def _ask(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read()

    def load(self, replies_path: Path) -> None:
        self._ask(f"load {replies_path}")

    def stats(self) -> dict:
        return self._ask("stats")

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="mock endpoint child process")
    parser.add_argument("--wire-format", choices=("lmfa", "chat"), default="lmfa")
    return serve(parser.parse_args(argv).wire_format)


if __name__ == "__main__":
    raise SystemExit(main())
