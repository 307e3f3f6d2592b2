"""A minimal keep-alive HTTP/1.1 client on asyncio streams.

The load generator times requests with its own client rather than
``repro.server.client``, so a change to the library's client cannot move
the numbers it reports about the server.
"""

from __future__ import annotations

import asyncio
import json


class HttpError(RuntimeError):
    pass


class Connection:
    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        content_type: str = "application/json",
    ) -> tuple[int, bytes]:
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.writer.write(head + body if len(body) < 65536 else head)
        if len(body) >= 65536:
            self.writer.write(body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def json(self, method: str, target: str, body: bytes = b"",
                   content_type: str = "application/json") -> dict:
        status, payload = await self.request(method, target, body, content_type)
        if status != 200:
            raise HttpError(f"{method} {target} -> {status}: {payload[:300]!r}")
        return json.loads(payload)
