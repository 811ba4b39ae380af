"""Keep-alive HTTP clients for the served portal.

A fixed number of connections, each driven by its own thread: the
benchmark's load is closed-loop (a client sends its next request only
after the previous response has been read in full).
"""

from __future__ import annotations

import http.client
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass
class Fetch:
    """One request as the client saw it."""

    path: str
    status: int  # 0 when the client raised
    ms: float
    body: str = ""
    error: str = ""
    #: time.perf_counter() when the request was sent
    t0: float = 0.0

    @property
    def t1(self) -> float:
        return self.t0 + self.ms / 1e3

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str) -> Fetch:
        t0 = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=60
                )
            self._conn.request("GET", path)
            resp = self._conn.getresponse()
            body = resp.read().decode("utf-8", "replace")
            return Fetch(path, resp.status, (time.perf_counter() - t0) * 1e3,
                         body, t0=t0)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return Fetch(path, 0, (time.perf_counter() - t0) * 1e3,
                         error=f"{type(exc).__name__}: {exc}", t0=t0)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Clients:
    """``n`` connections, each with its own thread."""

    def __init__(self, host: str, port: int, n: int) -> None:
        self.conns = [Connection(host, port) for _ in range(n)]
        self._pool = ThreadPoolExecutor(
            max_workers=n, thread_name_prefix="bench-client"
        )

    def round(self, paths: Sequence[str]) -> List[Fetch]:
        """Fetch ``paths`` dealt round-robin over the connections.

        Each connection reads its share in order; the call returns when
        every connection is done.
        """
        n = len(self.conns)
        futures = [
            self._pool.submit(
                lambda c, ps: [c.get(p) for p in ps], conn, paths[i::n]
            )
            for i, conn in enumerate(self.conns)
        ]
        out: List[Fetch] = []
        for f in futures:
            out.extend(f.result())
        return out

    def loop(self, next_path: Callable[[int, int], Optional[str]]
             ) -> List[List[Fetch]]:
        """Closed loop: connection ``i`` requests ``next_path(i, k)`` for
        its ``k``-th request until that returns None."""
        def run(i: int, conn: Connection) -> List[Fetch]:
            done: List[Fetch] = []
            while True:
                path = next_path(i, len(done))
                if path is None:
                    return done
                done.append(conn.get(path))

        futures = [
            self._pool.submit(run, i, conn)
            for i, conn in enumerate(self.conns)
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for c in self.conns:
            c.close()
