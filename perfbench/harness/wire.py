"""A blocking braidsim-api/1 client: 4-byte big-endian length-prefixed
JSON frames over a Unix-domain socket, one request in flight."""

import json
import socket
import struct


class Closed(RuntimeError):
    pass


class Conn:
    def __init__(self, path, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)

    def close(self):
        self.sock.close()

    def _read_exact(self, n):
        chunks = []
        while n:
            b = self.sock.recv(n)
            if not b:
                raise Closed("connection closed mid-frame")
            chunks.append(b)
            n -= len(b)
        return b"".join(chunks)

    def send(self, line):
        payload = line.encode("utf-8")
        self.sock.sendall(struct.pack(">I", len(payload)) + payload)

    def read_frame(self):
        (n,) = struct.unpack(">I", self._read_exact(4))
        return self._read_exact(n).decode("utf-8")

    def request(self, line):
        """Send one request line; return the terminal frame as a dict
        (progress frames are skipped)."""
        self.send(line)
        while True:
            frame = json.loads(self.read_frame())
            if frame.get("type") != "progress":
                return frame
