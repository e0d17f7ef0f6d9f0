"""Disk cache for computed polynomials and certificates, one file per key.

The key ``cert:modular:8:53`` is the file ``cert@modular@8@53`` in the root
directory.  It holds the 64 lowercase hex digits of the sha256 of the
record's canonical JSON, a newline, then those JSON bytes.  Each file is
written through a temp file and os.replace, so readers never see a partial
file and writers of different keys never share one.  A file counts only if
its bytes hash to its header and its record is for that key and this tool
version.  Earlier layouts (digest-named blobs, ``refs/``, ``index.json``) use
other names, so a cache left by them reads as empty and refills.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import tool_stamp
from .certificates import Certificate, canonical_json_bytes
from .giambelli import PkRecord

__all__ = ["Store", "default_cache_dir"]


def default_cache_dir() -> Path:
    env = os.environ.get("HECKE_CACHE_DIR")
    return Path(env) if env else Path.cwd() / ".hecke-cache"


class Store:
    """Disk cache keyed by record identity, each file checked by its sha256."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)

    def _write_atomic(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def _path(self, key: str) -> Path:
        return self.root / key.replace(":", "@")

    @staticmethod
    def _read(path: Path) -> bytes:
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return b""

    def _put_obj(self, key: str, obj: dict) -> str:
        body = canonical_json_bytes(obj)
        digest = hashlib.sha256(body).hexdigest()
        data = digest.encode("ascii") + b"\n" + body
        path = self._path(key)
        if self._read(path) != data:
            self._write_atomic(path, data)
        return digest

    def _get_obj(self, key: str) -> dict | None:
        data = self._read(self._path(key))
        body = data[65:]
        # the digest is checked before a byte of the record is parsed
        if data[:65] != hashlib.sha256(body).hexdigest().encode("ascii") + b"\n":
            return None
        try:
            obj = json.loads(body)
        except ValueError:
            return None
        return obj if isinstance(obj, dict) else None

    @staticmethod
    def _pk_key(k: int, variant: str) -> str:
        return f"pk:{variant}:{k}"

    @staticmethod
    def _cert_key(kind: str, k: int, g0: int) -> str:
        return f"cert:{kind}:{k}:{g0}"

    def put_pk_record(self, rec: PkRecord) -> str:
        return self._put_obj(self._pk_key(rec.k, rec.variant), rec.to_json_obj())

    def get_pk_record(self, k: int, variant: str) -> PkRecord | None:
        obj = self._get_obj(self._pk_key(k, variant))
        if obj is None:
            return None
        try:
            rec = PkRecord.from_json_obj(obj)
        except (KeyError, ValueError, TypeError):
            return None
        if rec.version != tool_stamp() or (rec.k, rec.variant) != (k, variant):
            return None
        return rec

    def put_certificate(self, cert: Certificate) -> str:
        return self._put_obj(
            self._cert_key(cert.kind, cert.k, cert.g0), cert.to_json_obj()
        )

    def get_certificate(self, kind: str, k: int, g0: int) -> Certificate | None:
        obj = self._get_obj(self._cert_key(kind, k, g0))
        if obj is None:
            return None
        try:
            cert = Certificate.from_json_obj(obj)
        except (KeyError, ValueError, TypeError):
            return None
        if cert.generated_by != tool_stamp() or (cert.kind, cert.k, cert.g0) != (kind, k, g0):
            return None
        return cert
