"""Content-addressed cache for computed polynomials and certificates.

Layout under the root directory:

  <sha256>.json     one record per file, canonical JSON
  refs/<key>        the sha256 of one logical key's record; the key
                    ``cert:modular:8:53`` is the file ``cert@modular@8@53``

Records are immutable: a blob's name is the hash of its bytes.  Each file is
written through a temp file and os.replace, so readers never see a partial
file and writers of different keys never share one.  A ref counts only if it
is 64 lowercase hex digits naming a blob whose bytes hash to it and whose
record is for that key.  Records of another tool version, and an
``index.json`` of earlier versions, are ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from . import tool_stamp
from .certificates import Certificate, canonical_json_bytes
from .giambelli import PkRecord

__all__ = ["Store", "default_cache_dir"]

_DIGEST = re.compile(rb"[0-9a-f]{64}")


def default_cache_dir() -> Path:
    env = os.environ.get("HECKE_CACHE_DIR")
    return Path(env) if env else Path.cwd() / ".hecke-cache"


class Store:
    """Disk cache keyed by record identity, addressed by content hash."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._refs = self.root / "refs"
        self._refs.mkdir(parents=True, exist_ok=True)

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

    def _ref_path(self, key: str) -> Path:
        return self._refs / key.replace(":", "@")

    def _read_ref(self, ref: Path) -> str | None:
        try:
            data = ref.read_bytes()
        except FileNotFoundError:
            return None
        # anything but a bare digest could name a path outside the store
        return data.decode("ascii") if _DIGEST.fullmatch(data) else None

    def _put_obj(self, key: str, obj: dict) -> str:
        data = canonical_json_bytes(obj)
        digest = hashlib.sha256(data).hexdigest()
        blob = self.path_for(digest)
        if not blob.exists():
            self._write_atomic(blob, data)
        ref = self._ref_path(key)
        if self._read_ref(ref) != digest:
            self._write_atomic(ref, digest.encode("ascii"))
        return digest

    def _get_obj(self, key: str) -> dict | None:
        digest = self._read_ref(self._ref_path(key))
        if digest is None:
            return None
        try:
            data = self.path_for(digest).read_bytes()
            obj = json.loads(data) if hashlib.sha256(data).hexdigest() == digest else None
        except (FileNotFoundError, ValueError):
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

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.json"
