"""Message authentication for tree buckets.

HMAC-SHA256 truncated to the caller's tag size.  The paper requires
authentication (reject injected data) and integrity/freshness (reject
replays) but cites prior work for the construction, so a standard HMAC is
a faithful substitute; freshness binding lives in the caller (the bucket
codec binds its write counter and bucket index into the tag).
"""

from __future__ import annotations

import hashlib
import hmac


def mac_tag(key: bytes, message: bytes, tag_bytes: int = 8) -> bytes:
    """Truncated HMAC-SHA256 tag over ``message``."""
    if tag_bytes < 4 or tag_bytes > 32:
        raise ValueError("tag_bytes must be in [4, 32]")
    return hmac.new(key, message, hashlib.sha256).digest()[:tag_bytes]


def mac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time comparison of the expected tag against ``tag``."""
    expected = mac_tag(key, message, len(tag))
    return hmac.compare_digest(expected, tag)
