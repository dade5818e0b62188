"""The one HTTP request policy shared by the remote backends.

The embedding service and the oracle endpoint are both JSON-over-POST
services. A request sends a bearer token read from the environment variable
named ``key_env`` when that variable is set. Connection errors, timeouts and
status 429/500/502/503 are retried; any other non-200 status, or a request
that ``requests`` refuses to send (a ``ValueError``), fails at once; when
every attempt is spent the error names the attempt count and the last
failure. A 200 response whose body is not JSON fails at once. Failures
surface as TransportError.

Between attempts the client sleeps, so a rate-limited or restarting service
is not hit again at once. A ``Retry-After`` header given in seconds is
honoured, up to ``RETRY_AFTER_MAX_S``. Otherwise the wait is exponential
backoff with full jitter: after ``n`` failed attempts it is uniform in
``[0, min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**(n - 1)))``. See "Exponential
Backoff And Jitter", AWS Architecture Blog, 2015.
"""

from __future__ import annotations

import os
import random
import time
from typing import TYPE_CHECKING

from .errors import TransportError

if TYPE_CHECKING:
    import requests

RETRIABLE_STATUS = (429, 500, 502, 503)
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 8.0
RETRY_AFTER_MAX_S = 60.0

# The clock and the jitter source, replaced by tests.
_sleep = time.sleep
_random = random.random


def post_json(
    session: requests.Session,
    url: str,
    payload: dict,
    *,
    key_env: str,
    timeout: float,
    service: str,
) -> dict:
    """POST ``payload`` and return the decoded body of the first 200 response.

    Makes at most ``MAX_ATTEMPTS`` attempts, each waiting up to ``timeout``
    seconds. ``service`` names the remote end in error messages.
    """
    import requests

    headers = {}
    key = os.environ.get(key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    last_error: Exception | None = None
    retry_after: str | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        if attempt > 1:
            _sleep(_retry_delay(attempt - 1, retry_after))
            retry_after = None
        try:
            response = session.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            if isinstance(exc, ValueError):  # a malformed URL or header: nothing was sent
                raise TransportError(f"{service} request is malformed: {exc}") from exc
            last_error = exc
            continue
        if response.status_code in RETRIABLE_STATUS:
            last_error = TransportError(f"{service} returned {response.status_code}")
            retry_after = response.headers.get("Retry-After")
            continue
        if response.status_code != 200:
            raise TransportError(f"{service} returned {response.status_code}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:  # requests' JSONDecodeError is a ValueError
            raise TransportError(f"{service} returned a body that is not JSON: {exc}") from exc
    raise TransportError(f"{service} unreachable after {MAX_ATTEMPTS} attempts: {last_error}")


def _retry_delay(failed: int, retry_after: str | None) -> float:
    """Seconds to wait after ``failed`` attempts: the server's ``Retry-After``, else jittered backoff."""
    try:
        seconds = float(retry_after)
    except (TypeError, ValueError):  # absent, or an HTTP date
        seconds = -1.0
    if seconds >= 0:  # not NaN either
        return min(seconds, RETRY_AFTER_MAX_S)
    # The exponent is bounded so that no attempt count overflows a float.
    return _random() * min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** min(failed - 1, 32))
