from __future__ import annotations

import random

import pytest
import requests

from adagate import transport
from adagate.errors import TransportError
from adagate.transport import post_json

from helpers import FakeResponse, FakeSession


def _post(session: FakeSession) -> dict:
    return post_json(session, "http://svc/x", {"q": 1}, key_env="ADAGATE_TEST_KEY", timeout=1.0, service="test service")


def test_non_retriable_status_fails_after_one_request(retry_sleeps):
    session = FakeSession([FakeResponse(400, {"error": "bad"}), FakeResponse(200, {"ok": True})])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert str(exc.value).startswith("test service returned 400: ")
    assert len(session.calls) == 1
    assert retry_sleeps == []


@pytest.mark.parametrize(
    "error",
    [
        requests.exceptions.MissingSchema("Invalid URL 'svc/x': No scheme supplied"),
        requests.exceptions.InvalidSchema("No connection adapters were found for 'ftp://svc/x'"),
        requests.exceptions.InvalidURL("Invalid URL 'http://': No host supplied"),
        requests.exceptions.InvalidHeader("Invalid leading whitespace in header value"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_malformed_request_fails_at_once(retry_sleeps, error):
    session = FakeSession([error, FakeResponse(200, {"ok": True})])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert str(exc.value) == f"test service request is malformed: {error}"
    assert exc.value.__cause__ is error
    assert len(session.calls) == 1
    assert retry_sleeps == []


def test_url_without_a_scheme_is_one_attempt_through_requests(retry_sleeps):
    with requests.Session() as session, pytest.raises(TransportError) as exc:
        post_json(session, "api.example.com/v1", {}, key_env="ADAGATE_TEST_KEY", timeout=1.0, service="test service")
    assert str(exc.value).startswith("test service request is malformed: Invalid URL 'api.example.com/v1'")
    assert retry_sleeps == []


def test_connection_error_is_retried(retry_sleeps):
    session = FakeSession([requests.ConnectionError("reset"), FakeResponse(200, {"ok": True})])
    assert _post(session) == {"ok": True}
    assert len(session.calls) == 2
    assert len(retry_sleeps) == 1


def test_retries_back_off_exponentially_with_full_jitter(monkeypatch, retry_sleeps):
    monkeypatch.setattr(transport, "_random", lambda: 0.5)
    monkeypatch.setattr(transport, "MAX_ATTEMPTS", 7)
    session = FakeSession([FakeResponse(503)] * 7)
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert len(session.calls) == 7
    assert str(exc.value) == "test service unreachable after 7 attempts: test service returned 503"
    # Half of 0.5 s doubling per failed attempt, capped at 8 s; no wait after the last attempt.
    assert retry_sleeps == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]


def test_backoff_is_drawn_uniformly_below_its_ceiling(monkeypatch, retry_sleeps):
    draws = random.Random(5)
    monkeypatch.setattr(transport, "_random", draws.random)
    monkeypatch.setattr(transport, "MAX_ATTEMPTS", 6)
    with pytest.raises(TransportError):
        _post(FakeSession([requests.ConnectionError("reset")] * 6))
    expected = random.Random(5)
    assert retry_sleeps == [expected.random() * ceiling for ceiling in (0.5, 1.0, 2.0, 4.0, 8.0)]


def test_retry_after_in_seconds_takes_precedence(monkeypatch, retry_sleeps):
    monkeypatch.setattr(transport, "_random", lambda: 1.0)
    monkeypatch.setattr(transport, "MAX_ATTEMPTS", 5)
    session = FakeSession(
        [
            FakeResponse(429, headers={"Retry-After": "3"}),
            FakeResponse(503, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            FakeResponse(429, headers={"Retry-After": "3600"}),
            requests.ConnectionError("reset"),
            FakeResponse(200, {"ok": True}),
        ]
    )
    assert _post(session) == {"ok": True}
    # Seconds are honoured up to a cap; a date, or no response at all, falls back to backoff.
    assert retry_sleeps == [3.0, 1.0, 60.0, 4.0]


def test_retries_exhausted_names_service_and_last_error():
    session = FakeSession([FakeResponse(503), requests.Timeout("slow"), FakeResponse(429)])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert len(session.calls) == 3
    assert str(exc.value) == "test service unreachable after 3 attempts: test service returned 429"


def test_authorization_header_only_when_key_env_is_set(monkeypatch):
    monkeypatch.delenv("ADAGATE_TEST_KEY", raising=False)
    session = FakeSession([FakeResponse(200), FakeResponse(200)])
    _post(session)
    monkeypatch.setenv("ADAGATE_TEST_KEY", "sekrit")
    _post(session)
    assert [call["headers"] for call in session.calls] == [{}, {"Authorization": "Bearer sekrit"}]


class NotJsonResponse(FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


def test_ok_response_that_is_not_json_fails_at_once():
    session = FakeSession([NotJsonResponse(200), FakeResponse(200, {"ok": True})])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert str(exc.value).startswith("test service returned a body that is not JSON: ")
    assert len(session.calls) == 1
