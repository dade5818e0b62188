from __future__ import annotations

import pytest
import requests

from adagate.errors import TransportError
from adagate.transport import post_json

from helpers import FakeResponse, FakeSession


def _post(session: FakeSession) -> dict:
    return post_json(
        session, "http://svc/x", {"q": 1}, key_env="ADAGATE_TEST_KEY", timeout=1.0, max_attempts=3, service="test service"
    )


def test_non_retriable_status_fails_after_one_request():
    session = FakeSession([FakeResponse(400, {"error": "bad"}), FakeResponse(200, {"ok": True})])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert (exc.value.retriable, exc.value.attempts) == (False, 1)
    assert str(exc.value).startswith("test service returned 400: ")
    assert len(session.calls) == 1


def test_connection_error_is_retried():
    session = FakeSession([requests.ConnectionError("reset"), FakeResponse(200, {"ok": True})])
    assert _post(session) == {"ok": True}
    assert len(session.calls) == 2


def test_retries_exhausted_names_service_and_last_error():
    session = FakeSession([FakeResponse(503), requests.Timeout("slow"), FakeResponse(429)])
    with pytest.raises(TransportError) as exc:
        _post(session)
    assert (exc.value.retriable, exc.value.attempts) == (True, 3)
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
    assert (exc.value.retriable, exc.value.attempts) == (False, 1)
    assert str(exc.value).startswith("test service returned a body that is not JSON: ")
    assert len(session.calls) == 1
