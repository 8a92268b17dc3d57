"""Fuzzing ``POST /v1/jobs``: malformed input is a 4xx, never a 500.

Every body goes through :meth:`ServiceApp.handle`, the whole HTTP
surface without a socket.  The inputs are arbitrary bytes, every
truncation of a valid suite and sweep body, and valid bodies with one
field (at any depth) swapped for a JSON value of another type or a
non-finite number.  Whatever the body, the handler must answer without
raising, and never with a 500.  The status long poll's ``wait_s`` (and
the job id beside it) is fuzzed the same way.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.app import ServiceApp
from repro.service.requests import MAX_WAIT_S, request_job_id, validate_request

SUITE_BODY = {
    "kind": "suite",
    "tenant": "public",
    "tag": "fuzz",
    "deadline_s": 30,
    "suite": {
        "ids": ["table2"],
        "fault_plan": {
            "schema": 1,
            "seed": 7,
            "actions": [
                {"site": "executor_job", "exp_id": "table2", "kind": "error",
                 "attempt": 0, "delay_s": 0.0},
            ],
        },
    },
}

SWEEP_BODY = {
    "kind": "sweep",
    "tenant": "public",
    "tag": "fuzz",
    "deadline_s": 30,
    "sweep": {
        "anchor": "sx4",
        "axes": [{"parameter": "vector.pipes", "values": [4, 8]}],
        "include_presets": False,
        "traces": ["hint"],
        "dilation": 1.0,
    },
}

VALID_BODIES = (SUITE_BODY, SWEEP_BODY)


def _paths(value, prefix=()):
    """The path of every field and list element under ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, child in items:
        found.append(prefix + (key,))
        found.extend(_paths(child, prefix + (key,)))
    return found


FIELD_PATHS = [(body, path) for body in VALID_BODIES for path in _paths(body)]

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)  # a JSON integer too large for a float
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def swapped_field_bodies(draw):
    body, path = draw(st.sampled_from(FIELD_PATHS))
    mutated = copy.deepcopy(body)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values | non_finite)
    # json.dumps writes NaN/Infinity, literals the server's parser accepts.
    return json.dumps(mutated).encode("utf-8")


def _truncations():
    for body in VALID_BODIES:
        raw = json.dumps(body).encode("utf-8")
        for n in range(len(raw)):
            yield raw[:n]


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    return ServiceApp(root=tmp_path_factory.mktemp("fuzz") / "cache")


def _assert_answered(app, body):
    response = app.handle("POST", "/v1/jobs", body)
    assert response.status != 500, (body[:200], response.body[:300])
    if 400 <= response.status < 500:
        assert "error" in json.loads(response.body)


def test_valid_bodies_are_admitted(app):
    for body in VALID_BODIES:
        assert app.handle("POST", "/v1/jobs", json.dumps(body).encode()).status == 202


def test_every_truncation_is_a_400(app):
    for body in _truncations():
        response = app.handle("POST", "/v1/jobs", body)
        assert response.status == 400, body
        assert json.loads(response.body)["reason"] == "bad_request"


@settings(max_examples=300, deadline=None)
@given(
    body=st.binary(max_size=200)
    | st.sampled_from(list(_truncations()))
    | swapped_field_bodies()
)
def test_submit_never_answers_500(app, body):
    _assert_answered(app, body)


SUITE_JOB_ID = request_job_id(validate_request(SUITE_BODY))

status_targets = st.builds(
    "/v1/jobs/{}?wait_s={}".format,
    st.sampled_from([SUITE_JOB_ID, "f" * 64])
    | st.text(st.characters(blacklist_characters="/?&#"), max_size=70),
    st.text(max_size=12)
    | st.floats().map(repr)
    | st.integers().map(str)
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0"]),
)


@settings(max_examples=300, deadline=None)
@given(target=status_targets)
def test_status_wait_never_answers_500(app, target):
    response = app.handle("GET", target)
    assert 200 <= response.status < 500, (target, response.body[:300])
    poll = app.long_poll("GET", target)
    if poll is not None:
        assert response.status != 400
        assert 0 <= poll[2] <= MAX_WAIT_S
