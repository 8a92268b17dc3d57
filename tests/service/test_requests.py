"""Tests for canonical requests and deterministic job ids."""

import json

import pytest

from repro.service.requests import (
    RequestError,
    request_bytes,
    request_job_id,
    validate_request,
)


class TestValidation:
    def test_minimal_suite(self):
        request = validate_request({"kind": "suite"})
        assert request["kind"] == "suite"
        assert request["tenant"] == "public"
        assert request["suite"] == {"ids": []}
        assert request["tag"] == ""

    def test_suite_subset_preserves_order(self):
        request = validate_request(
            {"kind": "suite", "suite": {"ids": ["figure6", "table2"]}}
        )
        assert request["suite"]["ids"] == ["figure6", "table2"]

    def test_sweep_defaults_made_explicit(self):
        request = validate_request({"kind": "sweep"})
        assert request["sweep"] == {
            "anchor": "sx4",
            "axes": [],
            "include_presets": False,
            "traces": [],
            "dilation": 1.0,
        }

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            validate_request([1, 2, 3])

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown job kind"):
            validate_request({"kind": "teleport"})

    def test_unknown_experiment_rejected_before_job_exists(self):
        with pytest.raises(RequestError, match="unknown experiment"):
            validate_request({"kind": "suite", "suite": {"ids": ["nope"]}})

    def test_unknown_trace_rejected(self):
        with pytest.raises(RequestError, match="unknown trace"):
            validate_request({"kind": "sweep", "sweep": {"traces": ["nope"]}})

    def test_bad_axis_shape_rejected(self):
        with pytest.raises(RequestError, match="axis"):
            validate_request({"kind": "sweep", "sweep": {"axes": [{"values": [1]}]}})

    def test_unknown_axis_parameter_rejected(self):
        with pytest.raises(RequestError, match="parameter"):
            validate_request(
                {"kind": "sweep",
                 "sweep": {"axes": [{"parameter": "warp.factor", "values": [9.0]}]}}
            )

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"dilation": "abc"}, "dilation"),
            ({"dilation": [1]}, "dilation"),
            ({"dilation": True}, "dilation"),
            ({"dilation": 0.5}, "dilation"),
            ({"dilation": float("nan")}, "dilation"),
            ({"dilation": float("inf")}, "dilation"),
            ({"dilation": 10**400}, "dilation"),  # too large for a float
            ({"traces": 5}, "traces"),
            ({"traces": "copy"}, "traces"),
            ({"traces": ["copy", 5]}, "traces"),
            ({"anchor": "cray-2"}, "anchor"),
            ({"anchor": ["sx4"]}, "anchor"),
            ({"axes": [{"parameter": "vector.pipes", "values": [10**400]}]}, "axis"),
            ({"axes": [{"parameter": "vector.pipes", "values": [float("inf")]}]}, "finite"),
            ({"axes": [{"parameter": "vector.pipes", "values": "48"}]}, "list"),
            ({"include_presets": "false"}, "include_presets"),
        ],
    )
    def test_malformed_sweep_rejected(self, sweep, message):
        with pytest.raises(RequestError, match=message):
            validate_request({"kind": "sweep", "sweep": sweep})

    def test_nan_dilation_from_json_rejected(self):
        # Python's json module accepts the non-standard NaN literal.
        body = json.loads('{"kind": "sweep", "sweep": {"dilation": NaN}}')
        with pytest.raises(RequestError, match="finite"):
            validate_request(body)

    def test_integer_dilation_and_known_anchor_admitted(self):
        request = validate_request(
            {"kind": "sweep", "sweep": {"anchor": "j90", "dilation": 2}}
        )
        assert request["sweep"]["anchor"] == "j90"
        assert request["sweep"]["dilation"] == 2.0

    def test_invalid_fault_plan_rejected(self):
        with pytest.raises(RequestError, match="fault plan"):
            validate_request(
                {"kind": "suite", "suite": {"fault_plan": {"actions": "nope"}}}
            )

    @pytest.mark.parametrize(
        "fault_plan",
        [[], {"schema": 1, "seed": 1e400, "actions": []}],
        ids=["not-an-object", "infinite-seed"],
    )
    def test_mistyped_fault_plan_rejected(self, fault_plan):
        with pytest.raises(RequestError, match="fault plan"):
            validate_request({"kind": "suite", "suite": {"fault_plan": fault_plan}})

    def test_non_finite_fault_delay_rejected(self):
        plan = {"schema": 1, "seed": 1, "actions": [
            {"site": "executor_job", "exp_id": "table2", "kind": "slow",
             "delay_s": float("nan")}]}
        with pytest.raises(RequestError):
            validate_request({"kind": "suite", "suite": {"fault_plan": plan}})

    def test_unhashable_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown job kind"):
            validate_request({"kind": ["suite"]})


class TestJobIds:
    def test_identical_bodies_same_id(self):
        a = validate_request({"kind": "suite", "suite": {"ids": ["table2"]}})
        b = validate_request({"kind": "suite", "suite": {"ids": ["table2"]}})
        assert request_job_id(a) == request_job_id(b)

    def test_sparse_and_explicit_bodies_collide(self):
        # Filling in a default by hand is the same request.
        sparse = validate_request({"kind": "sweep"})
        explicit = validate_request(
            {"kind": "sweep",
             "sweep": {"anchor": "sx4", "axes": [], "include_presets": False,
                       "traces": [], "dilation": 1.0}}
        )
        assert request_job_id(sparse) == request_job_id(explicit)

    def test_different_work_different_id(self):
        a = validate_request({"kind": "suite", "suite": {"ids": ["table2"]}})
        b = validate_request({"kind": "suite", "suite": {"ids": ["figure6"]}})
        assert request_job_id(a) != request_job_id(b)

    def test_id_order_is_part_of_identity(self):
        a = validate_request({"kind": "suite", "suite": {"ids": ["table2", "figure6"]}})
        b = validate_request({"kind": "suite", "suite": {"ids": ["figure6", "table2"]}})
        assert request_job_id(a) != request_job_id(b)

    def test_tag_varies_id_without_changing_work(self):
        a = validate_request({"kind": "suite", "tag": "run-1"})
        b = validate_request({"kind": "suite", "tag": "run-2"})
        assert a["suite"] == b["suite"]
        assert request_job_id(a) != request_job_id(b)

    def test_id_is_a_valid_chunk_key(self):
        job_id = request_job_id(validate_request({"kind": "suite"}))
        assert len(job_id) == 64
        assert set(job_id) <= set("0123456789abcdef")

    def test_canonical_bytes_are_sorted_and_compact(self):
        raw = request_bytes(validate_request({"kind": "suite"}))
        assert b" " not in raw
        assert raw == request_bytes(validate_request({"kind": "suite"}))
