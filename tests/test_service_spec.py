"""Tests for the campaign spec model and its content address.

The result store keys on :meth:`CampaignSpec.spec_hash`, so the hash
must be (a) stable across every equivalent phrasing of the same
campaign — dict key order, citadel's implied mitigations, float vs int
literals — and (b) sensitive to anything that changes the Monte-Carlo
outcome (seed, shard size, geometry).  Hypothesis drives the key-order
property over randomly generated spec documents.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.service.jobs import (
    CITADEL_DEFAULT_STANDBY_TSVS,
    GEOMETRY_FIELDS,
    SPEC_SCHEMA_VERSION,
    CampaignSpec,
    Job,
    JobState,
    clone_spec,
)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CampaignSpec()
        assert spec.scheme == "citadel"
        assert spec.trials == 20000

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scheme": "nope"},
            {"trials": 0},
            {"trials": -5},
            {"scale": 0},
            {"tsv_fit": -1.0},
            {"tsv_swap": -1},
            {"scrub_hours": 0.0},
            {"scrub_hours": -12.0},
            {"shard_size": 0},
            {"sampling": "nope"},
            {"sampling": "IMPORTANCE"},
            {"target_ci_width": 0.0},
            {"target_ci_width": -0.01},
            {"target_ci_width": True},
            {"target_ci_width": "0.01"},
            {"geometry": {"not_a_field": 2}},
            {"geometry": {"data_dies": 0}},
            {"geometry": {"data_dies": 2.5}},
            {"tsv_swap": 0},
            {"tsv_swap": 3},
            {"tsv_swap": 300},
            {"scheme": "citadel", "geometry": {"data_tsvs_per_channel": 2}},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(SpecError):
            CampaignSpec(**overrides)

    def test_tsv_swap_range_follows_the_spec_geometry(self):
        with pytest.raises(SpecError, match=r"out of range \(0, 256\]"):
            CampaignSpec(scheme="3dp", tsv_swap=300)
        assert CampaignSpec(scheme="3dp", tsv_swap=256).tsv_swap == 256
        assert CampaignSpec(
            scheme="3dp", tsv_swap=512,
            geometry={"data_tsvs_per_channel": 512},
        ).tsv_swap == 512

    def test_unknown_sampling_names_the_valid_methods(self):
        with pytest.raises(SpecError, match="unknown sampling method"):
            CampaignSpec(sampling="antithetic")
        with pytest.raises(SpecError, match="stratified"):
            CampaignSpec.from_dict({"sampling": "antithetic"})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            CampaignSpec.from_dict({"scheme": "secded", "workers": 4})
        # The engine picks the batch path itself, so a document that
        # still asks for it is rejected, not given a second address.
        with pytest.raises(SpecError, match="unknown spec field"):
            CampaignSpec.from_dict({"scheme": "citadel", "batch": True})

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(SpecError, match="schema"):
            CampaignSpec.from_dict({"schema": SPEC_SCHEMA_VERSION + 1})

    def test_from_dict_rejects_non_boolean_flags(self):
        with pytest.raises(SpecError, match="dds"):
            CampaignSpec.from_dict({"scheme": "3dp", "dds": 1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            CampaignSpec.from_dict(["not", "a", "dict"])


class TestCanonicalization:
    def test_citadel_bakes_in_mitigations(self):
        spec = CampaignSpec(scheme="citadel")
        assert spec.tsv_swap == CITADEL_DEFAULT_STANDBY_TSVS
        assert spec.dds is True

    def test_citadel_phrasings_hash_identically(self):
        implicit = CampaignSpec(scheme="citadel")
        explicit = CampaignSpec(
            scheme="citadel",
            tsv_swap=CITADEL_DEFAULT_STANDBY_TSVS,
            dds=True,
        )
        assert implicit.spec_hash() == explicit.spec_hash()

    def test_citadel_respects_explicit_tsv_swap(self):
        spec = CampaignSpec(scheme="citadel", tsv_swap=8)
        assert spec.tsv_swap == 8
        assert spec.spec_hash() != CampaignSpec(scheme="citadel").spec_hash()

    def test_geometry_key_order_is_irrelevant(self):
        a = CampaignSpec(geometry={"data_dies": 4, "banks_per_die": 8})
        b = CampaignSpec(geometry={"banks_per_die": 8, "data_dies": 4})
        assert a.spec_hash() == b.spec_hash()

    def test_default_spec_hash_is_pinned(self):
        # Content addresses of filed results must survive refactors of
        # the spec's fields.
        assert CampaignSpec().spec_hash() == (
            "1c4f4f033344fb512229155b9c4dd4cd599a5ef82a5e65758c4a63048db0ea7a"
        )

    def test_canonical_json_is_byte_stable(self):
        spec = CampaignSpec(scheme="secded", trials=500, seed=9)
        assert spec.canonical_json() == spec.canonical_json()
        # Sorted keys, compact separators: re-encoding the parsed form
        # the same way reproduces the exact bytes.
        parsed = json.loads(spec.canonical_json())
        assert (
            json.dumps(parsed, sort_keys=True, separators=(",", ":"))
            == spec.canonical_json()
        )

    def test_roundtrip_through_from_dict(self):
        spec = CampaignSpec(
            scheme="3dp",
            trials=1234,
            scale=3,
            tsv_fit=50.0,
            seed=7,
            geometry={"data_dies": 4},
        )
        again = CampaignSpec.from_dict(spec.canonical_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 1},
            {"shard_size": 123},
            {"trials": 19999},
            {"scale": 2},
            {"tsv_fit": 1.0},
            {"scrub_hours": 24.0},
            {"modes": True},
            {"sampling": "stratified"},
            {"sampling": "importance"},
            {"target_ci_width": 0.01},
            {"geometry": {"data_dies": 4}},
        ],
    )
    def test_outcome_affecting_knobs_change_the_hash(self, overrides):
        base = CampaignSpec(scheme="secded")
        assert clone_spec(base, **overrides).spec_hash() != base.spec_hash()

    def test_sampling_fields_flow_into_engine_config(self):
        spec = CampaignSpec(sampling="importance", target_ci_width=0.02)
        config = spec.engine_config()
        assert config.sampling == "importance"
        assert config.target_ci_width == 0.02

    def test_target_ci_width_coerced_to_float(self):
        # An int width is a valid phrasing; the canonical form is float,
        # so both phrasings share one content address.
        spec = CampaignSpec(target_ci_width=1)
        assert isinstance(spec.target_ci_width, float)
        assert spec.spec_hash() == CampaignSpec(target_ci_width=1.0).spec_hash()

    def test_execution_params_are_not_spec_fields(self):
        # Workers/priority/retries live on the Job, not the spec: an
        # 8-worker and a 1-worker submission share one cache entry.
        field_names = {f.name for f in dataclasses.fields(CampaignSpec)}
        assert field_names.isdisjoint({"workers", "priority", "max_retries"})

    def test_effective_trials_scales_down(self):
        assert CampaignSpec(trials=3000, scale=10).effective_trials == 300
        assert CampaignSpec(trials=5, scale=100).effective_trials == 1


#: Geometry overrides drawn from the real StackGeometry field names.
geometry_dicts = st.dictionaries(
    st.sampled_from(GEOMETRY_FIELDS),
    st.integers(min_value=1, max_value=16),
    max_size=3,
)

spec_documents = st.fixed_dictionaries(
    {},
    optional={
        "scheme": st.sampled_from(["citadel", "3dp", "secded", "raid5"]),
        "trials": st.integers(min_value=1, max_value=10**6),
        "scale": st.integers(min_value=1, max_value=100),
        "tsv_fit": st.floats(min_value=0, max_value=1e4, allow_nan=False),
        "dds": st.booleans(),
        "seed": st.integers(min_value=-(2**31), max_value=2**31),
        "shard_size": st.integers(min_value=1, max_value=10**5),
        "modes": st.booleans(),
        "sampling": st.sampled_from(["naive", "stratified", "importance"]),
        "target_ci_width": st.one_of(
            st.none(),
            st.floats(
                min_value=1e-9, max_value=1.0, allow_nan=False,
                allow_infinity=False,
            ),
        ),
        "geometry": geometry_dicts,
    },
)


class TestHashKeyOrderProperty:
    @given(document=spec_documents, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_spec_hash_ignores_dict_key_order(self, document, data):
        """Content address is invariant under any permutation of the
        submitted document's keys (including nested geometry keys).
        Acceptance is invariant too: a document rejected in one key
        order (say, a geometry the stand-by count does not fit) is
        rejected in every order."""
        keys = data.draw(st.permutations(list(document)))
        shuffled = {key: document[key] for key in keys}
        if isinstance(shuffled.get("geometry"), dict):
            geo_keys = data.draw(st.permutations(list(shuffled["geometry"])))
            shuffled["geometry"] = {
                key: shuffled["geometry"][key] for key in geo_keys
            }
        try:
            reference = CampaignSpec.from_dict(document)
        except SpecError:
            with pytest.raises(SpecError):
                CampaignSpec.from_dict(shuffled)
            return
        assert CampaignSpec.from_dict(shuffled).spec_hash() == (
            reference.spec_hash()
        )

    @given(document=spec_documents)
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_preserves_the_hash(self, document):
        try:
            spec = CampaignSpec.from_dict(document)
        except SpecError:
            return  # an invalid geometry or stand-by count has no hash
        rehydrated = CampaignSpec.from_dict(json.loads(spec.canonical_json()))
        assert rehydrated.spec_hash() == spec.spec_hash()


class TestJobModel:
    def test_lifecycle_states(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal

    def test_to_dict_is_json_ready(self):
        job = Job(id="j1", spec=CampaignSpec(scheme="secded"))
        document = json.loads(json.dumps(job.to_dict()))
        assert document["id"] == "j1"
        assert document["state"] == "queued"
        assert document["spec_hash"] == job.spec.spec_hash()
        assert document["cache_hit"] is False

    def test_job_validates_workers(self):
        from repro.errors import ContractViolation

        with pytest.raises(ContractViolation):
            Job(id="j1", spec=CampaignSpec(), workers=0)
