"""Shared-memory export/attach: parity, lifecycle hygiene, leak tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ServeError
from repro.forest import encoding_for
from repro.serve.app import ServeApp
from repro.serve.registry import ModelRegistry
from repro.serve.shm import (
    attach_block,
    attach_model_engine,
    export_block,
    export_model,
    live_segments,
)
from repro.serve.worker import install_shared_model


@pytest.fixture()
def entry(serve_forest):
    return ModelRegistry().add("m", serve_forest)


def _export(entry):
    return export_model(
        entry.model_id, entry.fingerprint, entry.n_features, entry.engine
    )


class TestExportAttach:
    def test_block_round_trip(self):
        arrays = {
            "a": np.arange(7, dtype=np.float64),
            "b": np.arange(12, dtype=np.uint32).reshape(3, 4),
            "empty": np.empty(0, dtype=np.int64),
        }
        block, segment = export_block("t", arrays, {"k": 3})
        try:
            shm, views = attach_block(block)
            assert set(views) == set(arrays)
            for key in arrays:
                np.testing.assert_array_equal(views[key], arrays[key])
                assert views[key].dtype == arrays[key].dtype
                assert not views[key].flags.writeable
            assert block.meta == {"k": 3}
            shm.close()
        finally:
            assert segment.unlink() is True

    def test_offsets_are_aligned(self):
        arrays = {"x": np.ones(3), "y": np.ones(5), "z": np.ones(1)}
        block, segment = export_block("t", arrays, {})
        try:
            assert all(spec.offset % 64 == 0 for spec in block.arrays)
        finally:
            segment.unlink()

    def test_attached_engines_bitwise_identical(self, entry, serve_rows):
        expected = entry.model.predict_raw(serve_rows)
        for name in ("packed", "bitvector"):
            local = encoding_for(entry.model, name)
            bundle, segments = export_model(
                "m", entry.fingerprint, entry.n_features, local
            )
            try:
                attached, shms = attach_model_engine(bundle)
                assert bundle.engine == attached.name == name
                assert bundle.fingerprint == entry.fingerprint
                np.testing.assert_array_equal(
                    attached.predict_raw(serve_rows), expected
                )
                np.testing.assert_array_equal(local.predict_raw(serve_rows), expected)
                for shm in shms:
                    shm.close()
            finally:
                for segment in segments:
                    segment.unlink()

    def test_install_shared_model_serves_predict(self, entry, serve_rows):
        bundle, segments = _export(entry)
        app = ServeApp()
        try:
            installed, shms = install_shared_model(app, bundle)
            assert installed.fingerprint == entry.fingerprint
            scores = installed.predict_raw(serve_rows[:16])
            np.testing.assert_array_equal(
                scores, entry.model.predict_raw(serve_rows[:16])
            )
        finally:
            app.close(drain=True)
            for segment in segments:
                segment.unlink()


class TestLifecycleHygiene:
    def test_live_segments_tracks_ownership(self, entry):
        before = set(live_segments())
        bundle, segments = _export(entry)
        names = {segment.name for segment in segments}
        assert names <= set(live_segments())
        for segment in segments:
            assert segment.unlink() is True
        assert set(live_segments()) == before

    def test_unlink_is_idempotent(self, entry):
        bundle, segments = _export(entry)
        for segment in segments:
            assert segment.unlink() is True
            assert segment.unlink() is False

    def test_attach_after_unlink_fails(self, entry):
        bundle, segments = _export(entry)
        for segment in segments:
            segment.unlink()
        with pytest.raises(FileNotFoundError):
            attach_block(bundle.block)

    def test_export_uses_fresh_segment_names(self, entry):
        first, segments_a = _export(entry)
        second, segments_b = _export(entry)
        try:
            assert first.block.segment != second.block.segment
        finally:
            for segment in segments_a + segments_b:
                segment.unlink()

    def test_missing_engine_exports_none(self):
        bundle, segments = export_model("m", 1, 5, None)
        assert segments == []
        assert bundle.engine is None and bundle.block is None
        assert attach_model_engine(bundle) == (None, [])
        app = ServeApp()
        try:
            with pytest.raises(ServeError, match="no engine state"):
                install_shared_model(app, bundle)
        finally:
            app.close(drain=True)
