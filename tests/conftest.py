"""Shared test setup: every test starts with empty trace memos."""

import importlib

import pytest

# The package attributes `traces` and `radon` are functions, not modules.
TRACES = importlib.import_module("residualtrace.traces")
RADON = importlib.import_module("residualtrace.radon")


@pytest.fixture(autouse=True)
def empty_trace_memos():
    TRACES._fiber_traces.cache_clear()
    RADON._chart_traces.cache_clear()


@pytest.fixture
def trace_streams(monkeypatch) -> list:
    """Each (p, r, count) the traces module runs `trace_stream` on from now."""
    honest = TRACES.trace_stream
    streams = []

    def counting(r, p, count):
        streams.append((p, r, count))
        return honest(r, p, count)

    monkeypatch.setattr(TRACES, "trace_stream", counting)
    return streams
