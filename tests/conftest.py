import tracemalloc
from pathlib import Path

import pytest

import fixture_factory as ff


@pytest.fixture(scope="session")
def pipeline_fixture_dir(tmp_path_factory) -> Path:
    """The bundled demo dataset, materialized once per session."""
    target = tmp_path_factory.mktemp("fortune")
    ff.write_pipeline_fixture(target)
    return target


@pytest.fixture(scope="session")
def pipeline_config_path(pipeline_fixture_dir: Path) -> Path:
    return pipeline_fixture_dir / "pipeline.yaml"


@pytest.fixture(scope="session")
def fortune(request):
    return ff.fortune_fixture()


@pytest.fixture(scope="session")
def reference_schema():
    return ff.reference_schema()


@pytest.fixture(scope="session")
def domain_schema():
    return ff.domain_schema()


@pytest.fixture(scope="session")
def pipeline_run(pipeline_config_path: Path):
    """One full pipeline run shared by the tests that inspect its output."""
    from ontogen import pipeline

    config = pipeline.PipelineConfig.from_file(pipeline_config_path)
    result = pipeline.run(config)
    return config, result


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args)` calls fn(*args) under tracemalloc and returns
    (result, peak, held): the call's peak and the memory it still holds at
    return (its result), both in bytes above the heap traced at its start."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - start, held - start

    return measure
