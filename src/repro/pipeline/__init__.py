"""End-to-end orchestration: scenario configs, simulation, serialization,
resilient stage running and data-quality reporting."""

from repro._lazy import lazy_exports

# Resolved on first access: importing one pipeline module does not
# import the rest.
__getattr__ = lazy_exports(__name__, {
    "repro.pipeline.config": ("ScenarioConfig",),
    "repro.pipeline.simulation": ("SimulationResult", "run_simulation"),
    "repro.pipeline.datasets": (
        "FeedLoadReport",
        "MalformedRecordError",
        "load_events_jsonl",
        "read_events_jsonl",
        "save_events_jsonl",
    ),
    "repro.pipeline.quality": (
        "DataQualityReport",
        "FeedQuality",
        "HeadlineMetrics",
        "StageReport",
    ),
    "repro.pipeline.runner": (
        "ResilientPipeline",
        "RetryPolicy",
        "StageFailedError",
        "TransientStageError",
    ),
})

__all__ = [
    "ScenarioConfig",
    "SimulationResult",
    "run_simulation",
    "FeedLoadReport",
    "MalformedRecordError",
    "load_events_jsonl",
    "read_events_jsonl",
    "save_events_jsonl",
    "DataQualityReport",
    "FeedQuality",
    "HeadlineMetrics",
    "StageReport",
    "ResilientPipeline",
    "RetryPolicy",
    "StageFailedError",
    "TransientStageError",
]
