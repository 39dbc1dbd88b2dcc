"""End-to-end orchestration: scenario configs, simulation, serialization,
resilient stage running and data-quality reporting."""

from repro.pipeline.config import ScenarioConfig
from repro.pipeline.simulation import SimulationResult, run_simulation
from repro.pipeline.datasets import (
    FeedLoadReport,
    MalformedRecordError,
    load_events_jsonl,
    read_events_jsonl,
    save_events_jsonl,
)
from repro.pipeline.quality import (
    DataQualityReport,
    FeedQuality,
    HeadlineMetrics,
    RecordQuality,
    StageReport,
)
from repro.pipeline.runner import (
    ResilientPipeline,
    RetryPolicy,
    StageFailedError,
    TransientStageError,
)

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
    "RecordQuality",
    "StageReport",
    "ResilientPipeline",
    "RetryPolicy",
    "StageFailedError",
    "TransientStageError",
]
