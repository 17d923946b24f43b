"""Deterministic simulator and analytics toolkit for a phonon-routing
bucket-brigade QRAM: wavepacket distortion, time-domain router dynamics,
gate-level query simulation, loss/dephasing error accounting, and pipelined
routing schedules."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InvalidParameterError,
    NumericalFailureError,
    PhononQramError,
    ResolutionError,
)
from .qram_types import DataMode, Encoding
from .wavepackets import (
    PulseShape,
    ReflectionResponse,
    WavePacket,
    distortion_fidelity,
)
from .router import RouterSimConfig, RouterSimResult, Source, simulate_routing
from .qram import DataRegister, QramConfig, QueryResult, query
from .noise import NoiseModel, TrajectoryVerdict, estimate_success_prob
from .scheduling import Schedule, build_schedule, residence_intervals
from .analytics import HeraldingReport, heralding_report, query_time

__all__ = [
    "__version__",
    "ConfigError", "InvalidParameterError", "NumericalFailureError",
    "PhononQramError", "ResolutionError",
    "DataMode", "Encoding",
    "PulseShape", "ReflectionResponse", "WavePacket", "distortion_fidelity",
    "RouterSimConfig", "RouterSimResult", "Source", "simulate_routing",
    "DataRegister", "QramConfig", "QueryResult", "query",
    "NoiseModel", "TrajectoryVerdict", "estimate_success_prob",
    "Schedule", "build_schedule", "residence_intervals",
    "HeraldingReport", "heralding_report", "query_time",
]
