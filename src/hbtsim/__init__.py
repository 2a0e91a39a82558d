"""Stochastic wave-optics simulation of geometric-phase intensity interferometry.

Two mutually incoherent, constant-modulus (phase-noise-only) light sources
feed a polarized Mach-Zehnder bench; intensity cross correlations between
the two detectors pick up a Pancharatnam phase equal to half the solid
angle enclosed by the polariser loop on the Poincaré sphere, while the
self correlations and the mean intensities do not.  The package provides
the geometry (``poincare``), the sources (``source``), the bench
(``bench``), correlation estimators (``correlate``), closed-form
predictions (``oracle``), end-to-end runs (``pipeline``) and the ``hbt``
command-line driver (``cli``).
"""

from .bench import (
    BenchConfig,
    DetectorTraces,
    load_detector_traces,
    mean_intensity,
    propagate,
    save_detector_traces,
)
from .correlate import (
    CorrelationResult,
    first_order_coherence,
    g2_cross,
    g2_delay_scan,
    g2_self,
    scan,
)
from .errors import (
    ConfigError,
    DegenerateGeodesicError,
    IncompatibleTracesError,
    InsufficientDataError,
    OffGridDelayError,
    TraceFormatError,
)
from .oracle import (
    AuditTerm,
    audit_survivor_sum,
    no_jump_probability,
    predict_g2,
    predict_g2_cross,
    predict_g2_self,
    solid_angle_of_setup,
    term_audit,
)
from .pipeline import (
    PointEstimates,
    detector_streams,
    estimate_point,
    simulate_detectors,
)
from .poincare import (
    LEFT_CIRCULAR,
    RIGHT_CIRCULAR,
    PolarizationState,
    Projector,
    SpherePoint,
    linear_state,
    pancharatnam_phase,
    polygon_solid_angle,
    projector_of,
    state_overlap,
    to_sphere,
)
from .source import (
    FieldTrace,
    PhaseNoiseConfig,
    default_source_config,
    generate_trace,
    phase_jump_process,
    sample_dwell,
    truncated_dwell_mean,
)

__version__ = "0.1.0"
