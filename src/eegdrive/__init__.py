"""EEG driving-intention decoding benchmark toolkit.

Pipeline: session ingestion, rule-based multi-horizon labelling from
joystick telemetry, PREP-style preprocessing, leakage-free temporal
splitting and windowing, from-scratch classifier training, and per-horizon
benchmark reports. A seeded synthetic session generator makes the whole
chain verifiable end to end.
"""

__version__ = "0.1.0"
