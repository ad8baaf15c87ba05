"""Chirp-modulation multipath detection library and simulation harness.

Layers, bottom up: waveform (chirps, dechirping, the DFT),
channel (multipath model, frames, noise), detectors (matched filter,
tap combining, candidate pruning, pilot correlation), estimator (pilot
based path detection), complexity (operation counts), simulate (Monte
Carlo drivers), fastsim (simulate_ser, one rake trial of the sweep, and
statistic-domain reference forms), cli (command line front end). The
package namespace holds the core pipeline names; everything else is
imported from its module.
"""

from .channel import (
    MultipathChannel,
    add_awgn,
    apply_channel,
    build_frame,
    dechirped_gain,
    parse_channel,
)
from .complexity import op_count
from .detectors import auto_cross_correlation, mf_statistic, rake_statistic
from .estimator import average_pilot_dft, detect_paths
from .fastsim import build_fast_sim, simulate_ser
from .simulate import SimConfig, run_delta_report, run_ser_sweep
from .waveform import LoRaParams, dechirp, dft, noise_variance, snr_ebn0_convert

__version__ = "0.1.0"

__all__ = [
    "LoRaParams",
    "MultipathChannel",
    "SimConfig",
    "add_awgn",
    "apply_channel",
    "auto_cross_correlation",
    "average_pilot_dft",
    "build_fast_sim",
    "build_frame",
    "dechirp",
    "dechirped_gain",
    "detect_paths",
    "dft",
    "mf_statistic",
    "noise_variance",
    "op_count",
    "parse_channel",
    "rake_statistic",
    "run_delta_report",
    "run_ser_sweep",
    "simulate_ser",
    "snr_ebn0_convert",
]
