"""Honest source / fiber / detector model producing the observed statistics.

The model assembles the probabilities that a signal emitted with
Poissonian photon number ends up as a kept detection event, the total and
single-photon error rates, and the single-photon loss fraction that feeds
the relaxed reduced-state constraint.  The variant enters only through its
row of the receiver table, ``ProtocolConfig.receiver``: the shares of the
light that reach a detector and land in a kept slot.  ``honest_statistics``
splits the model at the mean photon number: what depends only on the
distance is computed once, and the function it returns adds the Poisson
aggregates for each mu.

Conventions (one defensible reading of an under-specified simulation; see
the package README):

* threshold detectors with independent-photon loss statistics,
  detecting n photons with probability 1 - (1 - eta_sys)^n;
* dark counts add 2*y0 on otherwise empty slots, and contribute errors with
  weight 1/2; true detections err with the misalignment probability e_d;
* double clicks and cross clicks do not occur in the honest model;
* outside clicks count as arrived (not lost) for the loss fraction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .protocol import ProtocolConfig


class _ParamFields(NamedTuple):
    alpha_db_per_km: float
    eta_det: float
    y0: float
    e_d: float
    f_ec: float


class ChannelParams(_ParamFields):
    """Fiber, detector and error-correction parameters of the honest setup.

    The operating point, distance and mean photon number, is not a
    parameter: scans vary the one and optimize the other.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in PRESET_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha_db_per_km < 0:
            raise ValueError(f"alpha_db_per_km must be nonnegative, got {self.alpha_db_per_km!r}")
        if not 0.0 <= self.y0 <= 0.5:  # empty slots click with probability 2 y0
            raise ValueError(f"y0 must be in [0, 0.5], got {self.y0!r}")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError(f"eta_det must be in (0, 1], got {self.eta_det!r}")
        if not 0.0 <= self.e_d < 0.5:
            raise ValueError(f"e_d must be in [0, 0.5), got {self.e_d!r}")
        if self.f_ec < 1.0:
            raise ValueError(f"f_ec must be >= 1, got {self.f_ec!r}")
        return self


PRESET_FIELDS = ChannelParams._fields


def default_params() -> ChannelParams:
    """Named preset with typical fiber-experiment values.

    alpha = 0.21 dB/km, eta_det = 0.045, y0 = 1.7e-6, e_d = 0.033,
    f_ec = 1.22.  These are overridable inputs, not asserted constants.
    """
    return ChannelParams(alpha_db_per_km=0.21, eta_det=0.045, y0=1.7e-6, e_d=0.033, f_ec=1.22)


def parse_params(text: str) -> ChannelParams:
    """Parse the flat key=value preset format.

    Recognized keys are the ChannelParams fields; unknown keys are
    rejected and missing keys fall back to the default preset.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"preset line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PRESET_FIELDS:
            raise ValueError(f"preset line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"preset line {lineno}: duplicate key {key!r}")
        values[key] = float(value.strip())
    return default_params()._replace(**values)


def load_params(path) -> ChannelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_params(fh.read())


class ObservedStats(NamedTuple):
    """Per-signal click and error statistics; p_click_s is the single-photon share."""

    p_click_s: float
    p_click_total: float
    q_tot: float
    q_single: float
    p_lost: float


def transmittance(params: ChannelParams, distance_km: float) -> float:
    """Fiber transmission 10^(-alpha L / 10)."""
    return 10.0 ** (-params.alpha_db_per_km * distance_km / 10.0)


def honest_statistics(cfg: ProtocolConfig, params: ChannelParams,
                      distance_km: float) -> Callable[[float], ObservedStats]:
    """Observed statistics of the honest (eavesdropper-free) setup at one distance,
    as a function ``at(mu)`` of the mean photon number.

    With eta_sys = eta_ch * eta_det * kept fraction, a kept n-photon signal
    fires with D_n = A_n + 2 y0 (1 - A_n), A_n = 1 - (1 - eta_sys)^n, and
    errs with weight e_d A_n + y0 (1 - A_n).  Aggregation over the Poisson
    split has the closed forms used below.  The single-photon error rate is
    q = (e_d eta_sys + y0) / (eta_sys + 2 y0), and the loss fraction uses
    the survival factor only (outside clicks count as arrived).  Everything
    that does not depend on mu (eta_sys, d1, q_single and p_lost) is
    computed here, once; ``at`` adds the Poisson aggregates.  Raises
    ValueError unless the distance is finite and nonnegative, and ``at``
    unless mu is finite and positive.
    """
    if not 0.0 <= distance_km < math.inf:
        raise ValueError(f"distance must be finite and nonnegative, got {distance_km!r}")
    eta_ch = transmittance(params, distance_km)
    receiver = cfg.receiver
    eta_sys = eta_ch * params.eta_det * receiver.kept
    y0 = params.y0
    e_d = params.e_d
    d_1 = eta_sys + 2.0 * y0 * (1.0 - eta_sys)
    q_single = (e_d * eta_sys + y0) / (eta_sys + 2.0 * y0) if eta_sys + y0 > 0.0 else 0.5
    p_lost = 1.0 - eta_ch * params.eta_det * receiver.survival

    def at(mu: float) -> ObservedStats:
        if not 0.0 < mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {mu!r}")
        no_photon = math.exp(-mu * eta_sys)  # sum_n poisson(n) (1-eta)^n
        p_click_total = (1.0 - no_photon) + 2.0 * y0 * no_photon
        err_total = e_d * (1.0 - no_photon) + y0 * no_photon
        return ObservedStats(
            p_click_s=mu * math.exp(-mu) * d_1,
            p_click_total=p_click_total,
            q_tot=err_total / p_click_total if p_click_total > 0.0 else 0.5,
            q_single=q_single,
            p_lost=p_lost,
        )

    return at
