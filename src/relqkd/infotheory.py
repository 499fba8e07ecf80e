"""Discrete information-theoretic quantities used by the security analysis.

All entropies and informations are in bits (log base 2).  The Holevo
quantity is implemented for commuting ensembles only -- simultaneously
diagonal density matrices described by their spectra -- which covers every
ensemble appearing in this protocol and keeps the computation to Shannon
entropies of the eigenvalue lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_TOL = 1e-9


@dataclass(frozen=True)
class ClassicalChannel:
    """Finite input/output channel: priors and a row-stochastic matrix."""

    priors: np.ndarray
    conditional: np.ndarray   # rows = inputs, columns = outcomes

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        cond = np.asarray(self.conditional, dtype=float)
        if priors.ndim != 1 or cond.ndim != 2 or cond.shape[0] != priors.size:
            raise InvalidParameterError("channel shapes are inconsistent")
        if np.any(priors < -1e-12) or abs(priors.sum() - 1.0) > _TOL:
            raise InvalidParameterError("priors must be a probability vector")
        if np.any(cond < -1e-12) or np.any(cond > 1.0 + 1e-12):
            raise InvalidParameterError("conditional entries must lie in [0, 1]")
        if np.any(np.abs(cond.sum(axis=1) - 1.0) > _TOL):
            raise InvalidParameterError("every conditional row must sum to 1")
        priors.setflags(write=False)
        cond.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "conditional", cond)


def shannon_entropy(p) -> float:
    """Shannon entropy in bits with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def mutual_information(channel: ClassicalChannel) -> float:
    """I(input; outcome) in bits for one fixed measurement."""
    joint = channel.priors[:, None] * channel.conditional
    marg = joint.sum(axis=0)
    nz = joint > 0.0
    ratio = np.where(nz, joint / np.where(nz, channel.priors[:, None] * marg[None, :], 1.0), 1.0)
    return float(np.sum(joint[nz] * np.log2(ratio[nz])))


def eve_channel(f: float) -> ClassicalChannel:
    """Three-outcome channel induced by the restricted-domain measurement.

    Equiprobable input bits; the apparatus fires on the correct outcome with
    probability ``f`` and stays silent otherwise.
    """
    if not (0.0 <= f <= 1.0):
        raise InvalidParameterError(f"available fraction must lie in [0, 1], got {f}")
    cond = np.array([
        [f, 0.0, 1.0 - f],
        [0.0, f, 1.0 - f],
    ])
    return ClassicalChannel(priors=np.array([0.5, 0.5]), conditional=cond)


def holevo_quantity(priors, spectra) -> float:
    """Holevo bound for a commuting ensemble given by its spectra.

    Each row of ``spectra`` is the eigenvalue list of one density matrix in
    the common eigenbasis; the bound is S(sum_i pi_i rho_i) - sum_i pi_i
    S(rho_i) with S the Shannon entropy of the spectrum.
    """
    priors = np.asarray(priors, dtype=float)
    spectra = np.asarray(spectra, dtype=float)
    if priors.ndim != 1 or spectra.ndim != 2 or spectra.shape[0] != priors.size:
        raise InvalidParameterError("priors and spectra shapes are inconsistent")
    if np.any(priors < -1e-12) or abs(priors.sum() - 1.0) > _TOL:
        raise InvalidParameterError("priors must be a probability vector")
    if np.any(spectra < -1e-12):
        raise InvalidParameterError("spectra must be non-negative")
    if np.any(np.abs(spectra.sum(axis=1) - 1.0) > _TOL):
        raise InvalidParameterError("every spectrum must sum to 1")
    mixture = priors @ spectra
    return shannon_entropy(mixture) - float(
        np.sum(priors * np.array([shannon_entropy(row) for row in spectra]))
    )

