"""Diatomic molecule presets and spectroscopic-to-atomic unit conversion.

All solver code works in Hartree atomic units; this module is the only
place unit conversion happens.  Conversion factors are pinned CODATA-2018
values and reduced masses come from NIST atomic masses of the most
abundant isotopes (the sources that published well depths and bond
lengths rarely state masses, so provenance is recorded per preset).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .system import SystemParams, make_params

__all__ = [
    "MoleculePreset",
    "HARTREE_PER_EV",
    "BOHR_RADIUS_ANGSTROM",
    "ELECTRON_MASSES_PER_AMU",
    "ATOMIC_MASS_CS133",
    "ATOMIC_MASS_LI7",
    "ATOMIC_MASS_SI28",
    "ATOMIC_MASS_SN120",
    "get_preset",
    "load_presets",
    "raw_number_params",
    "to_atomic_units",
]

# CODATA-2018 conversion constants.
HARTREE_PER_EV = 0.036749322176          # 1 eV in hartree
BOHR_RADIUS_ANGSTROM = 0.529177210903    # 1 bohr in angstrom
ELECTRON_MASSES_PER_AMU = 1822.888486209  # 1 unified amu in electron masses

# NIST atomic masses (unified amu), most abundant isotopes.
ATOMIC_MASS_CS133 = 132.905451961
ATOMIC_MASS_LI7 = 7.0160034366
ATOMIC_MASS_SI28 = 27.97692653465
ATOMIC_MASS_SN120 = 119.90220163


@dataclass(frozen=True)
class MoleculePreset:
    """Spectroscopic constants of one diatomic molecule.

    ``mu_amu`` is the reduced mass in unified amu with a provenance note,
    since the tabulated well depths and lengths come without masses.
    """

    name: str
    De_eV: float
    re_angstrom: float
    mu_amu: float
    mu_note: str
    source: str

    def __post_init__(self) -> None:
        for field in ("De_eV", "re_angstrom", "mu_amu"):
            if not getattr(self, field) > 0.0:
                raise ValueError(f"{self.name}: {field} must be positive")
        if not self.mu_note:
            raise ValueError(f"{self.name}: reduced-mass provenance note required")


def _homonuclear_mu(mass: float) -> float:
    return mass / 2.0


def _heteronuclear_mu(mass_a: float, mass_b: float) -> float:
    return mass_a * mass_b / (mass_a + mass_b)


_BUILTIN = {
    "SiSn": MoleculePreset(
        name="SiSn",
        De_eV=2.642965641,
        re_angstrom=2.514,
        mu_amu=_heteronuclear_mu(ATOMIC_MASS_SI28, ATOMIC_MASS_SN120),
        mu_note="m(28Si)*m(120Sn)/(m(28Si)+m(120Sn)), NIST atomic masses",
        source="well depth / bond length as tabulated for SiSn",
    ),
    "Li2": MoleculePreset(
        name="Li2",
        De_eV=1.055918901,
        re_angstrom=2.6729,
        mu_amu=_homonuclear_mu(ATOMIC_MASS_LI7),
        mu_note="m(7Li)/2, NIST atomic mass",
        source="well depth / bond length as tabulated for Li2",
    ),
    "Cs2": MoleculePreset(
        name="Cs2",
        De_eV=0.4524686595,
        re_angstrom=4.648,
        mu_amu=_homonuclear_mu(ATOMIC_MASS_CS133),
        mu_note="m(133Cs)/2, NIST atomic mass",
        source="well depth / bond length as tabulated for Cs2",
    ),
}


def _merge_override(base: dict[str, MoleculePreset], entry: dict) -> None:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ValueError("preset override entries need at least a 'name' key")
    name = str(entry["name"])
    fields = {k: entry[k] for k in ("De_eV", "re_angstrom", "mu_amu") if k in entry}
    for key, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"preset {name!r} field {key!r} must be a number, got {value!r}")
        fields[key] = float(value)
    note = str(entry.get("mu_note", "")) or f"user override from file ({name})"
    if name in base:
        base[name] = replace(base[name], mu_note=note if "mu_amu" in entry
                             else base[name].mu_note, **fields)
    else:
        missing = {"De_eV", "re_angstrom", "mu_amu"} - set(fields)
        if missing:
            raise ValueError(f"new preset {name!r} missing fields: {sorted(missing)}")
        base[name] = MoleculePreset(
            name=name, mu_note=note, source="user override file", **fields
        )


def load_presets(override_path: str | Path | None = None) -> dict[str, MoleculePreset]:
    """Built-in presets, with an optional JSON override file merged on top.

    The file holds one preset object ``{"name": ..., "De_eV": ...,
    "re_angstrom": ..., "mu_amu": ...}`` or an array of them.  Entries
    matching a built-in name replace the given fields; new names must be
    complete.
    """
    presets = dict(_BUILTIN)
    if override_path is not None:
        data = json.loads(Path(override_path).read_text(encoding="utf-8"))
        entries = data if isinstance(data, list) else [data]
        for entry in entries:
            _merge_override(presets, entry)
    return presets


def get_preset(name: str, override_path: str | Path | None = None) -> MoleculePreset:
    presets = load_presets(override_path)
    try:
        return presets[name]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise KeyError(f"unknown molecule preset {name!r} (known: {known})") from None


def to_atomic_units(
    preset: MoleculePreset, Dm: float = 0.0, delta: float = 0.0
) -> SystemParams:
    """Convert a preset to solver parameters in Hartree atomic units.

    ``Dm`` (dipole strength, hartree*bohr^2) and ``delta`` (flux ratio)
    are supplied by the caller; the preset carries no values for them.
    The reduced mass is ``mu_amu`` in electron masses.  This physical
    reading does not reproduce the published tables, which follow the
    raw numbers (see ``raw_number_params``).
    """
    return make_params(
        De=preset.De_eV * HARTREE_PER_EV,
        re=preset.re_angstrom / BOHR_RADIUS_ANGSTROM,
        Dm=Dm,
        delta=delta,
        mu=preset.mu_amu * ELECTRON_MASSES_PER_AMU,
    )


def raw_number_params(
    preset: MoleculePreset, Dm: float = 0.0, delta: float = 0.0
) -> SystemParams:
    """Interpret the eV / angstrom numbers directly as atomic-unit values, mu = 1.

    Not a physical unit system.  It is the configuration that best
    matches the published table values (see the validation report),
    which appear to have been computed from the raw spectroscopic
    numbers without conversion.  Kept separate from ``to_atomic_units``
    so the physical path stays honest.
    """
    return make_params(
        De=preset.De_eV, re=preset.re_angstrom, Dm=Dm, delta=delta, mu=1.0
    )
