"""Molecule presets, unit conversion, and the preset override file."""

import json

import pytest

from kratzer2d.molecules import (
    ATOMIC_MASS_CS133,
    ATOMIC_MASS_LI7,
    ATOMIC_MASS_SI28,
    ATOMIC_MASS_SN120,
    BOHR_RADIUS_ANGSTROM,
    ELECTRON_MASSES_PER_AMU,
    HARTREE_PER_EV,
    MoleculePreset,
    get_preset,
    list_presets,
    load_presets,
    raw_number_params,
    to_atomic_units,
)


def test_conversion_constants_are_codata_2018():
    assert HARTREE_PER_EV == 0.036749322176
    assert BOHR_RADIUS_ANGSTROM == 0.529177210903
    assert ELECTRON_MASSES_PER_AMU == 1822.888486209
    assert ATOMIC_MASS_CS133 == 132.905451961
    assert ATOMIC_MASS_LI7 == 7.0160034366
    assert ATOMIC_MASS_SI28 == 27.97692653465
    assert ATOMIC_MASS_SN120 == 119.90220163


def test_builtin_preset_fields():
    sisn = get_preset("SiSn")
    assert sisn.De_eV == 2.642965641
    assert sisn.re_angstrom == 2.514
    li2 = get_preset("Li2")
    assert li2.De_eV == 1.055918901
    assert li2.re_angstrom == 2.6729
    cs2 = get_preset("Cs2")
    assert cs2.De_eV == 0.4524686595
    assert cs2.re_angstrom == 4.648
    # Homonuclear reduced mass is half the atomic mass.
    assert cs2.mu_amu == pytest.approx(ATOMIC_MASS_CS133 / 2.0, rel=1e-14, abs=0)
    # Heteronuclear: m1 m2 / (m1 + m2).
    expected = ATOMIC_MASS_SI28 * ATOMIC_MASS_SN120 / (ATOMIC_MASS_SI28 + ATOMIC_MASS_SN120)
    assert sisn.mu_amu == pytest.approx(expected, rel=1e-14, abs=0)
    assert sisn.mu_amu == pytest.approx(22.6840334263, rel=1e-10)


def test_list_presets_stable_order():
    names = [p.name for p in list_presets()]
    assert names == ["SiSn", "Li2", "Cs2"]


def test_get_preset_unknown_name():
    with pytest.raises(KeyError, match="unknown molecule preset 'Xe2'"):
        get_preset("Xe2")


def test_to_atomic_units_sisn():
    params = to_atomic_units(get_preset("SiSn"))
    assert params.De == pytest.approx(0.0971271958412, rel=1e-11, abs=0)
    assert params.re == pytest.approx(4.7507714773, rel=1e-10)
    assert params.mu == pytest.approx(41350.4633537, rel=1e-10)
    assert params.Dm == 0.0
    assert params.delta == 0.0


def test_to_atomic_units_cs2_bond_length():
    assert to_atomic_units(get_preset("Cs2")).re == pytest.approx(
        8.7834470273, rel=1e-10
    )


def test_to_atomic_units_passes_dipole_and_flux():
    params = to_atomic_units(get_preset("Li2"), Dm=0.05, delta=0.3)
    assert params.Dm == 0.05
    assert params.delta == 0.3


def test_mu_conventions():
    sisn = get_preset("SiSn")
    assert to_atomic_units(sisn, mu_convention="amu").mu == pytest.approx(
        sisn.mu_amu, rel=1e-14, abs=0
    )
    assert to_atomic_units(sisn, mu_convention="one").mu == 1.0
    assert to_atomic_units(sisn, mu_convention="nist").mu == pytest.approx(
        sisn.mu_amu * ELECTRON_MASSES_PER_AMU, rel=1e-14
    )
    with pytest.raises(ValueError, match="mu_convention"):
        to_atomic_units(sisn, mu_convention="kg")


def test_raw_number_params_passthrough():
    li2 = get_preset("Li2")
    params = raw_number_params(li2, delta=0.2)
    assert params.De == li2.De_eV
    assert params.re == li2.re_angstrom
    assert params.mu == 1.0
    assert params.delta == 0.2


def test_conversion_round_trip():
    for preset in list_presets():
        params = to_atomic_units(preset)
        assert params.De / HARTREE_PER_EV == pytest.approx(preset.De_eV, rel=1e-12, abs=0)
        assert params.re * BOHR_RADIUS_ANGSTROM == pytest.approx(
            preset.re_angstrom, rel=1e-12
        )


def test_well_depth_ordering_survives_conversion():
    de = {p.name: to_atomic_units(p).De for p in list_presets()}
    assert de["SiSn"] > de["Li2"] > de["Cs2"]


def test_override_file_replaces_field(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"name": "Li2", "De_eV": 1.1}))
    presets = load_presets(path)
    assert presets["Li2"].De_eV == 1.1
    assert presets["Li2"].re_angstrom == 2.6729  # untouched
    assert presets["Li2"].mu_note == get_preset("Li2").mu_note  # mass unchanged
    assert load_presets()["Li2"].De_eV == 1.055918901  # built-ins not mutated


def test_override_file_adds_complete_preset(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(
        json.dumps(
            [{"name": "HCl", "De_eV": 4.6, "re_angstrom": 1.27, "mu_amu": 0.98}]
        )
    )
    preset = get_preset("HCl", override_path=path)
    assert preset.De_eV == 4.6
    assert "override" in preset.mu_note
    assert [p.name for p in list_presets(path)] == ["SiSn", "Li2", "Cs2", "HCl"]


def test_override_file_rejects_incomplete_new_preset(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"name": "HCl", "De_eV": 4.6}))
    with pytest.raises(ValueError, match="missing fields"):
        load_presets(path)


def test_override_entry_requires_name(tmp_path):
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"De_eV": 4.6}))
    with pytest.raises(ValueError, match="'name'"):
        load_presets(path)


def test_preset_validation():
    with pytest.raises(ValueError, match="must be positive"):
        MoleculePreset(
            name="bad", De_eV=-1.0, re_angstrom=1.0, mu_amu=1.0,
            mu_note="x", source="x",
        )
    with pytest.raises(ValueError, match="provenance"):
        MoleculePreset(
            name="bad", De_eV=1.0, re_angstrom=1.0, mu_amu=1.0,
            mu_note="", source="x",
        )
