"""Material parameter presets and loading.

A material file is JSON with the fields
{name, family, A_MHz, A_is_angular, deltaA_MHz, j_e, notes}; A_MHz,
deltaA_MHz and j_e are JSON numbers (not strings or booleans), couplings are
quoted in MHz and the JSON boolean ``A_is_angular`` says whether the numbers
are angular frequencies (used as-is, in rad units) or linear frequencies
(multiplied by 2 pi on ingestion). The Hamiltonian follows from the numbers:
the anisotropy term is there exactly when deltaA_MHz is nonzero. The optional
``family`` (hyperfine, isotropic or anisotropic) is only checked: the first
two reject a nonzero deltaA_MHz. Shipped presets: ``vacuum`` (free
muonium), ``quartz`` and ``si-mustar`` (anomalous muonium in silicon).

Extra search directories can be supplied through the ``MUSRTOMO_MATERIALS``
environment variable (path-separator separated).

``json_object`` and ``json_field`` read every JSON input of the package:
material files here, and plans and ``--init`` files in ``cli``. A value of
the wrong JSON type is a ValueError naming its field.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import HamiltonianSpec
from .tomography import X_AXIS, Direction

_PRESET_DIR = Path(__file__).parent / "materials"
ENV_SEARCH_PATH = "MUSRTOMO_MATERIALS"
_FAMILIES = ("hyperfine", "isotropic", "anisotropic")  # the first two without anisotropy


@dataclass(frozen=True)
class Material:
    name: str
    a_mhz: float
    a_is_angular: bool
    delta_a_mhz: float = 0.0
    j_e: float = 0.5
    notes: str = ""

    @property
    def a_rad_ns(self) -> float:
        return _to_rad_ns(self.a_mhz, self.a_is_angular)

    @property
    def delta_a_rad_ns(self) -> float:
        return _to_rad_ns(self.delta_a_mhz, self.a_is_angular)

    def hamiltonian_spec(self, b_field: float = 0.0,
                         b_axis: Direction | None = None,
                         aniso_axis: Direction | None = None) -> HamiltonianSpec:
        """The material's Hamiltonian in a field ``b_field`` along ``b_axis``;
        a nonzero anisotropy takes its axis from ``aniso_axis``, x by default."""
        anisotropic = self.delta_a_mhz != 0.0
        if anisotropic and aniso_axis is None:
            aniso_axis = X_AXIS
        return HamiltonianSpec(
            a=self.a_rad_ns,
            delta_a=self.delta_a_rad_ns,
            b_field=b_field,
            b_axis=b_axis if b_field != 0.0 else None,
            aniso_axis=aniso_axis if anisotropic else None,
            j_e=self.j_e,
        )


def _to_rad_ns(mhz: float, is_angular: bool) -> float:
    """MHz -> rad/ns; linear frequencies pick up the 2 pi."""
    factor = 1.0 if is_angular else 2 * np.pi
    return mhz * factor * 1e-3


def _search_dirs() -> list[Path]:
    dirs = [_PRESET_DIR]
    env = os.environ.get(ENV_SEARCH_PATH, "")
    dirs += [Path(p) for p in env.split(os.pathsep) if p]
    return dirs


def is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_object(data, what: str) -> dict:
    """``data``, a parsed JSON value, if it is an object; a ValueError naming
    ``what`` otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {data!r}")
    return data


def json_field(data: dict, field: str, default=None, kind: str = "a JSON number",
               ok=is_json_number):
    """``data[field]``, or ``default`` when one is given and the field is
    absent, if ``ok`` holds for it (a JSON number unless told otherwise); a
    ValueError naming the field and ``kind`` otherwise."""
    value = data[field] if default is None else data.get(field, default)
    if not ok(value):
        raise ValueError(f"{field} must be {kind}, got {value!r}")
    return value


def material_from_dict(data: dict) -> Material:
    """The material of a parsed file; ValueError where the checks of the
    module docstring fail."""
    json_object(data, "a material file")
    json_field(data, "A_is_angular", kind="true or false", ok=lambda v: isinstance(v, bool))
    delta_a_mhz = float(json_field(data, "deltaA_MHz", 0.0))
    family = data.get("family")
    if family not in (None, *_FAMILIES):
        raise ValueError(f"unknown family {family!r}: use one of {', '.join(_FAMILIES)}")
    if delta_a_mhz != 0.0 and family in _FAMILIES[:2]:
        raise ValueError(f"family {family!r} has no anisotropy, but deltaA_MHz is "
                         f"{delta_a_mhz!r}")
    return Material(
        name=data["name"],
        a_mhz=float(json_field(data, "A_MHz")),
        a_is_angular=data["A_is_angular"],
        delta_a_mhz=delta_a_mhz,
        j_e=float(json_field(data, "j_e", 0.5)),
        notes=data.get("notes", ""),
    )


def load_material(name_or_path: str) -> Material:
    """Load a preset by name or any material file by path."""
    p = Path(name_or_path)
    if p.suffix == ".json" and p.exists():
        return material_from_dict(json.loads(p.read_text()))
    for d in _search_dirs():
        candidate = d / f"{name_or_path}.json"
        if candidate.exists():
            return material_from_dict(json.loads(candidate.read_text()))
    raise FileNotFoundError(f"no material preset or file named {name_or_path!r}")


def available_presets() -> list[str]:
    """Preset names in the order that ``load_material`` searches them, each
    once: a name in a later directory is shadowed by the first one's file."""
    names = (f.stem for d in _search_dirs() if d.is_dir() for f in sorted(d.glob("*.json")))
    return list(dict.fromkeys(names))
