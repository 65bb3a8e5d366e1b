"""Single-field mutations of config documents: each one parses or fails naming a field.

Every preset and two custom documents (a word-list group with ``sample_every`` and
``symmetric``, and a boson-bath sweep) are mutated one field at a time: a value of
the wrong type, a ``bool``, ``None``, NaN, an infinity, 0, -1, 1e308, 2**70, a
subnormal, a bad Pauli word, an unknown key, or the field removed. Each mutant
either parses or raises :class:`ConfigError` on a key path of the preset overlaid
by the mutant, or on a required field that is missing; no other exception escapes
``parse_config``. ``outcomes`` gives every mutant's outcome, so that two versions
of the parser can be compared mutant by mutant.
"""

import math
import re

import numpy as np
import pytest

from decoupling import BathSpec, CycleSchedule, ConfigError, minimal_group_search, pauli_group
from decoupling import parse_config
from decoupling.cli import main
from decoupling.scenarios import PRESETS

DOCUMENTS = {
    **{name: {"scenario": name, "seed": 7} for name in PRESETS if name != "custom"},
    "custom-word-list": {
        "scenario": "custom", "seed": 7, "K": 2, "coupling": "dephasing",
        "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3},
        "group": ["II", "XX", "YY", "ZZ"], "delta_t": 0.05, "n_cycles": 20,
        "sample_every": 2, "symmetric": True, "h_s": {"ZZ": 0.2, "ZI": 0.1},
    },
    "boson-sweep": {
        "scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing",
        "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0,
                 "coupling_scale": 0.3},
        "delta_t": 0.1, "n_cycles": 20,
        "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]},
    },
}

#: Every top-level key a document may hold, and every key of ``bath``.
TOP_KEYS = ("scenario", "seed", "K", "bath", "group", "delta_t", "n_cycles", "symmetric",
            "sweep", "output_dir", "coupling", "h_s", "rho_s0", "sample_every")
BATH_KEYS = ("kind", "n_modes", "cutoff", "coupling_scale", "boson_truncation", "seed")

VALUES = ("nope", [], {}, True, None, math.nan, math.inf, -math.inf, 0, -1, 1e308, 2**70,
          1e-320)
BAD_WORDS = ("Q", "x", "", "IXYZI")


def _overlay(doc: dict) -> dict:
    """The preset of ``doc``'s scenario (a known one, else ``custom``) overlaid by ``doc``."""
    preset = PRESETS.get(doc.get("scenario"), {}) if isinstance(doc.get("scenario"), str) else {}
    merged = {**PRESETS["custom"], **preset, **doc}
    if isinstance(doc.get("bath"), dict):
        merged["bath"] = {**preset.get("bath", {}), **doc["bath"]}
    return merged


def key_paths(doc: dict) -> set[str]:
    """Every key path of the preset overlaid by ``doc``: top-level keys, the keys of
    ``bath`` and ``sweep``, ``sweep.values[i]``, ``group[i]`` and ``h_s.<word>``."""
    merged = _overlay(doc)
    paths = set(merged)
    for key in ("bath", "sweep", "h_s"):
        if isinstance(merged.get(key), dict):
            paths |= {f"{key}.{k}" for k in merged[key]}
    for key, items in (("group", merged.get("group")),
                       ("sweep.values", (merged.get("sweep") or {}).get("values")
                        if isinstance(merged.get("sweep"), dict) else None)):
        if isinstance(items, list):
            paths |= {f"{key}[{i}]" for i in range(len(items))}
    return paths


def mutants(doc: dict):
    """``(label, mutant)`` for every single-field mutation of ``doc``."""
    merged = _overlay(doc)

    def setting(path, value):
        mutant = {**doc}
        if "." in path:
            parent, key = path.split(".")
            mutant[parent] = {**(doc.get(parent) or {}), key: value}
        else:
            mutant[path] = value
        return mutant

    for key in TOP_KEYS:
        for value in VALUES:
            yield f"{key}={value!r}", setting(key, value)
    for key in BATH_KEYS:
        for value in VALUES:
            yield f"bath.{key}={value!r}", setting(f"bath.{key}", value)
    for key in doc:
        yield f"-{key}", {k: v for k, v in doc.items() if k != key}
    for key in ("bath", "sweep"):
        for sub in doc.get(key) or {}:
            yield f"-{key}.{sub}", {**doc, key: {k: v for k, v in doc[key].items() if k != sub}}
    for parent in ("", "bath", "sweep"):
        yield f"{parent}.bogus", (setting(f"{parent}.bogus", 1) if parent else {**doc, "bogus": 1})
    for word in BAD_WORDS:
        yield f"h_s.{word}", {**doc, "h_s": {**merged["h_s"], word: 0.1}}
    for word in merged["h_s"]:
        for value in VALUES:
            yield f"h_s.{word}={value!r}", {**doc, "h_s": {**merged["h_s"], word: value}}
    if isinstance(merged["group"], list):
        words = merged["group"]
        for i in range(len(words)):
            for value in (*VALUES, *BAD_WORDS, words[i - 1]):
                yield f"group[{i}]={value!r}", {**doc, "group": [*words[:i], value,
                                                                   *words[i + 1:]]}
    if "sweep" in doc:
        values = doc["sweep"]["values"]
        for i in range(len(values)):
            for value in (*VALUES, values[i - 1]):
                yield f"sweep.values[{i}]={value!r}", setting(
                    "sweep.values", [*values[:i], value, *values[i + 1:]])


def outcome(doc: dict) -> str:
    """``"ok"``, the field path of a ``ConfigError``, or the name of any other exception."""
    try:
        parse_config(doc)
    except ConfigError as exc:
        match = re.match(r"config field '(.*?)': (.*)", str(exc))
        return match[1] if match else f"ConfigError: {exc}"
    except Exception as exc:  # the property under test: none escapes
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def outcomes() -> dict[str, str]:
    """Every mutant's outcome, by document name and mutation label."""
    return {f"{name}/{label}": outcome(mutant)
            for name, doc in DOCUMENTS.items() for label, mutant in mutants(doc)}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_each_mutant_parses_or_names_a_field(name):
    """The error names a key path of the document or of the mutant (a field the mutant
    removed or added), or a required field that is missing. Any other exception than a
    ``ConfigError`` fails the test as it escapes."""
    doc = DOCUMENTS[name]
    assert outcome(doc) == "ok"
    bad = {}
    for label, mutant in mutants(doc):
        try:
            parse_config(mutant)
        except ConfigError as exc:
            path = re.match(r"config field '(.*?)': ", str(exc))[1]
            if path not in key_paths(doc) | key_paths(mutant) and not str(exc).endswith(
                    ": required field is missing"):
                bad[label] = str(exc)
    assert not bad


def test_the_mutation_set_is_large_and_mixed():
    """Mutants parse and fail on many fields, so the property above is not vacuous."""
    got = outcomes()
    assert len(got) > 1500
    failed = {path for path in got.values() if path != "ok"}
    assert sum(path == "ok" for path in got.values()) > 100
    assert {"seed", "K", "bath.cutoff", "group[2]", "h_s.Q", "coupling", "delta_t",
            "n_cycles", "sample_every", "sweep.values[1]", "bath.bogus"} <= failed


# -- the rules that once had two copies, each decided once ---------------------------


def test_a_bool_is_no_delta_t_anywhere():
    """``True`` is not read as 1: the schedule refuses it as the parser does."""
    with pytest.raises(ValueError, match="^delta_t: expected a number, got bool$"):
        CycleSchedule(pauli_group(1, "flip"), True, range(2))
    with pytest.raises(ConfigError, match="^config field 'delta_t': expected a number, got bool$"):
        parse_config({"scenario": "dephasing-echo", "seed": 7, "delta_t": True})


def test_numpy_integers_are_integers_everywhere():
    """A bath takes numpy integer sizes and seed as a run takes numpy counts, and keeps
    them as ``int``."""
    spec = BathSpec(kind="boson-mode", n_modes=np.int64(3), cutoff=1.0, coupling_scale=0.3,
                    seed=np.int32(7), boson_truncation=np.int16(3))
    plain = BathSpec(kind="boson-mode", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=7,
                     boson_truncation=3)
    assert spec == plain
    assert {type(v) for v in (spec.n_modes, spec.seed, spec.boson_truncation)} == {int}


def test_a_search_needs_an_order_of_at_least_one():
    """``max_order=0`` is refused, not answered with no groups, as ``--max-order 0`` is."""
    with pytest.raises(ValueError, match="^max_order: must be >= 1, got 0$"):
        minimal_group_search([{"Z": 1.0}], 1, max_order=0)
    assert main(["design", "--interaction", "Z", "--qubits", "1", "--max-order", "0"]) == 2
