"""Golden SHA-256 digests of the data CSVs of small `run` and `sweep` cells,
and of the six figure CSVs assembled from them.

Refactors of the engine must leave every output byte unchanged; these
digests were recorded with the per-pair engine and must hold for any
later implementation.  A change that moves a digest on purpose records
new ones and says why.
"""

import hashlib

import pytest

from specagg.cli import (
    FIGURE_IDS,
    emit_figure_data,
    parse_config,
    run_single,
    run_sweep,
)

SHAPE = {
    "users": "5",
    "relays": "20",
    "bands": "100",
    "slots": "100",
    "n_train": "20",
    "es_n0_db": "10",
}

CASES = {
    "default_shape": (
        {**SHAPE, "episodes": "2", "seed": "3"},
        None,
        {
            "metrics.csv": "04a224cf97d5af25a12540194e761207b18a4394022e05fe92f7a0652103606b",
            "summary.csv": "431c64f7782e8015100e66e91a767bc0e30b30f8f0ece8d4182291e673dc7522",
            "trace.csv": "6564da8abfc2fab06afeddcb6b77c132c110804ce6e657ad2e52361c0d3c3841",
        },
    ),
    "noisy_unit_gain": (
        {
            **SHAPE,
            "episodes": "2",
            "seed": "11",
            "sensing_error_rate": "0.1",
            "gain_model": "unit",
            "designated_band": "7",
        },
        None,
        {
            "metrics.csv": "3be88e4d3b079db80ecdad3a62e0056988beff4c9c522e6f3aeef65f09e6ea48",
            "summary.csv": "894bbcadc77ff497810016d85c22f3f316573a05bdf819dfb9d1907356f3976b",
            "trace.csv": "788782c70613c8f160aaa905ee98a2a03ee34752d8562da505ab87d5bfa91104",
        },
    ),
    "min_hop_p0_sweep": (
        {
            **SHAPE,
            "episodes": "2",
            "seed": "29",
            "snr_combining": "min_hop",
            "es_n0_db_sweep": "0,10",
        },
        ("p0", ["0.2", "0.6"]),
        {
            "metrics.csv": "625ae4685973a7f8599eb187d84787c914cbcc49cdfa7c41e1a90e0827f9fc8e",
            "summary.csv": "5f5dbd94c38af5e73d078c5ee73db2095c8d45f725277406f7b375b3762c4ef5",
            "trace.csv": "54b0b700fe98a115131b8f7dae6fdd0d6b469ee4849c0ad90617d73ab5f7ac8f",
            "sweep_p0.csv": "0535c851ad76932a5042ae0ad785c0630dccc696048185798d73bdff4c9d3cef",
        },
    ),
    # noisy sensing over an odd band count, at two p0 values that share
    # every sensing stream but not the truth
    "noisy_p0_sweep": (
        {
            **SHAPE,
            "bands": "99",
            "episodes": "2",
            "seed": "37",
            "sensing_error_rate": "0.1",
            "gain_model": "rayleigh",
            "es_n0_db_sweep": "0,10",
        },
        ("p0", ["0.2", "0.6"]),
        {
            "metrics.csv": "69cb65c3313ae04e69d754e06544f22a1a5458dc2cd1143bbbce98f26673d012",
            "summary.csv": "e78cba6f9ec48b072682e220349084391c273a83f94b0779a672e49aeb0afba0",
            "trace.csv": "931e0067b3a2a300475ad774530e4c0ef5e5222d2252d9d3c80f4f082326dd80",
            "sweep_p0.csv": "5dc9b596bf17f986a739e9b260bfd069cda7b1bd2cc91c8d1c34536fc73369f7",
        },
    ),
    # odd slot and band counts: slot after slot, the sensing offsets
    # start on the spare half-word the previous slot left behind
    "noisy_odd_slots": (
        {
            **SHAPE,
            "users": "3",
            "relays": "5",
            "bands": "7",
            "slots": "31",
            "n_train": "10",
            "episodes": "2",
            "seed": "41",
            "sensing_error_rate": "0.5",
            "es_n0_db_sweep": "0,10",
        },
        ("p0", ["0.2", "0.6"]),
        {
            "metrics.csv": "72c8ce11951f29516a520ad554a20aca34a95723cf9ca6acfbad847a8e190807",
            "summary.csv": "c20bcc43afa7409f2812c7407fad9ba2ceefada0e5384e2ab328198289c3666b",
            "trace.csv": "f1aa01cca78cb1e553d8265d0ca0d407a228bcca73be27af8284d85a02a8766b",
            "sweep_p0.csv": "b95231e2e190cddfd3bbb294b52afe3e16ed9532f5c14b9e2b6f0d537ed53a2c",
        },
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digests_are_golden(case, tmp_path):
    overrides, sweep, expected = CASES[case]
    config = parse_config(None, {**overrides, "out": str(tmp_path)})
    paths = run_single(config)
    got = {f"{name}.csv": _sha256(paths[name]) for name in ("metrics", "summary", "trace")}
    if sweep is not None:
        axis, values = sweep
        got[f"sweep_{axis}.csv"] = _sha256(run_sweep(config, axis, values))
    assert got == expected


# one run plus a sweep of every axis, at a tiny size, feed all six figures
FIGURE_CASE = {
    "users": "3",
    "relays": "6",
    "bands": "12",
    "slots": "26",
    "n_train": "20",
    "episodes": "2",
    "seed": "17",
    "es_n0_db_sweep": "5,15",
}
FIGURE_SWEEPS = {
    "p0": ["0.3", "0.5"],
    "band_count": ["8", "16"],
    "relay_count": ["4", "8"],
    "es_over_n0": ["0", "10", "20"],
}
FIGURE_DIGESTS = {
    8: "0867694b6af05d8af46800251c228d5a18b33d4e54c7f325c2e2350628c8e569",
    9: "e0b4e7c155e6b7b24b25cfbab5a81842c843ebc7d825838175c88c50cbf76761",
    10: "56d72ce8ca84c52924f564be9a9062ae407d18f3b692dd9fdb74d473197fb640",
    11: "489976beb38f59138e2448711f54926a732b4a221e6c8c02bd290f6c505bcf66",
    12: "0c4a9edf8483815ab88394091e584ddf58041548c5e5a1e8281b792c266b70c4",
    13: "30915073eb61bb5f41655c2eda6135aec7819485edcfb3b1edb9b2e70a4b58cb",
}


def test_figure_digests_are_golden(tmp_path):
    config = parse_config(None, {**FIGURE_CASE, "out": str(tmp_path)})
    run_single(config)
    for axis, values in FIGURE_SWEEPS.items():
        run_sweep(config, axis, values)
    got = {i: _sha256(emit_figure_data(config, i)) for i in FIGURE_IDS}
    assert got == FIGURE_DIGESTS
