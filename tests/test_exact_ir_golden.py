"""Exact-IR golden: the printed module of every u&u sweep cell, pinned.

The cycles and code-size goldens tolerate IR changes that happen to cost
the same.  This test pins the IR itself: for every ``uu``, ``unmerge`` and
``uu_heuristic`` cell of the per-loop sweep (Figs 6-8) of four apps, the
sha256 of ``print_module`` after the pipeline must stay as recorded.  The
hashes were recorded before unmerge and the CFG analyses became
incremental, so they pin that rewrite (and any later one) to byte-identical
output.  Cells compile with the sweep's default instruction budget, so the
budget-stopped ``x8`` cells pin the partially unmerged IR too.
"""

import hashlib

import pytest

from repro.bench import benchmark_by_name
from repro.harness.experiment import UNROLL_FACTORS
from repro.ir.printer import print_module
from repro.transforms.pipeline import compile_module

#: ExperimentRunner's default instruction budget.
MAX_INSTRUCTIONS = 20_000

APPS = ("bspline-vgh", "coordinates", "ccs", "XSBench")

#: "<app>/<config>/<loop id>x<factor>" -> sha256 of the printed module.
GOLDEN = {
    "XSBench/unmerge/grid_search:0x1":
        "fc3441c1d38ab041ec279efcff8fb5c4f65f4f1ec0b022b114c9fb7e1d3ecfb2",
    "XSBench/unmerge/xs_lookup:0x1":
        "2d400d3710ab87495b9d2ea625f734f1c6884860f18d7ae26ff466fde581ab75",
    "XSBench/uu/grid_search:0x2":
        "6373f4cfb8535c8b894eaa53cfc95e368cdec875122e347ca4f4c0f1caeba955",
    "XSBench/uu/grid_search:0x4":
        "354de2968e734d17fb2f031742454f9f7c0e7593ddbd19d7b9b28b2b9787da20",
    "XSBench/uu/grid_search:0x8":
        "08a905dbcbddaf1de1cc49c4f4e0164d74391b7162ba2a6d1c843eab7bc666dd",
    "XSBench/uu/xs_lookup:0x2":
        "19b6470b5c8527ff44b3871910a04dd4211c26c70854cc8588b462e5af1b37ab",
    "XSBench/uu/xs_lookup:0x4":
        "ee50236eca06924e1edbb60e91b9672af6601075883248682e60c8448c7889d9",
    "XSBench/uu/xs_lookup:0x8":
        "256e8f3bf1b105d2505ac3788d8dcd8000527f6e4a899d296e338ef54f82afe2",
    "XSBench/uu_heuristic/Nonex1":
        "300b4372dfb07ca93e434981c956c503b3d436312995d5fa6b92ebd8a2d4a0ad",
    "bspline-vgh/unmerge/bspline_vgh:0x1":
        "19c4efc70e081947759a9e595f5b82575d36ffc25aa47ea3b0acc7ec462b2476",
    "bspline-vgh/uu/bspline_vgh:0x2":
        "84f93f4f4e4da1ee9f4969d5a9d2a1e83335f6bcd0b35ff96040e37fbb95b435",
    "bspline-vgh/uu/bspline_vgh:0x4":
        "e9f67de1a2b06d691a1ace2f9ef5db1dc821d5fb252d177d15e95eed36a85fde",
    "bspline-vgh/uu/bspline_vgh:0x8":
        "92a979bd80c11ffc02b84047ef30d112b41d42113d8071939bbe3596d0585a6c",
    "bspline-vgh/uu_heuristic/Nonex1":
        "92a979bd80c11ffc02b84047ef30d112b41d42113d8071939bbe3596d0585a6c",
    "ccs/unmerge/ccs_correlate:0x1":
        "f79460ace3175ecc0ff16e68b4d233da194323094f806766e07fd1e9b931576f",
    "ccs/unmerge/ccs_correlate:1x1":
        "727feec9c033bf4261842a92898f7577139914823b8967719ef776d941832dda",
    "ccs/unmerge/ccs_score:0x1":
        "05b005f0ca1155ffdd2f98bab8949f7bdda5f561e252ee3b0b8f6852f2ff2531",
    "ccs/unmerge/ccs_score:1x1":
        "245ebdba8949ad7a4396d759d9f968443921141647d144f1aeb0877fe94363ae",
    "ccs/uu/ccs_correlate:0x2":
        "a975965014f69f5e40ba67f17967f3a5197ed87d32df4394cabe505ad71ccbfe",
    "ccs/uu/ccs_correlate:0x4":
        "472a5664d30a6bfbc5a759f2d6bfaa80f953aa5a5f55def507a998123ef1a626",
    "ccs/uu/ccs_correlate:0x8":
        "323588cc81aed78b458afdd68e04df56f9f4c94128e351cfde84a432383176ad",
    "ccs/uu/ccs_correlate:1x2":
        "6f23d0977a0044a0b7e661c2d7e5e3e7e3c248632af20564bf8ff9529554584e",
    "ccs/uu/ccs_correlate:1x4":
        "2bc9e4f6a81d0d5e1e46155b8a496d23c7c7b8fc4ae1aa33392d6757297f9350",
    "ccs/uu/ccs_correlate:1x8":
        "4dbccfa53743f9b18689bbd0125684d4b939c24d97f1562ef80372dc6ec9ed31",
    "ccs/uu/ccs_score:0x2":
        "6eb0231070a159aad1a87b303ef122bcf82af2f0d2d4ca964a62cfccc55adad1",
    "ccs/uu/ccs_score:0x4":
        "0499181c70436b19c64a67bf1ac45cf0f73d6da7a858053b106ca777dd70d02a",
    "ccs/uu/ccs_score:0x8":
        "a66a3c69868ebb50f80b7a9bac85e1a1d81cd71ffa8c6383442f2fb4e568dc51",
    "ccs/uu/ccs_score:1x2":
        "012635afb92f252e47c439a023b3795673a4a9b3eb3f00949c123b0f08ec2049",
    "ccs/uu/ccs_score:1x4":
        "bbd1b8a027475a85fa0b1a5e586f5700b9c8093e026d026e1bcc0199be62d2fb",
    "ccs/uu/ccs_score:1x8":
        "c667d0e26e6e96c889b8a86665556c16f817c8e66e26127429bcf9e786594d12",
    "ccs/uu_heuristic/Nonex1":
        "42d7e0dc60548cf8508253a85a7a7ef280b98b28bb7d3c87ec59bf49b03f7afa",
    "coordinates/unmerge/coord_convert:0x1":
        "4992be45309e1827723818b27082ba846ba3564225558bfef9da36f9067886b1",
    "coordinates/unmerge/coord_distance:0x1":
        "a1c5b62d3bbf94e1225976061e5dc873de147d33a94dc0881a4c963892548045",
    "coordinates/uu/coord_convert:0x2":
        "f04a62b5cb14068c5772f533b6f079bb54ef40e4c9df5a456b56c0b576363754",
    "coordinates/uu/coord_convert:0x4":
        "a9e51739cfda10b3ee47b25c74579140b288a3a83517b133be40690be8981fb3",
    "coordinates/uu/coord_convert:0x8":
        "5e1f0b5821d962d8dbb3d678e4a5ade2fa3c28c3b979d18bdd3d19c0eac5ff07",
    "coordinates/uu/coord_distance:0x2":
        "7b2e27f198f13f3f6eac82a3a42b3338d7226f47db96eb10a6029fa750e2c8c9",
    "coordinates/uu/coord_distance:0x4":
        "718c1a37fa250911aeb3f2dc0d164ac6a7d7e2a61189d056eb3d7bf0df245874",
    "coordinates/uu/coord_distance:0x8":
        "6b6a6cb58b2708e97f13156dec4877c87fc078f6dae7d3c8aa99617374b3c4a4",
    "coordinates/uu_heuristic/Nonex1":
        "84fab6beb917a279ce3d23ae9ca3806381712eb6bda89b53f57ff0bb562e097f",
}


def _cells():
    for app in APPS:
        bench = benchmark_by_name(app)
        yield app, "uu_heuristic", None, 1
        for loop_id in bench.loop_ids():
            yield app, "unmerge", loop_id, 1
            for factor in UNROLL_FACTORS:
                yield app, "uu", loop_id, factor


CELLS = list(_cells())


def test_golden_covers_every_cell():
    assert sorted(GOLDEN) == sorted(
        f"{app}/{config}/{loop_id}x{factor}"
        for app, config, loop_id, factor in CELLS)


@pytest.mark.parametrize("app,config,loop_id,factor", CELLS,
                         ids=lambda v: str(v))
def test_printed_ir_matches_golden(app, config, loop_id, factor):
    module = benchmark_by_name(app).build_module()
    compiled = compile_module(module, config, loop_id=loop_id, factor=factor,
                              max_instructions=MAX_INSTRUCTIONS)
    digest = hashlib.sha256(print_module(compiled.module).encode()).hexdigest()
    assert digest == GOLDEN[f"{app}/{config}/{loop_id}x{factor}"]
