"""Golden digests: the SHA-256 of every report file for fixed experiments.

Each case runs one bundled scenario under one variant over seeds 1-3 (the
E1 ring is also swept over events 1..3), writes the reports with
``emit_reports`` and compares the SHA-256 of each of the nine files with
the value pinned in ``DIGESTS``.  Two cases run all four variants in one
experiment, so the variants share each seed's injections: ``mesh20_mixed``
as written, and ``mesh20_mixed`` with a 1 s estimation interval, which puts
the controller's route memo through many cycles.  A third runs
``linear_chain`` with a second, near line-rate flow, so some estimation
probes wait behind queued data and the estimator sees nonzero egress
waits, which no bundled scenario produces.  Two more sweep all four
variants over events 1..3: on ``industrial_ring_mixed`` the smaller event
counts' injection lists are subsequences of the larger ones' (E1 and E2
interleaved), so those runs branch off a shared kernel; on ``mesh20_e2``
the ``per_pair`` lists do not nest, so every run computes its own kernel.
The ``linear_chain`` cases have no injections, so their seeds reuse one
finished kernel.  Any change to what a run computes, or to the bytes of a
report, fails here, so a refactor or an optimization that claims to keep
behaviour is held to it.

A change that alters the output on purpose regenerates the table with
``PYTHONPATH=src python tests/test_golden_digests.py`` and says why.
"""

import hashlib
import os
import re
import sys

import pytest

from sdnsim.harness import emit_reports, run_experiment
from sdnsim.scenario import parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = ("industrial_ring_e1", "industrial_ring_e2",
             "industrial_ring_mixed", "linear_chain", "mesh20_e1",
             "mesh20_e2", "mesh20_mixed")
VARIANTS = ("woRM", "sRM", "pRM", "RM")
SEEDS = [1, 2, 3]
EVENT_SWEEP = ("events", [1, 2, 3])

# A text edit applied to a scenario file before parsing: (label for the
# case id, a pattern matching exactly one line, its replacement).
INTERVAL_1S = ("interval1s", r"^estimation_interval .*$",
               "estimation_interval 1s")
QUEUED_PROBES = ("queued-probes", r"^(flow F1 .*)$",
                 r"\1\nflow F2 H1 H10 packet=1500B volume=24Mb start=9990ms"
                 r" gap=13500ns")

# (scenario, variants, sweep, text edit or None for the file as written).
# The 1 s case lists SDN-RM first, so its events.jsonl is the log of the
# variant that computes the most routes.
CASES = ([(name, (variant,), None, None)
          for name in SCENARIOS for variant in VARIANTS]
         + [("industrial_ring_e1", (variant,), EVENT_SWEEP, None)
            for variant in VARIANTS]
         + [("mesh20_mixed", VARIANTS, None, None),
            ("mesh20_mixed", VARIANTS[::-1], None, INTERVAL_1S),
            ("linear_chain", VARIANTS, None, QUEUED_PROBES),
            ("industrial_ring_mixed", VARIANTS, EVENT_SWEEP, None),
            ("mesh20_e2", VARIANTS, EVENT_SWEEP, None)])


def case_id(name, variants, sweep, edit):
    return (f"{name}-{'+'.join(variants)}"
            + ("" if sweep is None else f"-{sweep[0]}")
            + ("" if edit is None else f"-{edit[0]}"))


def report_digests(name, variants, sweep, edit, out_dir):
    """{file name: SHA-256} of the reports of one case, written to out_dir."""
    relative = f"scenarios/{name}.scn"
    with open(os.path.join(ROOT, relative), encoding="utf-8") as handle:
        text = handle.read()
    if edit is not None:
        _, pattern, replacement = edit
        text, edits = re.subn(pattern, replacement, text, flags=re.MULTILINE)
        assert edits == 1
    scenario = parse_scenario(text, name=relative)
    result = run_experiment(scenario, list(variants), SEEDS, sweep=sweep)
    digests = {}
    for path in emit_reports(result, out_dir):
        with open(path, "rb") as handle:
            digests[os.path.basename(path)] = hashlib.sha256(
                handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_report_bytes_match_golden_digests(case, tmp_path):
    assert report_digests(*case, str(tmp_path)) == DIGESTS[case_id(*case)]


DIGESTS = {
    'industrial_ring_e1-woRM': {
        'events.jsonl':
            '45dd466a3eb30bb7e11357628b0324e36a2a173af341bb11a099b3f229543bce',
        'llde_cycles.csv':
            '3cf50b129dea5672988d9dd5024358fa37a77c95b8efeeb4944907985c4f5274',
        'manifest.json':
            'a3e760f78b59dbb023a472c86d1433f2aec489e897ba1d74d18804655fe1da14',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '8cff92cdb6b51901e16a54e82e6dfb5683bb1f060feb052cc2703cbc7d89af40',
        'success_rate_strong.csv':
            '8cff92cdb6b51901e16a54e82e6dfb5683bb1f060feb052cc2703cbc7d89af40',
        'summary.json':
            '0ba3e9e76a534850fcf505d03af3f61a9645098c0960aef1b314053dbf294af2',
        'throughput_mbps.csv':
            '99beecb5a2ef333643a170b282b5dbe6170b329dcfccc2f51682b1e177fef989',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'industrial_ring_e1-sRM': {
        'events.jsonl':
            '2755d0821a142e5a5a6ea257e3b9b6ba1d35942d15cc7df514dd7c77d7f22445',
        'llde_cycles.csv':
            '3cf50b129dea5672988d9dd5024358fa37a77c95b8efeeb4944907985c4f5274',
        'manifest.json':
            '99668563ef7783b6adc65904465756040d4ea05b566ca944a8607eb46502ea3d',
        'restoration_ms.csv':
            '8b2ed0d3c5f2b800d7845a8c411fa4a71a9925b95e4d44f45212ca1f0a7d3298',
        'success_rate.csv':
            'bf33ff6d5e40288966d99c5f1088b50cad899d4756b3cd67f8f99bdaa7161682',
        'success_rate_strong.csv':
            'bf33ff6d5e40288966d99c5f1088b50cad899d4756b3cd67f8f99bdaa7161682',
        'summary.json':
            '592f49024848c4c83f365953a360b16395e8813ea7d3a7446f7f49a4025593f8',
        'throughput_mbps.csv':
            '78b852a9aef8ae750b694411616838a855d6841e8881c170e3d2213296938da1',
        'warnings.csv':
            '74377b6b0ca3dc2a7eb096009269d2b9f71df70c5522cc1c572ba1dbd561ab5d',
    },
    'industrial_ring_e1-pRM': {
        'events.jsonl':
            '0b76bd6095d43d3a2cca528af32a0e7f9197c3f71ced512ea5726c698c1415ed',
        'llde_cycles.csv':
            '3cf50b129dea5672988d9dd5024358fa37a77c95b8efeeb4944907985c4f5274',
        'manifest.json':
            '8e8acbf017aeffc9693cff712c64fb225f2f0c671ec15951c668570d4d8916a0',
        'restoration_ms.csv':
            'dbc0db8ec3aa78d4be0678397bd80e1dffa03c4da7aec31f2196628eb3152064',
        'success_rate.csv':
            '81f473826f40c7a8e228159166f67c9428b3e75b48277d65eead78e847eff63b',
        'success_rate_strong.csv':
            'a10dc7aa20ef19f21103c3fb68772405e19fc60bb5c4e2d3d32f86a264be55cd',
        'summary.json':
            'adf0f328bcb44408e5313099ca16b7777a53518a27aa50823ce3df45ba070bd4',
        'throughput_mbps.csv':
            'e784a07d0055449726b0455e6bedef72ce910885d466a2ebac836bb072340f92',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'industrial_ring_e1-RM': {
        'events.jsonl':
            '889266572351757a9471dedf6c169f36608b9467afd7547a438ceadc264ab992',
        'llde_cycles.csv':
            '3cf50b129dea5672988d9dd5024358fa37a77c95b8efeeb4944907985c4f5274',
        'manifest.json':
            '4b6208dd755d5cad271cf003168ffc767a43292b75c075d7d2ce4eac07025e07',
        'restoration_ms.csv':
            '87b1c4417f118f506da60a0a8038d99e605f3afeb8a10f5b6bc34d78ba7c3376',
        'success_rate.csv':
            'e1842c3f3c2bffed9a3dd4ac80282fdf66f652e34f201227183b643f65da43cf',
        'success_rate_strong.csv':
            '64f9c05307a0c1754a2b85581d1c87b3ef391e7c3b518c7c9d76e25792ce110c',
        'summary.json':
            '1b4363c047aafec79c28a4cf2d81eb00f0c177aae129a09d87435dade6df1c36',
        'throughput_mbps.csv':
            '63c05bd8dfb37973fb9aad6e1ebc351acf235e033e6402b4356b06cd7945a7d1',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'industrial_ring_e2-woRM': {
        'events.jsonl':
            'ac33158b0c55977ccc2c85629ee893ea4e19ee52f944dd5a9622ee5d973bd967',
        'llde_cycles.csv':
            'e796b17d1b13a83ef223993a9fe60cf3190c0f67f693a3709ef94d41bc674809',
        'manifest.json':
            'ae51ab4608e19f9fd0c1dbfab896db47cdc93bf6b9a50491b2a62c888e96a17e',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '40b4e3ebc6901a70e91484f870b90b0670107e01062fda9f8b5bad4cf1c3e8cc',
        'success_rate_strong.csv':
            '40b4e3ebc6901a70e91484f870b90b0670107e01062fda9f8b5bad4cf1c3e8cc',
        'summary.json':
            'b1afceffd704c1c3cd982d42bb02a64aa00c8b00ecb91dc865456710dc3561ae',
        'throughput_mbps.csv':
            '93cb27c661e7d0934bad165df235d0e8f4d5fbaec6520ae5f9187cf5c35b883c',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'industrial_ring_e2-sRM': {
        'events.jsonl':
            '101bc07d360d2b2fb66432b9156f3c295ee124a84df93e31693919ccb09fb31d',
        'llde_cycles.csv':
            'e796b17d1b13a83ef223993a9fe60cf3190c0f67f693a3709ef94d41bc674809',
        'manifest.json':
            'e900359d5504fd6923529dec0d3ad25a1df75a55dbf95c685259083c67f6225c',
        'restoration_ms.csv':
            '25918ac242e45ef0195d95aa50a3bcb04ab30caa8ace65fe82db50ca301d9c79',
        'success_rate.csv':
            '8063775431f98aaeed57f5aee5b8f9f6e1807ea9ed1c1d8b17d8330ef3607d30',
        'success_rate_strong.csv':
            '8063775431f98aaeed57f5aee5b8f9f6e1807ea9ed1c1d8b17d8330ef3607d30',
        'summary.json':
            'd724b3884c4764835af96469245d09037a095422c7b8b5ec3670b7f47b24a204',
        'throughput_mbps.csv':
            '5a17a4b21370332f3166d97328b367434f02a8d289ef65b2ca1ce54b42002704',
        'warnings.csv':
            '505ae99b2898473716aae44ea6abe8c604a75371466224747f913e427ca5c139',
    },
    'industrial_ring_e2-pRM': {
        'events.jsonl':
            '76d6d5314fdedcedc2f52f36c23604d22fcf987df482b89745db63276176cec3',
        'llde_cycles.csv':
            'e796b17d1b13a83ef223993a9fe60cf3190c0f67f693a3709ef94d41bc674809',
        'manifest.json':
            '1d187be7df83f037fe26c11fbbc716fc7ede5ea7772affb465577907599e74d1',
        'restoration_ms.csv':
            '142a6715274bf84c49f38ef729961311f3af6bb2e06c95070e49641ce25bfaba',
        'success_rate.csv':
            '3d571274bb7c557dd360213c50c2ffe8e49e33840102d2dc7b808a75843f451e',
        'success_rate_strong.csv':
            '9af7b87e46062487c4deccd713ced8ddcf14e3c3b368e0de6dc617eacde80a87',
        'summary.json':
            '471ea7c3b6111c5e687543bbba32b41d621703a38250406bcb4af712faf5c2cd',
        'throughput_mbps.csv':
            '688ed032976c77777a87ab7e3cc1bbd2e699e58484327b23231fc9a195194597',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'industrial_ring_e2-RM': {
        'events.jsonl':
            '76afe7cc5401b3a2f820c928bd09a14bacdc73297af15a9c832318c67db92bff',
        'llde_cycles.csv':
            'e796b17d1b13a83ef223993a9fe60cf3190c0f67f693a3709ef94d41bc674809',
        'manifest.json':
            'd2762793e102d9f39126ebf0f7120099fa3138cbbe07eaae7aedb13efa00b7dc',
        'restoration_ms.csv':
            '2dd6481d38840275aaa877d0480e6c565e142c5f80f5dd0c0fadd1c48a8641d1',
        'success_rate.csv':
            'a2fda034cd1291e280f1cb88b4f45a7df9e5603988f6ac4736a1da298a93f4ad',
        'success_rate_strong.csv':
            '6ffd0e17ec29f2fa328aca3df3573ccc3692361e0fc822845c2141769551f68f',
        'summary.json':
            '7d0465e3d9a071f73e2b3c75d48c2b5aea29a2728607fbfb22446523d24d7298',
        'throughput_mbps.csv':
            '63c05bd8dfb37973fb9aad6e1ebc351acf235e033e6402b4356b06cd7945a7d1',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'industrial_ring_mixed-woRM': {
        'events.jsonl':
            '8219c55d25e414aaaf7f32b4296d844acb5578946e690fc2b684ab8c2afc7376',
        'llde_cycles.csv':
            '70b1b6d9f6b3a0270361f647304c7683e31be7c98a429ef8bf030b853339a5ac',
        'manifest.json':
            '1abbfeb7bea86f4ef30a18128c1bbf94a1bc2aa19b2652b0e3078d57605d5651',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '1aaea82234093ab21e7ee6bcf9a135da119f0e7b7c6ec6343b8b664708847fe1',
        'success_rate_strong.csv':
            '1aaea82234093ab21e7ee6bcf9a135da119f0e7b7c6ec6343b8b664708847fe1',
        'summary.json':
            '00b89398df5791289a152587706b26ec8c59cb2809a413c1b99f2f02ac8d60c8',
        'throughput_mbps.csv':
            '99beecb5a2ef333643a170b282b5dbe6170b329dcfccc2f51682b1e177fef989',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'industrial_ring_mixed-sRM': {
        'events.jsonl':
            'f87ed2d9411ecdc37a29f1b34701b85a5fc9f34e524475b69dd173cc5828ebe3',
        'llde_cycles.csv':
            '70b1b6d9f6b3a0270361f647304c7683e31be7c98a429ef8bf030b853339a5ac',
        'manifest.json':
            'dd65bf1635240035bb90cba874bdef20a1cd4927bf018b26632b85d007fea1f2',
        'restoration_ms.csv':
            '01008da90e58ed8bac0fdfcdb57f2790e5eb531c046f25b8f7cac1cc7959e4b0',
        'success_rate.csv':
            '8063775431f98aaeed57f5aee5b8f9f6e1807ea9ed1c1d8b17d8330ef3607d30',
        'success_rate_strong.csv':
            '8063775431f98aaeed57f5aee5b8f9f6e1807ea9ed1c1d8b17d8330ef3607d30',
        'summary.json':
            '9126eedab8cc7a29f05befa1233e3f49b0971a3e3a333276a440a4fc4b289f0d',
        'throughput_mbps.csv':
            'd674022b66e77a20c2e3c141eca2edefd9fc091406aa678515ee04b565194be2',
        'warnings.csv':
            'b31bb3c63f74e6f01b5b6b9ce2383e07deaac9b73e85ac689c3e49c3737a3435',
    },
    'industrial_ring_mixed-pRM': {
        'events.jsonl':
            '8ddcf151d29b97b79f4a16df7330a3f0d863954aa6e38e28a460bab316737d6a',
        'llde_cycles.csv':
            '70b1b6d9f6b3a0270361f647304c7683e31be7c98a429ef8bf030b853339a5ac',
        'manifest.json':
            'c4fb82ba8eaf3530604d961d0d119a672a2cafbf4826cea1748b59cb7ce9c766',
        'restoration_ms.csv':
            '5ddafab573ac3b171aa8a5811e035e08926b63572cef77da785c43ad34394803',
        'success_rate.csv':
            'e0da018ca94af1f3e5fa0f3d310428d317ad9dcab267edf1972fcdf87d782dec',
        'success_rate_strong.csv':
            '372d982501c59adce2c2ddeeb24dd7269416d1fb77abf189dd694010c1edd6aa',
        'summary.json':
            '4e26d3dd9a5a37d796016b381cf4b3d868df43c5c3408a6b7e3202456cc0d34a',
        'throughput_mbps.csv':
            '57b08b644c6c286ac181b69ef7629c1e845cb04871805b681697f56fcb075795',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'industrial_ring_mixed-RM': {
        'events.jsonl':
            'af3b6ec55ab1b1ddc164e51102367e9ef39ad27a89785e9034d13ede01679a10',
        'llde_cycles.csv':
            '70b1b6d9f6b3a0270361f647304c7683e31be7c98a429ef8bf030b853339a5ac',
        'manifest.json':
            '37e9913c6e2f88624c9562d4e23478e8178873bb5a86974c0062bbed0c26c4ce',
        'restoration_ms.csv':
            'a502af288dcf0eb6bcc952f08101e5197978a0d8b8680d092c34a379b5c52c37',
        'success_rate.csv':
            'e1842c3f3c2bffed9a3dd4ac80282fdf66f652e34f201227183b643f65da43cf',
        'success_rate_strong.csv':
            '6ffd0e17ec29f2fa328aca3df3573ccc3692361e0fc822845c2141769551f68f',
        'summary.json':
            '98b9fb3aca137cb15d7cca25923249e1409d7bbff93372566159ddfc86274982',
        'throughput_mbps.csv':
            '63c05bd8dfb37973fb9aad6e1ebc351acf235e033e6402b4356b06cd7945a7d1',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'linear_chain-woRM': {
        'events.jsonl':
            'd151b76fb360e9bbbd759ffbd0a52336a47ff8142ebffa8180f63e383d35daa6',
        'llde_cycles.csv':
            '4ddab585d9afd39e821533641951eba63da845745d317d5bef0c6c2050f521d4',
        'manifest.json':
            'ecbe6baf8c45eefde5f149342b3b38d3161298bdd45942e5cd1e3790802fc451',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '3aa39be15348f0a71f2d3f8d503168d1447b8bf86cf75679887c0102a8464850',
        'success_rate_strong.csv':
            '3aa39be15348f0a71f2d3f8d503168d1447b8bf86cf75679887c0102a8464850',
        'summary.json':
            '84f276af042cba78607ae7e417eea6c5feb1507fa6a61d537e2d9c2de57dc06b',
        'throughput_mbps.csv':
            '411ab83ee433665a8bef511f2e70d5f4929ba8a3a8dddf6e069d4d53d223743d',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'linear_chain-sRM': {
        'events.jsonl':
            '50b7e0b81eaaa93ef4ef022f04065639a673ac81979913b70d49f5e40bb0afb2',
        'llde_cycles.csv':
            '4ddab585d9afd39e821533641951eba63da845745d317d5bef0c6c2050f521d4',
        'manifest.json':
            '783345226e43062b3b1f6042bf982343d6f91ef5851fab4b374de487caafb886',
        'restoration_ms.csv':
            '85e6e9c51e4ff4f0deff24f9135a6680dafdcd349ddb0d91456d90792b601e41',
        'success_rate.csv':
            'ed4e6be38e4caf14f97a3126ddbefba0d5bad2e770db109896907eff8b003b9d',
        'success_rate_strong.csv':
            'ed4e6be38e4caf14f97a3126ddbefba0d5bad2e770db109896907eff8b003b9d',
        'summary.json':
            'b6cc7ec3fd28bb0bdc425bbcdea0b2843f83801f06acf8c96e4804d54b04fb75',
        'throughput_mbps.csv':
            'bc2dd690371f6d3f87b0c398cfb45ab52c5809488223b1c1425bf2be7a94dfd6',
        'warnings.csv':
            '310c24f96ad73bace680d7a89c143fe26af7513b061ca128b68c1ddd39d330e8',
    },
    'linear_chain-pRM': {
        'events.jsonl':
            '50b7e0b81eaaa93ef4ef022f04065639a673ac81979913b70d49f5e40bb0afb2',
        'llde_cycles.csv':
            '4ddab585d9afd39e821533641951eba63da845745d317d5bef0c6c2050f521d4',
        'manifest.json':
            'cf2feded357604ab5ff6c71e2bc1385d6b1b9444716104773c29f49b59b12228',
        'restoration_ms.csv':
            '5110b4c37a7cba390df5b19e61be0b5e02ccc0bca7975e03a8941cf71849d429',
        'success_rate.csv':
            '715de5f68023fb824e4978e265c9138c713e64556cfda49a671c498aea8ddf22',
        'success_rate_strong.csv':
            '715de5f68023fb824e4978e265c9138c713e64556cfda49a671c498aea8ddf22',
        'summary.json':
            'b55d808c5e8cd5e7654c7146c08afce97e459dbc13c699a620ba5019a17b23ea',
        'throughput_mbps.csv':
            '8343f25ea5e6370e7e4a2ca3b0b7df52b1a66ad97a6d5c1a809aa569bf8a6c95',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'linear_chain-RM': {
        'events.jsonl':
            '50b7e0b81eaaa93ef4ef022f04065639a673ac81979913b70d49f5e40bb0afb2',
        'llde_cycles.csv':
            '4ddab585d9afd39e821533641951eba63da845745d317d5bef0c6c2050f521d4',
        'manifest.json':
            '4beee39c2010fd8ff85c9bfd23221f002d0c1f139500b6989f90de066d6218f2',
        'restoration_ms.csv':
            'b1af12735e7f7fcdb793682f239d6940b7459b798ddd1d5ceef98b5ef8c4363a',
        'success_rate.csv':
            'ac961e7af71297ada485f8f6197ee93bc4ebe7bd174465783b1e316265c8b0b3',
        'success_rate_strong.csv':
            'ac961e7af71297ada485f8f6197ee93bc4ebe7bd174465783b1e316265c8b0b3',
        'summary.json':
            '31a5fed424e70bdf2f9206b08857bac0fc3d9c4153063ab308c4466173acb308',
        'throughput_mbps.csv':
            '48ba49b3e431ee76d6965b456e467c061b75416281e9630ab7dc1be09c991b91',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'mesh20_e1-woRM': {
        'events.jsonl':
            '2ddd3a6f7cf53ef1155a88bb02310960d3f7f20fe07b652c69fd11df92ab10eb',
        'llde_cycles.csv':
            '8ae86b6b91ade1ad22d3825b578682f0c81d3581fcd6adafa36e975ed4d75d2b',
        'manifest.json':
            'c8745c877e9fb5522894527a09529a3f4760af021db49c26ed30a0c6e9c33cc9',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            'a3ad6a24052ac238e1423c78fc05035f0dfe770f617454a68819e0c40eb8be3b',
        'success_rate_strong.csv':
            'a3ad6a24052ac238e1423c78fc05035f0dfe770f617454a68819e0c40eb8be3b',
        'summary.json':
            '2390879b05e2b7b8c8b0f1dba495e944a7a94fbd0b8aee6bb15e5b357c1934c4',
        'throughput_mbps.csv':
            'e0929953f5b7e8604996728fd1ae91f166138c65a01b0f00b593612223614f1d',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'mesh20_e1-sRM': {
        'events.jsonl':
            '4d64b3e0df9c567301acdb0b965f65128463fe02e684545b4a759e30136030d3',
        'llde_cycles.csv':
            '8ae86b6b91ade1ad22d3825b578682f0c81d3581fcd6adafa36e975ed4d75d2b',
        'manifest.json':
            '379973e780c363171b40e6f907ac301908bd12454caf72ee0e016300e8d0f89d',
        'restoration_ms.csv':
            'ab0bc92da5f01fcdbb08c59fd72772497a97b879891a5abec48f83ca9e79c7cb',
        'success_rate.csv':
            '89af2c797fc823fcfa81a2c26e8719db0aad47f5c83ceb500fc6b4a5140707c4',
        'success_rate_strong.csv':
            '89af2c797fc823fcfa81a2c26e8719db0aad47f5c83ceb500fc6b4a5140707c4',
        'summary.json':
            'cdbf2ed981857df348b0c592f7845baa2655129399ff8f0616a7fd05d8fad15d',
        'throughput_mbps.csv':
            '87a8b5060d2f95e8d4e672cbf9fe574d24dcbbacc5e28543cc8c48d2429dcaf5',
        'warnings.csv':
            '819826633a8c03290af1efebf6c0bd2e1fdee147e97da548cb161ca9a0518cd4',
    },
    'mesh20_e1-pRM': {
        'events.jsonl':
            'c388c850d8a2bc8c18684f3bfebbfb144a3936cd0f629932b5cfccbea5fb6125',
        'llde_cycles.csv':
            '8ae86b6b91ade1ad22d3825b578682f0c81d3581fcd6adafa36e975ed4d75d2b',
        'manifest.json':
            'ffdee421ec69294f837dd0161fba54f2697cbc50217016fda7d1be7458860adb',
        'restoration_ms.csv':
            'ff698beac02a4c8e1d144d9ec7b480942267f3f393181852da691e2953b8e97c',
        'success_rate.csv':
            '8392f71f87f0b24be3733c4a6f2d9ff0671e029ca7092aad3c7584d6ebed4dfb',
        'success_rate_strong.csv':
            '009f861d96df1f5d5b6484757fc9b7af0f9f7e5eb523980ee2014785e8f767a7',
        'summary.json':
            'd923b01e8e90c9e920aa809dc95238f3a888811bd49ea775973cab093246848c',
        'throughput_mbps.csv':
            '770f8a14af98481902cd95c7984d68a358a1ef72e69f02e04595839827dfde3d',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'mesh20_e1-RM': {
        'events.jsonl':
            '146696e388abb66421b4d8e56eed646db7840d760c8d321429aa56d8d43f2e1c',
        'llde_cycles.csv':
            '8ae86b6b91ade1ad22d3825b578682f0c81d3581fcd6adafa36e975ed4d75d2b',
        'manifest.json':
            'c7a2cec8d28ec01f71e6735c44f568136564ca630ecabd5f228127243acf901f',
        'restoration_ms.csv':
            '87b1c4417f118f506da60a0a8038d99e605f3afeb8a10f5b6bc34d78ba7c3376',
        'success_rate.csv':
            '49e218fbeb89be16aab0fed9e89a03deb1bd78ea167c6ae8035723f3643ca20e',
        'success_rate_strong.csv':
            '21ee886553e5dd1eeeb2063b46ecf12e054ee64dc3ac4a0be1c1fc296d519455',
        'summary.json':
            '56f563d1931073ea9ad57a3c0ed254e07ebfea8132e1dc84532f6b92959ceade',
        'throughput_mbps.csv':
            'f9a9fce337d785f1b1ba70ff2ed1d77184b8f13c66946f2c3291f2f90edfb2ae',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'mesh20_e2-woRM': {
        'events.jsonl':
            '41fb4f5b25883cba2f7e46df0437036df16751f2f13316ea679c0a320cab0491',
        'llde_cycles.csv':
            'd5b490d69a2f49d5996ede52313082393ad6760df14f1aa94d11bc504e0d8374',
        'manifest.json':
            'fa31ab11180b484fbe4dcd5a3ef4cc39d3c4d85e1e4eff4547c3d7391dbfcc98',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '83fe001de93750d4ada0228b31e3e7b448327f7d7b505506ab945ef9d0d62c8d',
        'success_rate_strong.csv':
            '83fe001de93750d4ada0228b31e3e7b448327f7d7b505506ab945ef9d0d62c8d',
        'summary.json':
            'eca7d29b1a918c75f673bc232943cb3ada6325355ad9885f5e1f590b26933136',
        'throughput_mbps.csv':
            '96556a83220058cca0d809ee06d85671f8d67bd33b3ed1c32e0f626201b0f5c1',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'mesh20_e2-sRM': {
        'events.jsonl':
            'b6e263053f59441283694abed4bea617341e0ed561f228e5997c076d46b1eaa4',
        'llde_cycles.csv':
            'd5b490d69a2f49d5996ede52313082393ad6760df14f1aa94d11bc504e0d8374',
        'manifest.json':
            'd07ce2d1672aa61b206acf19213e57c7a91bae33d733e2a689b4ad80bba64d26',
        'restoration_ms.csv':
            '25918ac242e45ef0195d95aa50a3bcb04ab30caa8ace65fe82db50ca301d9c79',
        'success_rate.csv':
            'c861a2a4e6721516fd84f2a47c4e72eae5cbdab10e0bae78536856642a5765f7',
        'success_rate_strong.csv':
            'c861a2a4e6721516fd84f2a47c4e72eae5cbdab10e0bae78536856642a5765f7',
        'summary.json':
            '2f81d38fabf460e6764c21e54783a08d1a2a375ef1faa91fd2fa42c1cadab647',
        'throughput_mbps.csv':
            '9e22d9f4c95b64f59c77f9ee0f6945152f0cfecdf11db0a8ddf3a78df5a8e4a4',
        'warnings.csv':
            '19ae0338ba65130c8bd4f336a184c5362d96c0d819df4a610d4efe5384c2b698',
    },
    'mesh20_e2-pRM': {
        'events.jsonl':
            'dcfe306477d1c99081bfd71d2686769ab0b8fac981d2193a374ff54d7697a63d',
        'llde_cycles.csv':
            'd5b490d69a2f49d5996ede52313082393ad6760df14f1aa94d11bc504e0d8374',
        'manifest.json':
            'ee9dd99283757c6be7fa78c0adfb098a2e1b52ef733a3c45962e71e6980e01ff',
        'restoration_ms.csv':
            'aa0b2e369bc99b333a6b2e620eeaa3498c73819966b3923fd3554ef2b9d3da01',
        'success_rate.csv':
            'c20907dcf452a8f482f62195f5465583e763a6d9ee64b0329c1ff0c074fbfcf0',
        'success_rate_strong.csv':
            'b4813c5779d52767fc9754859805e9d81b695c00d243d9a2c408d2607d770108',
        'summary.json':
            '5a03beba4db21d3b0b84a92291e23e041470e59ca0a65b887b03116557507025',
        'throughput_mbps.csv':
            'f1748af7f497f04c6da42daf0a7a9070e4cba9aee9b5d1cdcb2547fa2b106e7e',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'mesh20_e2-RM': {
        'events.jsonl':
            'db0e30ba23d0cfbf6cb5d5a6f1443edf83636ddbe7aadde1e11a764fa4a9ab92',
        'llde_cycles.csv':
            'd5b490d69a2f49d5996ede52313082393ad6760df14f1aa94d11bc504e0d8374',
        'manifest.json':
            '39d176e2fb1cd3d913fc70a44977789d51a5f66bf5c11de42681e8fb460424e7',
        'restoration_ms.csv':
            '2dd6481d38840275aaa877d0480e6c565e142c5f80f5dd0c0fadd1c48a8641d1',
        'success_rate.csv':
            '49e218fbeb89be16aab0fed9e89a03deb1bd78ea167c6ae8035723f3643ca20e',
        'success_rate_strong.csv':
            '53babad828c63d6167772aeb547b41bc67306b75f0901792e0e926e2a59515fc',
        'summary.json':
            '80ba701614696395cd2ea50ff78d0db5d5545ccf47698ff4c2afc1954399734c',
        'throughput_mbps.csv':
            'f9a9fce337d785f1b1ba70ff2ed1d77184b8f13c66946f2c3291f2f90edfb2ae',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'mesh20_mixed-woRM': {
        'events.jsonl':
            'd5ea5713eaa44070e5d5c1569e2acbf9ad090c9faf3d45fe4f1b5c2483449067',
        'llde_cycles.csv':
            '56a9fa487cca7efd99ea1ab807f9572182c63b800fb40c325904c188f1669359',
        'manifest.json':
            '7e568d857123fb3e34322f9b9d90f25d93f3ed294358e06daa0d331ab5261f6b',
        'restoration_ms.csv':
            'a29c23cbe1fd39f9cfacf3acf5fd3fbf6c0820d6ee2372d7dc1a06b8010f2d81',
        'success_rate.csv':
            '45287a500cfa287e2b3584db0d78b618fab988b66efd674953a5e48bd80e6d94',
        'success_rate_strong.csv':
            '45287a500cfa287e2b3584db0d78b618fab988b66efd674953a5e48bd80e6d94',
        'summary.json':
            '4d91f7b59a191329d45d05f6f9d66d4318a25e7ee668e218637df91c57a4732f',
        'throughput_mbps.csv':
            'dd5dad33b993ddd1901ee016fe1e8f2267852899b44eea07dffeec9fcb0bb39c',
        'warnings.csv':
            '162ff5d5317047f4f218d3ab20aef38544eef6ad5bc00ebbe42b1b7a5a1d06f2',
    },
    'mesh20_mixed-sRM': {
        'events.jsonl':
            '4125199aab8ba0e03ae413fb43668d0b963aba6a7ce24e50d0da26d7bae668fb',
        'llde_cycles.csv':
            '56a9fa487cca7efd99ea1ab807f9572182c63b800fb40c325904c188f1669359',
        'manifest.json':
            '6c3c254c9a0f0593a5697945b48ec17c2593c991965226ccaf34ef4f6b0fe742',
        'restoration_ms.csv':
            '70b73097662f48c3fec2a5673e77bd1abd943cfe948f42f4b62a922e11e4d0a5',
        'success_rate.csv':
            '78bb517d8ed178953b23da2e5dd1572de2ce2b723f57e25548caeb95b56164a0',
        'success_rate_strong.csv':
            '78bb517d8ed178953b23da2e5dd1572de2ce2b723f57e25548caeb95b56164a0',
        'summary.json':
            'f3475065d0ccc765d179b661e282830e2811754f8c08e91c08b09f5cf3d4fefc',
        'throughput_mbps.csv':
            '37950702edcc95e9462b753a9dda441657dc4f052b2477278a1805da55b51785',
        'warnings.csv':
            '5498a180408be7421f51e72756029222bd64461ed6913aa5e29dca41f8cc5ca9',
    },
    'mesh20_mixed-pRM': {
        'events.jsonl':
            '1f12a30e461a944915d7d68f3325adf12405027e823bd8e98b226d7840e681c8',
        'llde_cycles.csv':
            '56a9fa487cca7efd99ea1ab807f9572182c63b800fb40c325904c188f1669359',
        'manifest.json':
            'ab7dc129e0d78ab1a8b2361969027bf27ecae2fb4020f8bc6f8dd1533c51801d',
        'restoration_ms.csv':
            '9302be7ae643539fadf7f7e16d5b3d47881e7ba992f9a14cc0f48dc7f5a09b85',
        'success_rate.csv':
            '1136e5e898b3adc1cb3b423683f4df2f59d929995aa93c2c2ac6d0b6eeaae66b',
        'success_rate_strong.csv':
            '44ff558b6481004582d06d68d18543ae06c015c05f87b6d48c3f8d6b25fa1e25',
        'summary.json':
            '2c68ee10c2d107ea2fcdffd0ff765d83842461715b532eca680731287de0d63e',
        'throughput_mbps.csv':
            '0a023c1f1add261de651a3b540221dd6cc0f0e375a064e626220d3aa09040d7a',
        'warnings.csv':
            'c0b250e885d643a22827d68f804bb7e6cf07e97a5aecbd097dd9485c75b098f6',
    },
    'mesh20_mixed-RM': {
        'events.jsonl':
            'b5e0a3b47645ffeaaca8300307f3e303e4b65cb7ad51805cd70b8e950fcd4e87',
        'llde_cycles.csv':
            '56a9fa487cca7efd99ea1ab807f9572182c63b800fb40c325904c188f1669359',
        'manifest.json':
            '7272eb74da4a501e0c37722f020c8add290486ac346156c683d9d7be16c18bb8',
        'restoration_ms.csv':
            'e169aa23852d5eaec8c51db0af83f4072e3c7821328c8f2b6c07064d62fbbf55',
        'success_rate.csv':
            '49e218fbeb89be16aab0fed9e89a03deb1bd78ea167c6ae8035723f3643ca20e',
        'success_rate_strong.csv':
            '5a34563dbffbed7d6c556b18c692a5041c88c3d6f09791a337bbde2a71cc0941',
        'summary.json':
            'c32d9d463aeb75aba2c8b6562f8144541f8640b989277cdd095b8130d6e914d0',
        'throughput_mbps.csv':
            'f9a9fce337d785f1b1ba70ff2ed1d77184b8f13c66946f2c3291f2f90edfb2ae',
        'warnings.csv':
            '4470cd8936335ccd4d9f2508eed6e947402808a653240e70861c826b4890a343',
    },
    'industrial_ring_e1-woRM-events': {
        'events.jsonl':
            'c854a9a7080551ff6326234585ba3bd0243358fadac1c4bd7d475b131f6aac46',
        'llde_cycles.csv':
            '6b4a249a5a56c0e18e066f485acd565c1098cb7baff618328b5d440b11fbab4a',
        'manifest.json':
            '41008ab134829500ed0545248bdda591cedfb57d93f77ab4be692fb5c2da60d9',
        'restoration_ms.csv':
            '0d9449ea4dac4905cd0fca4e325ae23abd21baa743887aee5be89f2dc4d31451',
        'success_rate.csv':
            '4a7bec98705dd745109a516394a8a185630f4672577f5fb92967b91be46a9f5e',
        'success_rate_strong.csv':
            '4a7bec98705dd745109a516394a8a185630f4672577f5fb92967b91be46a9f5e',
        'summary.json':
            '843e32bd6e7e59b7939d40f91b91ee032d7a283739b99eb1fb1bb03f8411dfc3',
        'throughput_mbps.csv':
            'c20ffa38f2489b27d11a8ad2dfa66801da5e76758767af2349ecdbd8ea080330',
        'warnings.csv':
            '8c52bb76b6f5e79a1a5a026099929d87ca866257b9bde6cc91d0b755f02e10f2',
    },
    'industrial_ring_e1-sRM-events': {
        'events.jsonl':
            'a9143a5b7aaf10e29fc15d97ddb7bf6cb07548c9365374cda6ccec77d7004f60',
        'llde_cycles.csv':
            '6b4a249a5a56c0e18e066f485acd565c1098cb7baff618328b5d440b11fbab4a',
        'manifest.json':
            'ca5f26e7a554b93c7b6bc3117deadbff71862bd67fe09332fd2a07a36769c234',
        'restoration_ms.csv':
            '20e4e4e626fbce84bed1ed70c4fd11368d7eead7f0488c25629373778a266e20',
        'success_rate.csv':
            'b07a0e7b04bcd6ecf560e88fd49ffc4d3f51561836e500c2475e145f9da8835c',
        'success_rate_strong.csv':
            'b07a0e7b04bcd6ecf560e88fd49ffc4d3f51561836e500c2475e145f9da8835c',
        'summary.json':
            '9098bfccee1d07f417aefb61807ea211b3ef629ba7ae105dc8e48bcaa27a296f',
        'throughput_mbps.csv':
            'a642a7db8119094bc7c7a90ef85358209b7047bd1db9331643694d3adf6a96ba',
        'warnings.csv':
            '2694ea1b474fa4fdb97118926e2380d75a47a988cce7096e8ba1e105c2b16e81',
    },
    'industrial_ring_e1-pRM-events': {
        'events.jsonl':
            '408e59cf5509fa9ea1cf9d44b64c0a5b6f40daefe3761322f440cd07ea29c981',
        'llde_cycles.csv':
            '6b4a249a5a56c0e18e066f485acd565c1098cb7baff618328b5d440b11fbab4a',
        'manifest.json':
            'e3a24f28d366b3c9673b0af08750466476ec8afe9e33c7a3a3739924a5644e82',
        'restoration_ms.csv':
            'e45053c48cd5899b0dba70ff45b9a2f0e7cdb60d8676da1abc3e4b2c81cb24a5',
        'success_rate.csv':
            'eaaafcd5a3d6e21801250e0a2f0d7dc8e5871c8af2a9b19a85c3945103103092',
        'success_rate_strong.csv':
            '87cace5d3933cf7743724facbab496456339bb7ba38b072a2ea812f3e3270f98',
        'summary.json':
            '7dec4a72b0948a2bc1338a69255be4507bb5d423dd43d106919a1a4d08ce4519',
        'throughput_mbps.csv':
            '7c8a68ece436c9bd611e0e35ab9fb89b0d746b98e9562efcb1268f01140818b2',
        'warnings.csv':
            '60e27df4ae5cdcc72c0e96bd990045b57b34cda6280986a0d983f834fecb1e08',
    },
    'industrial_ring_e1-RM-events': {
        'events.jsonl':
            'a9143a5b7aaf10e29fc15d97ddb7bf6cb07548c9365374cda6ccec77d7004f60',
        'llde_cycles.csv':
            '6b4a249a5a56c0e18e066f485acd565c1098cb7baff618328b5d440b11fbab4a',
        'manifest.json':
            '3ca8970a1ceb426b3cb7cb175f89d5577cc68e2c9d615e55c0b2fc437712fc51',
        'restoration_ms.csv':
            '737e680648adde20a2447f1c59b0f8b7d650300a48ce62d53f8e98917bc5f03f',
        'success_rate.csv':
            '4e36748e532247877dfe94155c92ce3279266066be78cc4180ac210ac4db5739',
        'success_rate_strong.csv':
            'f76aa065b51058389f721d8c9740f1f9001275fd69ac67ead7f747d44a4edd61',
        'summary.json':
            'b77e3b9bfd6335d916dba0b607f48c91e5f32da17985dbab64a81b99d705c051',
        'throughput_mbps.csv':
            '9995ded6dd731ecc56b285341657f9ac5374d4aa3def2ff19cf2023915ee0617',
        'warnings.csv':
            '7607f67b9b51c96312f9ca250c80527758f191e54512c7766e3652be1869ee57',
    },
    'mesh20_mixed-woRM+sRM+pRM+RM': {
        'events.jsonl':
            'd5ea5713eaa44070e5d5c1569e2acbf9ad090c9faf3d45fe4f1b5c2483449067',
        'llde_cycles.csv':
            '56a9fa487cca7efd99ea1ab807f9572182c63b800fb40c325904c188f1669359',
        'manifest.json':
            'fd5b00591dcd6744137bcd998df2fb358e62f7a1eb76f6b5b2ccb56e28b487e9',
        'restoration_ms.csv':
            'c397761c9e70a58985e53964e26cc002462e9ffca5998170b1500213c4f0d4e1',
        'success_rate.csv':
            '3250c9240c1fb1f7634491b8f7c9c0624eebbd388bcb5a5fc634dd0150195953',
        'success_rate_strong.csv':
            'd5df23285b770fb2d941561423498bb79254e860d751405f9275dc307bccf292',
        'summary.json':
            '4dd8284653e4fd9bc8f7d503e757da50bb06f72d03e753678d5037bad72beffa',
        'throughput_mbps.csv':
            'aa3a8edc30f6fdcee8f72ec8d2ff02cf00ba1db28cc64b33f315014f91c611ac',
        'warnings.csv':
            '16f3465223489da139d37e9932eea9956a0c0ea654c3a5992dacda1594e3153f',
    },
    'mesh20_mixed-RM+pRM+sRM+woRM-interval1s': {
        'events.jsonl':
            '0b54d0319c6ccbeb4b9ee9691f59f0f84c9325e92e6770bcde275c6a5bed4179',
        'llde_cycles.csv':
            '8f48b535f1437e52e755b510c64c247452805560ddf945ff4541e2bc61de0dae',
        'manifest.json':
            '492ecb71d7bd476d425b0c664e5084e63976046dd000c61d1e2000a6555c7333',
        'restoration_ms.csv':
            '2c36334f3bac66254de008c2dd5e293e9676f940e9257cd074636c8d9d438688',
        'success_rate.csv':
            '7ffeb3e90b5250be73eb9e23c7eb58800cdabc9332f7098eca7642234198c7a5',
        'success_rate_strong.csv':
            '4990a8985ef8077df6b820e5349b0843651099fef7d2009ca999b93153211690',
        'summary.json':
            '65f6b1c3d72021edccebabcca830fc0368a4028d28b53dfe571c18a232fe1b24',
        'throughput_mbps.csv':
            'd3aaf7d0fa0aa5f366be24396cb089fc878fb2b44f5d57dc97a482df1ae82a1d',
        'warnings.csv':
            '85f9cd99a22c7952467f93371eeb211b7b2023c3d9f6ee3695d56bf101325ddc',
    },
    'linear_chain-woRM+sRM+pRM+RM-queued-probes': {
        'events.jsonl':
            '0f95b7f146c0a446de8ba1b073c901a762ae4509598e3513fdf6a17a53c77718',
        'llde_cycles.csv':
            'cf79845038bb7c0c2479a77f16853ff7a3c30c0097f21a75ac4cccbb7e382aa3',
        'manifest.json':
            '80092617a793e3b7aa7e43049320595253e13176f63086bc8c09b1bd9371cdf5',
        'restoration_ms.csv':
            'a684a30d214eafcc61309348e809a645713c53977bd2e8dd554336b24b971e9d',
        'success_rate.csv':
            '190247d0517ed647a16bc07cbab1549830130b03116eeb1f8de248c7c9bfde55',
        'success_rate_strong.csv':
            '190247d0517ed647a16bc07cbab1549830130b03116eeb1f8de248c7c9bfde55',
        'summary.json':
            '38ff7f4ee278c16665507aedd42999c612299f032bb473d20b1e8daef54057c9',
        'throughput_mbps.csv':
            '6c6445acf832d13407eb92d770358013548f1556c03224773f19a45b346a6372',
        'warnings.csv':
            'a036547e094b625a0adef54fe4aad46df9a35d8b0361de6e4bc71a8809dcd0f8',
    },
    'industrial_ring_mixed-woRM+sRM+pRM+RM-events': {
        'events.jsonl':
            '9b8671ec8dc721b43fbc48d8fe3dc7771c0616c93f130c277323fd7c80606e13',
        'llde_cycles.csv':
            '6b4a249a5a56c0e18e066f485acd565c1098cb7baff618328b5d440b11fbab4a',
        'manifest.json':
            '7885cd9a19209438b04779fba68ff08e4514ae03e0934ff01879afa2ac71a61f',
        'restoration_ms.csv':
            '93c065fe1c052791534e40f416521e004f8a0d85951cf37230eb748e519f1dcc',
        'success_rate.csv':
            '41fc692f0ee0dae8bb16cc0579ad2d419928bcaf70d77b2ea8ff9a50c3c71221',
        'success_rate_strong.csv':
            'ea58be87510397f4b9a0a2a50f2dbd8ac4230f3b83cebea62db86602f597a2fa',
        'summary.json':
            'aca27d1218b266bd91b265f3a86f61cbd5d4afec96ef51dc5ab3936cabbefc24',
        'throughput_mbps.csv':
            'afe207a33f5b6619a24ddee82506c3bf72c84d889dc6f063c3eec17704360fc8',
        'warnings.csv':
            'f2f0165563cd9ffcc630ecd200d034927aeda2694d1044250e18fc0b84936ff7',
    },
    'mesh20_e2-woRM+sRM+pRM+RM-events': {
        'events.jsonl':
            '7285c50384dfc6359382e8f491f383e6435b4a56e9326fb3441321af47776bec',
        'llde_cycles.csv':
            'd5b490d69a2f49d5996ede52313082393ad6760df14f1aa94d11bc504e0d8374',
        'manifest.json':
            '4d309247ca1e8d7d47d671731ab5a879482730022c2b3d9a12a8d19b19647cb6',
        'restoration_ms.csv':
            '3e5f10289eaf9f41105c69139e7460336ea28485eb07bb6368eb850e7c6c12a0',
        'success_rate.csv':
            '3fe56436259a9f983a40e59ee02e5a6d494e7213970717d11175c996f9b34f64',
        'success_rate_strong.csv':
            '772fc86e7e4f3386eaa99019eeac849f8bfd7fd0c657999303d3a750c1dad3de',
        'summary.json':
            '9f7970d73adc6ca6fe4a62d8014cc17e52dd3fe83b32e61862215f050c27a582',
        'throughput_mbps.csv':
            '6d1fe9c14a1c062ad88c256badb2e1f2c55bf2e6f76fdf55d6c1d56a6bf77e49',
        'warnings.csv':
            '96810af64718e0a89751a03638a738e28e738115fb081925f042e3369a3634fd',
    },
}


if __name__ == "__main__":
    import tempfile

    sys.stdout.write("DIGESTS = {\n")
    for case in CASES:
        with tempfile.TemporaryDirectory() as out_dir:
            digests = report_digests(*case, out_dir)
        sys.stdout.write(f"    {case_id(*case)!r}: {{\n")
        for filename in sorted(digests):
            sys.stdout.write(f"        {filename!r}:\n"
                             f"            {digests[filename]!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
