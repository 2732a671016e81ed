"""Byte-level pins of the engine's observable output.

The digests below were taken from the scan-every-bucket engine that
preceded indexed rule selection.  Any change to how `maximal_step` picks
its candidates must reproduce them exactly: the `export_trace_text` of the
acceptance instances, the full 101 x 101 multiplier sweep on one shared
compiled system, and the strict-mode ambiguity lists.

The non-preset digests were taken from the builder that emitted waste
collectors in every region and loop-stamped families up to stamp L+1; any
change to which rules the builder emits must reproduce them exactly.

The built-system digests pin every rule body, priority pair and
membrane of the serialized system, including rules no trace reaches.
They were taken from the builder that stopped emitting shadowed rules
and loop L's `reseed`, with every trace digest here unchanged; any
change to how the builder emits a system must reproduce them exactly.

The stage-window and cross-seed attribution digests were taken from the
string-matching trace readers that preceded `builder.rule_tag`; any change
to how a trace is split into loops and stages, or to how rule applications
are summed per stage, must reproduce them exactly.

To re-derive a digest after a deliberate semantic change, call the
`_*_digest` helpers below and paste the new values.
"""

from __future__ import annotations

import hashlib
from typing import List

from pgne.builder import (GameSpec, build_gne_system, build_mult_system,
                          mult_steps, stage_boundaries)
from pgne.engine import compile_system, export_trace_text, run
from pgne.harness import Preset, compare_engines, run_gne, sample_experiment
from pgne.oracle import simulate
from pgne.pspec import serialize_system
from pgne.symbols import sym
from test_gne import RARE_GAMES, rare_game

# Acceptance instances: the agreement set, the loop-profile seeds and the
# convergence run, each with its preset's loop count.
_INSTANCES = [("small", 2), ("small", 9), ("small", 15), ("small", 16),
              ("small", 17), ("default", 27), ("default", 31),
              ("default", 32), ("default", 1)]

_TRACE_SHA = {
    "small/2": "51117bb503bd864a53d37ea6a8b3a3fed0bae97a42a09d0c47825f4e02e231f6",
    "small/9": "7534c77f9b0a45d1f2be5e10eb915d1dfbf0ed9e866b565f0bbf4ce394cb7d21",
    "small/15": "cbb21fd1b4272041e34fd6726dd30f5dc16da8b233260f3d181cd7d706783a06",
    "small/16": "2fb44c1a95877270d1b3c76728f32246baf77e6e1d2c4424b584d3b182bed38f",
    "small/17": "10ace3d894881ef79e8626108a2c081071526989ae8cb37197daf680f923c040",
    "default/27": "11b9c50f49c836dba0af2fd6ed1855acbe8e0e24249cd244c8d76d6152dd2a14",
    "default/31": "778d38d10954453efbc11597f4afb640303e345786b3c748241e014a17689a24",
    "default/32": "1db77d428f141701728c9beafd3527ccd7ff2983430512d7be1663555eefaeb2",
    "default/1": "025cc9d9d8164445d486835889a21156a93447cc134df548f02c7ef3a165b784",
}

# Shapes outside the presets, each with its sampling seed: 1 and 4
# players, 2-5 slots, r_disc 2, 3, 7, 100 and 257, 1-4 loops (loops = 1
# leaves the stamp-carrying S5R44 family empty), zero d/alpha/beta and
# tiny or heavy masses.
_SHAPES = {
    "p1-s2-r2-l1": (Preset(1, 2, [[1, 2]], r_disc=2, loops=1), 3),
    "p4-s5-r3-l2": (Preset(4, 5, [[1, 2], [2, 3, 5], [1, 4], [3, 4, 5]],
                           r_disc=3, loops=2), 5),
    "p2-s4-r257-l3": (Preset(2, 4, [[1, 2, 3, 4], [2, 4]], r_disc=257,
                             loops=3), 7),
    "p3-s3-r7-l1-zero": (Preset(3, 3, [[1, 2], [2, 3], [1, 3]],
                                d_range=(0.0, 0.0), beta_range=(0.0, 0.0),
                                r_disc=7, loops=1), 11),
    "p1-s5-r100-l4-tiny": (Preset(1, 5, [[1, 2, 3, 4, 5]],
                                  mass_range=(0.0001, 0.0001), loops=4), 13),
    "p2-s2-r257-l1-heavy": (Preset(2, 2, [[1, 2], [1, 2]],
                                   alpha_range=(0.0, 0.0),
                                   mass_range=(100.0, 500.0), r_disc=257,
                                   loops=1), 17),
}

_SHAPE_SHA = {
    "p1-s2-r2-l1": "589e8ae2a6255aa40aae424b33a369db1ba19daab0e94275c54473a3563f64d5",
    "p4-s5-r3-l2": "70f14f97ec7029bb75ad49793e98cacc50969690a85279c1de7aab03262f8fff",
    "p2-s4-r257-l3": "e6c4f07f9b856ea1e65fb7e1c84283be5d3a62d79fcf2830c2e160ff04c66afd",
    "p3-s3-r7-l1-zero": "286f91273b43407698ec901dd36f75adf05e6e700171480dda1bc8b71ae52257",
    "p1-s5-r100-l4-tiny": "8fd338faa30f9021a6cdea6e7589873c8de299a0700e13be30fcc4d9f0687b5d",
    "p2-s2-r257-l1-heavy": "1c131e2e03fcd8b2b2c270d586ad59db0ed687714cf023951da76d97b3699e95",
}

_SWEEP_SHA = "d74f282a190b3193cee4dc5af824b3598b5f6b46e062ba393a223ae6e6ed8384"

# sha256 of `serialize_system` for the acceptance instances, the shapes
# above, the rare-path games and the stand-alone multiplier.
_SYSTEM_SHA = {
    "small/2": "268e8332b289b08a1b720bb39404a7ab3c68ff09be568c7c776a84395107d92b",
    "small/9": "b44a689cfe9fb36ecec067ad541970682ba9549ad3607c8bd7c5e6b26233450b",
    "small/15": "e36ff25401ff0aefa4d17e2dd528786a180f59c5cd312608c11e4cfb55073391",
    "small/16": "e0970a946aa37d3b4916296aef6294f5ca5c913fc13dc8034557515f9e72daa6",
    "small/17": "aaf5d0f83839d1abc81d1980e26a1ef2ad6672b76202567d9deaf3530d30a339",
    "default/27": "630963dbeb48f4c3d48ae33ff9aff8bce8f68b172f7450c22234f2b67faaa94c",
    "default/31": "3fef8e7bd11cec9ac9b39abc9095511b556e9a53ae17f21e82d6d750c53f1057",
    "default/32": "731450485f35512dfb56bc7bb3f4c250ec2d88a040e389922bd3df76dc99ba02",
    "default/1": "b87b15326a685d39593e62e8382d50ede982b4aad26370bc1be2e5eafc4eb082",
    "p1-s2-r2-l1": "9b228e8111a5f0e76ac7ade753ade77816c1c92edb19614a869609c5e9962fd4",
    "p4-s5-r3-l2": "23a0e9ea5e5733744038311c4b31da2b102a914a33a2a47a042098924a139195",
    "p2-s4-r257-l3": "8a4a08600d07a7892330c6abe4fb1721c418d166b442616e75384855c95fc8a9",
    "p3-s3-r7-l1-zero": "c767c8733f1fcb32962d70ce2692616d7b66607cd742d074e8d005060a33f472",
    "p1-s5-r100-l4-tiny": "152e2409fd7579332bbd168058dbf4c9ebdae6f81e9700d4c492029e08f280a3",
    "p2-s2-r257-l1-heavy": "b4bf03e857d199061e5dfb8b6796c6cadc4f0a291577e026d524fe55ce69f580",
    "fill": "c6bcc193ba286a1f104ca339a024aa2f30a9d29246176a945cb8034b1139762b",
    "surplus_err": "5f1ec6203fa84ffcd90b083347b4d8f917991dc5ae815f874b18e631b110c30e",
    "deficit_err": "5fe39f01017da85593e1abbc70ac5c92d7d57674136cf40619af1f0bf2a8064a",
    "mult_3x5": "d815852cfba25386f87ff6916298f663d42dc8175d7794e1747bf97ac38fe23a",
}

# "preset/seed" or a rare-path game: (number of ambiguities, sha256 of
# their text rows).  The presets produce none, and their empty lists are
# pinned all the same; fill keeps one real race, S5R21 over cand.
_AMBIGUITY_SHA = {
    "default/27": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "default/31": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "small/2": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fill": (1, "75836a1e3cc54eb0a6778e191fa0ae67ac1f688d10871dde50750ad0d30d91a8"),
}


# Per-loop stage windows read back from traces by `stage_boundaries`: the
# acceptance instances, whose windows all coincide because loop anatomy
# depends only on r_disc, plus default/27 cut short inside loop 10's
# stage 1 and stage 4, which leave stages missing.
_CUTS = (1120, 1190)
_TIMING_SHA = {
    **{f"{p}/{s}": "27c62410038f4d26bb2de3dcb487b9053429aff40adcc4e78d459f6a17b17b40"
       for p, s in _INSTANCES},
    "default/27@1120": "eec94dcfaf434e1983492f1ffbae122cb6640e1f5337f30cc5db0a2952bbfa71",
    "default/27@1190": "74a00e4fa2da5921b2468bd8978f73c90fbbb0b4a02b28248f5b99b3776a59cd",
}

# Per-loop application sums read back by `stage_boundaries`, `apps` sorted
# by key, for the same traces as `_TIMING_SHA`.  Taken from the pass that
# looked up every application before it skipped steps without a tagged rule.
_APPS_SHA = {
    "small/2": "68d54ae77095cdf812b1970b60e6ebbd19d8f34ac665bcd627fcb8714cbdb65a",
    "small/9": "b49e272c145091da0e0b48c59eb45b2f486bc7a5184376376e4feb6bf45dd624",
    "small/15": "b29579b68dd9f928e5517994ca7c8b83f35c929b95433343d3966af0e300c7f9",
    "small/16": "226e25ada1492598886012dffdbca739d30f009fcf32924ef56cfedf607c2b6d",
    "small/17": "174f7bcb1ec674ce61d9617561113cf725fe943fc91db2380e7ac8dae708bf54",
    "default/27": "9069cf7bf37fa9a855d005efb5dbf866c28549e76bd38d123bbb6826a7c72585",
    "default/31": "dd9f62c61d34aafd7ded0b3f2e4ae2942b67d4260d3e3ffef7ac9ef7ee9ed242",
    "default/32": "7ad72692362589aaacba7bc7dbfbc41e835387fe1bd73abf0e3ee4e40dc802a7",
    "default/1": "ac4abcfe750d40008248e9fbe54b27b60296a2aa5bac27c6a5435a592500b3d1",
    "default/27@1120": "40f012fe83ab7e65011f86d0758238560b8537d0b4ccf9511e80213110add5fe",
    "default/27@1190": "35894381cadb4e12dd8ceae9869cd0cf8996a72652328da4dc6bf571a083c615",
}

# Cross-seed comparisons: the engine run of one seed against the reference
# of another, so every stage of every loop diverges somewhere and the
# attribution of each stage is pinned.  (engine seed, reference seed):
# (number of divergences, sha256 of their text rows).
_CROSS_SHA = {
    ("default", 27, 31): (434, "5132fb17b1bc141c225c2dbb15c9d489339582c8fba12cbad0c3f2210874038e"),
    ("small", 2, 9): (214, "17b7e61cad3d8b43ea06a04b0e00dc94129218e646d98b2521e684b78dd35569"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_digest(preset, seed: int) -> str:
    res = run_gne(sample_experiment(seed, preset))
    return _sha(export_trace_text(res.trace))


def _sweep_digest() -> str:
    csys = compile_system(build_mult_system(0, 0))
    mc, cyc, mp = sym("mcand"), sym("cyc1"), sym("mplier")
    h = hashlib.sha256()
    for m in range(101):
        budget = mult_steps(m) + 10
        for n in range(101):
            tr = run(csys, max_steps=budget,
                     initial={"0": {mp: n}, "1": {mc: m, cyc: 1}})
            h.update(f"{m}x{n}\n{export_trace_text(tr)}".encode())
    return h.hexdigest()


def _game(name: str) -> GameSpec:
    """A rare-path game by name, or a preset game by "preset/seed"."""
    if name in RARE_GAMES:
        return rare_game(name)
    preset, seed = name.split("/")
    return sample_experiment(int(seed), preset)


def _ambiguity_digest(name: str):
    res = run_gne(_game(name), strict=True)
    rows: List[str] = [
        f"{a.step} {a.region} {a.symbol.text} {a.winner} {a.loser}"
        for a in res.trace.ambiguities]
    return len(rows), _sha("\n".join(rows))


def test_acceptance_traces_byte_identical():
    got = {f"{p}/{s}": _trace_digest(p, s) for p, s in _INSTANCES}
    assert got == _TRACE_SHA


def test_non_preset_traces_byte_identical():
    got = {name: _trace_digest(p, s) for name, (p, s) in _SHAPES.items()}
    assert got == _SHAPE_SHA


def test_mult_sweep_traces_byte_identical():
    assert _sweep_digest() == _SWEEP_SHA


def _system_digests():
    specs = {f"{p}/{s}": sample_experiment(s, p) for p, s in _INSTANCES}
    specs.update((name, sample_experiment(s, p))
                 for name, (p, s) in _SHAPES.items())
    specs.update((name, rare_game(name)) for name in RARE_GAMES)
    got = {name: _sha(serialize_system(build_gne_system(spec)))
           for name, spec in specs.items()}
    got["mult_3x5"] = _sha(serialize_system(build_mult_system(3, 5)))
    return got


def test_built_systems_byte_identical():
    assert _system_digests() == _SYSTEM_SHA


def test_strict_ambiguities_unchanged():
    got = {name: _ambiguity_digest(name) for name in _AMBIGUITY_SHA}
    assert got == _AMBIGUITY_SHA


def _timing_digest(trace) -> str:
    rows: List[str] = []
    for lt in stage_boundaries(trace):
        spans = " ".join(f"{sp.stage}:{sp.start}-{sp.end}" for sp in lt.spans)
        rows.append(f"{lt.loop} {lt.start} {lt.end} [{spans}] "
                    f"{lt.missing} {lt.payoff_step}")
    return _sha("\n".join(rows))


def _apps_digest(trace) -> str:
    return _sha("\n".join(f"{lt.loop} {sorted(lt.apps.items())}"
                          for lt in stage_boundaries(trace)))


def _cross_digest(preset: str, engine_seed: int, ref_seed: int):
    spec = sample_experiment(engine_seed, preset)
    rep = compare_engines(spec, result=run_gne(spec),
                          traj=simulate(sample_experiment(ref_seed, preset)))
    rows = [f"{d.loop} {d.stage} {d.key} {d.engine} {d.oracle}"
            for d in rep.divergences]
    return len(rows), _sha("\n".join(rows))


def _timing_digests(digest=_timing_digest):
    got = {f"{p}/{s}": digest(run_gne(sample_experiment(s, p)).trace)
           for p, s in _INSTANCES}
    sysd = build_gne_system(sample_experiment(27, "default"))
    for cut in _CUTS:
        got[f"default/27@{cut}"] = digest(run(sysd, max_steps=cut))
    return got


def test_stage_boundaries_unchanged():
    assert _timing_digests() == _TIMING_SHA


def test_stage_application_sums_unchanged():
    assert _timing_digests(_apps_digest) == _APPS_SHA


def test_cross_seed_attribution_unchanged():
    got = {key: _cross_digest(*key) for key in _CROSS_SHA}
    assert got == _CROSS_SHA
