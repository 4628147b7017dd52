import re

from modgeod import verify


def test_tmax_caps_enumeration_ceilings_only():
    results = {r.name: r for r in verify.run_suite("all", tmax=7)}
    assert all(r.ok for r in results.values())
    for name, r in results.items():
        if name.startswith("counting."):
            continue
        if name == "geometry.sign_canonicalization":
            # its default of 6 lies below the cap
            assert r.detail == "tau through 6"
        elif name != "enumerate.primitive_halfbound_report":  # reports a threshold
            assert re.search(r"\b7\b", r.detail), (name, r.detail)
    assert results["counting.burnside_integrality"].detail == "tau through 200"
    assert results["counting.closed_form_agreement"].detail == "t through 40, m through 10"
    assert results["counting.mobius_crosscheck"].detail == "tau through 64"
