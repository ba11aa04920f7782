"""The README's library example runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The fenced python block under the README's "Library use" heading."""
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    # At (6,1): t_spectrum, moments, kernel_dims, rank_profile,
    # bluher_counts, h_polynomials, build_family, correlation_distribution;
    # the values its comments give are the ones it computes.
    ns = {}
    exec(compile(library_example(), str(README), "exec"), ns)
    assert ns["brute"].as_dict() == {-32: 21, -8: 280, 16: 210, 64: 1}
    assert (ns["m1"], ns["m2"], ns["m3"]) == (512, 97280, 290816)
    dims, weights = ns["kernel"]
    assert len(dims) == len(weights) == 26 and weights.sum() == 512
    assert ns["roots"] == (26, 15, 21, 1)
    assert (ns["h1"], ns["h2"], ns["h3"]) == (0x61, 0x75, 0xB)
    assert capsys.readouterr().out.splitlines()[0] == "(512, 8) F1(0,0)"
