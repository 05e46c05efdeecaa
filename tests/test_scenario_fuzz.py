"""Typo fuzz over the bundled scenarios.

Each example mutates one bundled scenario: it inserts a token taken from
the same file, replaces a token with one, or duplicates or deletes a line.
The mutated text must parse, materialize its injections for seed 1 and
build a kernel; otherwise it must raise ScenarioError, naming its line or
one of the rules that are checked after the last line.  No other exception
may escape, and no example may take longer than TIME_LIMIT_S.
"""

import re
import signal
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sdnsim.harness import _start_kernel
from sdnsim.injections import materialize_injections
from sdnsim.resilience import variant_by_name
from sdnsim.scenario import ScenarioError, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(SCENARIO_DIR.glob("*.scn"))}

# A line-numbered message, or one of the rules that span the file or read
# [run] values, which are checked after the last line and name no line.
MESSAGE = re.compile("|".join((
    r"line \d+: .*",
    r"missing required section \[\w+\]",
    r"\[run\] needs emulation_time",
    r"link \S+: a \d+-bit probe crosses it in under 1 ns; .*",
    r"injection at \d+ ns outside the emulation window",
    r"auto window ends at \d+ ns, after emulation_time \d+ ns",
    r"emulation_time shorter than estimation_interval",
)))

TIME_LIMIT_S = 5


@st.composite
def mutated_scenarios(draw) -> str:
    lines = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))].splitlines()
    # Only lines with content: a mutated comment tests nothing.
    index = draw(st.sampled_from(
        [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]))
    words = lines[index].split()
    token = draw(st.sampled_from([t for line in lines for t in line.split()]))
    action = draw(st.sampled_from(("insert", "replace", "duplicate",
                                   "delete")))
    if action == "insert":
        words.insert(draw(st.integers(0, len(words))), token)
        lines[index] = " ".join(words)
    elif action == "replace":
        words[draw(st.integers(0, len(words) - 1))] = token
        lines[index] = " ".join(words)
    elif action == "duplicate":
        lines.insert(index, lines[index])
    else:
        del lines[index]
    return "\n".join(lines) + "\n"


def _time_out(signum, frame):
    raise TimeoutError(f"example took over {TIME_LIMIT_S} s")


@settings(max_examples=800, deadline=None, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenario_runs_or_fails_on_its_line(text):
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(TIME_LIMIT_S)
    try:
        scenario = parse_scenario(text)
        injections = materialize_injections(scenario, 1)
        _start_kernel(scenario, variant_by_name(scenario.variant), injections)
    except ScenarioError as exc:
        assert MESSAGE.fullmatch(str(exc)), str(exc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
