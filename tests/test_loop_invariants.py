"""The loop's config bookkeeping under random valid actuations.

A hypothesis state machine runs `ClosedLoop` on the bundled scenarios, for
every use case, and lets each epoch either propose the use case's own
command or a random valid actuation of a subset of `ACTUATABLE_FIELDS` on
a random cell.  Two rules must hold throughout:

- in every sensed window, `ConfigLog.lookup` gives, for each cell and each
  sample time, the config that was active when the window was simulated;
- a rolled-back epoch restores the prior cells exactly, and an accepted
  one leaves exactly the prior cells with the command applied.

The interference loop runs without trained agents (their training costs
about a second a scenario), so its own commands are no-ops and the random
actuations stand in for them.
"""
import copy

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from ranopt.loop import USE_CASES, ClosedLoop, Command
from ranopt.scenarios import load_bundled
from ranopt.simcore import engine
from ranopt.simcore.types import (ACTUATABLE_FIELDS,
                                  ALLOWED_CHANNEL_FRACTIONS, ALLOWED_CIO_DB,
                                  N_PATTERNS)
from ranopt.warehouse.subjects import SUBJECT_BEAM

SCENARIOS = ("single_cell_detuned", "two_cell_detuned", "toy_two_cell",
             "three_cell_hotspot", "diurnal_energy")
LOGGED_FIELDS = ("azimuth_deg", "tilt_deg", "tx_power_dbm", "pattern_id")
VALUES = {
    "azimuth_deg": st.floats(0.0, 360.0, exclude_max=True),
    "tilt_deg": st.floats(0.0, 15.0),
    "tx_power_dbm": st.floats(30.0, 53.0),
    "carrier_on": st.booleans(),
    "channel_fraction": st.sampled_from(ALLOWED_CHANNEL_FRACTIONS),
    "symbol_fraction": st.floats(0.10, 1.0),
    "cio_db": st.sampled_from(ALLOWED_CIO_DB),
    "pattern_id": st.integers(0, N_PATTERNS - 1),
}
# a random subset of the actuatable fields, each with a valid value
ACTUATIONS = st.lists(st.sampled_from(ACTUATABLE_FIELDS),
                      unique=True).flatmap(
    lambda names: st.fixed_dictionaries({n: VALUES[n] for n in names}))


def cell_dicts(scenario) -> list[dict]:
    return [c.to_dict() for c in scenario.cells]


class LoopBookkeeping(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(SCENARIOS),
                use_case=st.sampled_from(list(USE_CASES)),
                seed=st.integers(0, 3))
    def start(self, name, use_case, seed):
        self.loop = ClosedLoop(load_bundled(name), use_case, seed=seed)
        self.windows = []  # (t0, t1, each cell's active config)
        self.checked = 0
        sense = self.loop._sense_window

        def sense_and_note():
            active = copy.deepcopy(self.loop.cells())
            t0, t1 = sense()
            self.windows.append((t0, t1, active))
            return t0, t1

        self.loop._sense_window = sense_and_note
        for _ in range(self.loop.case.warm_up_windows):
            self.loop._sense_window()

    @rule(forced=st.none() | st.tuples(st.integers(0, 2), ACTUATIONS))
    def epoch(self, forced):
        loop = self.loop
        prior = copy.deepcopy(loop.scenario)
        if forced is not None:  # this epoch's command is a random one
            index, fields = forced
            cid = prior.cells[index % len(prior.cells)].cell_id
            loop.case = copy.copy(USE_CASES[loop.use_case])
            loop.case.optimize = lambda loop, before: Command(
                cid, fields, loop.use_case, loop.epoch)
        try:
            cmd, _, _ = loop.run_epoch()
        finally:
            loop.case = USE_CASES[loop.use_case]
        if loop.entries[-1]["decision"] == "rolled_back" or cmd.is_noop():
            assert cell_dicts(loop.scenario) == cell_dicts(prior)
        else:
            assert cell_dicts(loop.scenario) == cell_dicts(
                engine.apply_command(prior, cmd.cell_id, cmd.fields))

    @invariant()
    def config_log_matches_every_window(self):
        for t0, t1, active in self.windows[self.checked:]:
            times = set(self.loop.warehouse.read(SUBJECT_BEAM, ("t_s",), t0,
                                                 t1)["t_s"].tolist())
            for t in {t0} | times:
                for cid, cell in active.items():
                    assert self.loop.config_log.lookup(cid, t) == {
                        f: getattr(cell, f) for f in LOGGED_FIELDS}
        self.checked = len(self.windows)


# about 3 s: examples of up to 8 epochs on the small bundled scenarios
LoopBookkeeping.TestCase.settings = settings(max_examples=40,
                                             stateful_step_count=8,
                                             deadline=None)
TestLoopBookkeeping = LoopBookkeeping.TestCase
