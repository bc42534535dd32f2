"""The gradient battery itself: coverage, determinism, and non-vacuity."""

import numpy as np
import pytest

from modcap.tensor import FLOAT64, AttentionRun, LstmRun, Tensor
from modcap.gradcheck import (
    DEFAULT_TOLERANCE,
    ENCODER_MASKS,
    HARD_DOWNSTREAM_TENSORS,
    KERNEL_STACK_STEPS,
    KERNEL_STACKS,
    KERNEL_STEPS,
    KERNEL_VARIANTS,
    N_COMPOSITES,
    _encoder_inputs,
    _kernel_inputs,
    _stack_inputs,
    check_case,
    composite_cases,
    primitive_cases,
    run_battery,
)
from reference import relu


class TestBattery:
    def test_primitive_cases_all_pass(self):
        results = [check_case("primitives", name, f, x)
                   for name, f, x in primitive_cases(seed=0)]
        failures = [r.name for r in results if not r.ok]
        assert not failures
        assert len(results) >= 30

    def test_composites_all_pass(self):
        results = [check_case("composites", name, f, x)
                   for name, f, x in composite_cases(seed=0)]
        assert len(results) == N_COMPOSITES
        assert all(r.ok for r in results), [r.name for r in results if not r.ok]

    def test_composites_are_seeded(self):
        a = [name for name, _, _ in composite_cases(seed=0)]
        b = [name for name, _, _ in composite_cases(seed=0)]
        c = [name for name, _, _ in composite_cases(seed=1)]
        assert a == b
        assert a != c

    def test_small_seeds_draw_their_own_chains(self):
        # chain labels drawn at random repeat across seeds only by chance:
        # 8 seeds of 25 chains of 3 to 6 of 8 ops expect about one repeat
        labels = {seed: {name.partition("[")[2] for name, _, _ in composite_cases(seed)}
                  for seed in range(8)}
        shared = [len(labels[a] & labels[b]) for a in labels for b in labels if a < b]
        assert sum(shared) <= 3
        assert max(shared) <= 1

    def test_section_filter(self):
        results = run_battery(sections=("primitives",), seed=0)
        assert {r.section for r in results} == {"primitives"}

    def test_errors_are_reproducible(self):
        a = run_battery(sections=("composites",), seed=3)
        b = run_battery(sections=("composites",), seed=3)
        assert [(r.name, r.error) for r in a] == [(r.name, r.error) for r in b]

    def test_battery_can_fail(self):
        # relu evaluated exactly at its kink: the numeric derivative is the
        # two-sided average, the analytic one is not, so the check rejects it
        x = Tensor(np.zeros((2, 2)), requires_grad=True, dtype=FLOAT64)
        result = check_case("probe", "relu_at_kink", lambda t: relu(t).sum(), x)
        assert not result.ok

    @pytest.mark.parametrize("run, method, k, cases", [
        (LstmRun, "param_grads", 0, {"lstm_step_W", "lstm_cell_batched_W"}),
        (AttentionRun, "grads", 2, {"additive_attention_W_v",
                                    "additive_attention_masked_W_v"}),
    ])
    def test_cases_check_the_helpers_production_runs(self, monkeypatch, run, method, k,
                                                     cases):
        # a 1% error in one gradient of the unit kernel's array helpers
        # fails exactly the primitive cases that check it; the helpers
        # write each gradient into a stacked array given them (LstmRun), or
        # return it as one array per unit (AttentionRun)
        real = getattr(run, method)

        def off_by_one_percent(self, *out):
            if out:
                real(self, *out)
                out[k][...] *= 1.01
                return None
            grads = list(real(self))
            grads[k] = [g * 1.01 for g in grads[k]]
            return tuple(grads)

        monkeypatch.setattr(run, method, off_by_one_percent)
        failed = {name for name, f, x in primitive_cases(seed=0)
                  if not check_case("primitives", name, f, x).ok}
        assert failed == cases


@pytest.fixture(scope="module")
def decoder_section(gradient_battery):
    """The decoder section of the session's one battery run (conftest.py)."""
    return gradient_battery(DEFAULT_TOLERANCE).section("decoder")


class TestDecoderSection:
    def test_every_parameter_is_checked(self, decoder_section):
        names = {r.name for r in decoder_section}
        assert "input:r_obj" in names and "input:r_attr" in names
        param_cases = [r for r in decoder_section if r.name.startswith("param:")]
        assert any("unit1.ctrl" in r.name for r in param_cases)
        assert any("unit2.lstm2" in r.name for r in param_cases)
        assert any("enc.relation" in r.name for r in param_cases)
        assert any("embed" in r.name for r in param_cases)
        assert any("head" in r.name for r in param_cases)

    def test_decoder_section_passes(self, decoder_section):
        failures = [(r.name, r.error) for r in decoder_section if not r.ok]
        assert not failures


class TestKernelSection:
    def test_every_input_and_parameter_of_every_variant_passes(self, gradient_battery):
        results = gradient_battery(DEFAULT_TOLERANCE).section("kernel")
        failures = [(r.name, r.error) for r in results if not r.ok]
        assert not failures
        names = {r.name for r in results}
        assert len(names) == len(results)
        # every input and parameter, in the order the unit lists them; the
        # one-step hard case checks its downstream group last
        expected = []
        for n_steps in KERNEL_STEPS:
            for variant in KERNEL_VARIANTS:
                label = variant if n_steps == 1 else f"{variant}/T{n_steps}"
                unit, _, inputs = _kernel_inputs(variant, seed=0, n_steps=n_steps)
                assert inputs["i_prev"].shape == (n_steps, 2, 3)
                params = [name for name in unit.params("unit")
                          if variant != "uniform" or ".ctrl." not in name]
                case = ([f"{label}:input:{name}" for name in inputs]
                        + [f"{label}:param:{name}" for name in params])
                if variant == "hard" and n_steps == 1:
                    last = [n for n in case if any(d in n for d in HARD_DOWNSTREAM_TENSORS)]
                    case = [n for n in case if n not in last] + last
                expected += case
        # then every input and then every unit's parameters of each stack
        for n_units in KERNEL_STACKS:
            units, arena, inputs = _stack_inputs(n_units, seed=0)
            assert inputs["i_prev"].shape == (KERNEL_STACK_STEPS, 2, 2)
            assert arena.names == tuple(name for m, unit in enumerate(units, start=1)
                                        for name in unit.params(f"unit{m}"))
            expected += [f"stack{n_units}:input:{name}" for name in inputs]
            expected += [f"stack{n_units}:param:{name}" for name in arena.names]
        # then every input and parameter of the encoder kernel, unpadded
        # and padded
        for label in ENCODER_MASKS:
            _, params, inputs = _encoder_inputs(seed=0)
            expected += [f"{label}:input:{name}" for name in inputs]
            expected += [f"{label}:param:{name}" for name in params]
            assert len(params) == 15        # two projections, a 2-head relation module
        # then the word head's rows and weights
        expected += ["word_head:input:rows", "word_head:param:head.W", "word_head:param:head.b"]
        assert [r.name for r in results] == expected
        assert any(n.startswith("hard:param:unit.ctrl.proj") for n in names)
        assert any(n.startswith("hard/T3:param:unit.ctrl.proj") for n in names)
        assert any(n.startswith("single:param:unit.att.object") for n in names)
        assert {"stack2:param:unit2.ctrl.proj.W", "stack3:param:unit3.lstm1.W",
                "stack3:input:values"} <= names
        assert {"encoder:input:r_obj", "encoder/padded:param:enc.relation.head1.Wk",
                "encoder/padded:param:enc.attribute.fc.b"} <= names
