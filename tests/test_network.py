"""Shared-weight network tests: swap execution, bank isolation, distances."""

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant import network, numerics
from flexquant.autograd import Tape, Tensor, no_grad
from flexquant.network import (
    ArchSpec,
    BatchNorm,
    BitWidthSet,
    ContractError,
    Conv,
    Dense,
    Flatten,
    MaxPool,
    MissingBankError,
    PrecisionBank,
    QuantNet,
    ReLU,
    StatsCollector,
    SwapMask,
    mlp,
    small_cnn,
)
from flexquant.numerics import NonFiniteError
from flexquant.quantizers import BitWidthError, weight_forward

from test_autograd import sum_of_squares


def make_net(bits=(8, 4, 2), hidden=(16, 16, 16), dim=6, classes=3, seed=0,
             share_bn=False, share_alpha=False):
    bitset = BitWidthSet(bits)
    arch = mlp(dim, list(hidden), classes)
    bank = PrecisionBank(bitset, arch, share_bn=share_bn, share_alpha=share_alpha)
    net = QuantNet(bank, rng=np.random.default_rng(seed))
    return net


@pytest.fixture
def batch():
    return np.random.default_rng(99).normal(size=(7, 6))


class TestArchSpec:
    def test_mlp_roles(self):
        arch = mlp(6, [16, 16, 16], 3)
        assert len(arch.learnable_names) == 4
        assert arch.num_blocks == 2  # first and last dense are unquantized
        assert arch.learnable_names[0] not in arch.block_index
        assert arch.learnable_names[-1] not in arch.block_index

    def test_block_indexing_input_to_output(self):
        arch = mlp(4, [8, 8, 8, 8], 2)
        blocks = [arch.block_index[n] for n in arch.quantized_names]
        assert blocks == [1, 2, 3]

    def test_json_round_trip(self):
        arch = small_cnn(1, 8, 4)
        again = ArchSpec.from_json(arch.to_json())
        assert again.to_json() == arch.to_json()
        assert again.names == arch.names

    def test_weight_shapes(self):
        arch = ArchSpec([Conv(2, 5, kernel=3, padding=1), BatchNorm(5), ReLU(),
                         MaxPool(2), Flatten(), Dense(20, 4), BatchNorm(4)])
        assert arch.weight_shape(arch.learnable_names[0]) == (5, 2, 3, 3)
        assert arch.weight_shape(arch.learnable_names[1]) == (20, 4)


class TestBitWidthSet:
    def test_sorted_descending_and_b1(self):
        s = BitWidthSet([2, 8, 4])
        assert list(s) == [8, 4, 2]
        assert s.b1 == 8

    def test_teachers_of(self):
        s = BitWidthSet([8, 6, 4, 2])
        assert s.teachers_of(2) == [8, 6, 4]
        assert s.teachers_of(8) == []

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(BitWidthError):
            BitWidthSet([8, 8])
        with pytest.raises(BitWidthError):
            BitWidthSet([1, 4])
        with pytest.raises(BitWidthError):
            BitWidthSet([])


class TestForwardContracts:
    def test_all_student_mask_matches_plain_forward(self, batch):
        net = make_net()
        mask = SwapMask(np.ones(net.arch.num_blocks, dtype=bool))
        with no_grad():
            plain = net.forward_at(batch, 8, mode="eval").data
            masked = net.forward_at(batch, 8, mask=mask, mode="eval").data
        np.testing.assert_array_equal(plain, masked)

    def test_all_teacher_mask_equals_teacher_forward_on_fresh_banks(self, batch):
        # fresh bank entries are identical, so the only differences could come
        # from block execution; an all-teacher student must match the teacher
        net = make_net()
        mask = SwapMask(np.zeros(net.arch.num_blocks, dtype=bool))
        with no_grad():
            swapped = net.forward_at(batch, 2, mask=mask, teacher_b=8, mode="eval").data
            teacher = net.forward_at(batch, 8, mode="eval").data
        np.testing.assert_array_equal(swapped, teacher)

    @pytest.mark.parametrize("call", ["train", "eval", "calibrate"])
    def test_each_bank_entry_is_read_once_per_call(self, batch, call, monkeypatch):
        net = make_net()
        reads = []
        entry = PrecisionBank.entry
        monkeypatch.setattr(PrecisionBank, "entry",
                            lambda bank, b: reads.append(b) or entry(bank, b))
        swap = SwapMask([False, True])  # block 1 runs at the teacher's 8 bits
        # calibration runs train mode with a collector inside no_grad
        mode = "eval" if call == "eval" else "train"
        extra = {"collector": StatsCollector()} if call == "calibrate" else {}
        with Tape() if call == "train" else no_grad():
            net.forward_at(batch, 2, mode=mode, **extra)
            assert reads == [2]
            net.forward_at(batch, 2, mask=swap, teacher_b=8, mode=mode, **extra)
        assert reads == [2, 2, 8]

    def test_eval_is_deterministic(self, batch):
        net = make_net()
        with no_grad():
            a = net.forward_at(batch, 4, mode="eval").data
            b = net.forward_at(batch, 4, mode="eval").data
        np.testing.assert_array_equal(a, b)

    def test_eval_under_a_tape_raises(self, batch):
        net = make_net()
        with Tape(), pytest.raises(ContractError, match="eval-mode batchnorm"):
            net.forward_at(batch, 8, mode="eval")

    @pytest.mark.parametrize("mode", ["calibrate", "Train"])
    def test_forward_at_takes_two_modes(self, batch, mode):
        with no_grad(), pytest.raises(ContractError, match=f"unknown mode '{mode}'"):
            make_net().forward_at(batch, 8, mode=mode)

    def test_eval_under_a_tape_records_nothing(self, batch):
        net = make_net()  # its first layer's weights require grad
        with Tape() as tape, pytest.raises(ContractError, match="eval-mode batchnorm"):
            net.forward_at(batch, 8, mode="eval")
        assert tape.nodes == []

    def test_missing_bank_raises_with_bit_width(self, batch):
        net = make_net()
        with pytest.raises(MissingBankError, match="bit-width 3"):
            net.forward_at(batch, 3, mode="eval")

    @pytest.mark.parametrize("field", ["running_mean", "running_var"])
    def test_eval_logits_checked_for_nan_bank(self, batch, field):
        net = make_net()
        getattr(net.bank.entry(4).bn[net.arch.bn_names[0]], field)[0] = np.nan
        with no_grad():
            net.forward_at(batch, 8, mode="eval")  # the other entries stay usable
            with pytest.raises(NonFiniteError, match="forward_at b=4 eval logits"):
                net.forward_at(batch, 4, mode="eval")

    def test_mask_without_teacher_rejected(self, batch):
        net = make_net()
        mask = SwapMask(np.zeros(net.arch.num_blocks, dtype=bool))
        with pytest.raises(ContractError):
            net.forward_at(batch, 2, mask=mask, mode="train")

    def test_teacher_not_above_student_rejected(self, batch):
        net = make_net()
        mask = SwapMask(np.zeros(net.arch.num_blocks, dtype=bool))
        with pytest.raises(ContractError):
            net.forward_at(batch, 4, mask=mask, teacher_b=4, mode="train")
        with pytest.raises(ContractError):
            net.forward_at(batch, 8, mask=mask, teacher_b=2, mode="train")

    def test_wrong_mask_length_rejected(self, batch):
        net = make_net()
        with pytest.raises(ContractError):
            net.forward_at(batch, 2, mask=SwapMask(np.ones(99, dtype=bool)), mode="train")

    def test_mixed_mask_uses_teacher_bank(self, batch):
        # perturb the teacher's alpha; a swapped block must see the change
        net = make_net(hidden=(16, 16, 16))
        mask = SwapMask(np.array([False, True]))
        name = net.arch.quantized_names[0]
        with no_grad():
            before = net.forward_at(batch, 2, mask=mask, teacher_b=8, mode="eval").data
            net.bank.entry(8).alpha[name].data = np.asarray(0.01)
            after = net.forward_at(batch, 2, mask=mask, teacher_b=8, mode="eval").data
        assert np.any(before != after)


class TestSharedWeights:
    def test_mutating_latent_changes_every_precision(self, batch):
        net = make_net()
        with no_grad():
            before = {b: net.forward_at(batch, b, mode="eval").data for b in (8, 4, 2)}
        name = net.arch.quantized_names[0]
        net.weights[name].data = net.weights[name].data + 0.5
        with no_grad():
            for b in (8, 4, 2):
                after = net.forward_at(batch, b, mode="eval").data
                assert np.any(after != before[b]), f"bit-width {b} ignored the weight change"

    def test_first_and_last_layers_identical_across_bits(self, batch):
        net = make_net()
        first = net.arch.learnable_names[0]
        last = net.arch.learnable_names[-1]
        # unquantized layers execute the latent tensor itself at every b
        for b in (8, 4, 2):
            with Tape() as tape:
                net.forward_at(batch, b, mode="train")
            used = {id(t) for node in tape.nodes if node.name == "matmul" for t in node.inputs}
            for name in (first, last):
                assert name not in net.arch.block_index
                assert id(net.weights[name]) in used

    def test_successive_tapes_each_reach_quantized_weights(self, batch):
        # no hook between tapes: a second tape must not reuse the first
        # tape's quantizer nodes, or its backward never reaches the latents
        net = make_net()
        for _ in range(2):
            for w in net.weights.values():
                w.grad = None
            with Tape() as tape:
                logits = net.forward_at(batch, 4, mode="train")
                loss = sum_of_squares(logits)
            tape.backward(loss)
            for name in net.arch.quantized_names:
                assert net.weights[name].grad is not None, name

    def test_tape_weights_survive_a_nested_no_grad_block(self):
        net = make_net()
        name = net.arch.quantized_names[0]
        with Tape() as tape:
            node = net.weight_at(name, 4)
            with no_grad():
                assert net.weight_at(name, 4) is not node
            assert net.weight_at(name, 4) is node
        coded = [n for n in tape.nodes
                 if n.name == "quantize_weights" and n.inputs[0] is net.weights[name]]
        assert coded == [tape.nodes[0]]

    def test_readme_loop_frees_each_finished_tape(self):
        import weakref

        from flexquant.datasets import gen_synthetic_blobs
        from flexquant.optim import SGD, ParamGroup

        net = make_net(dim=8, classes=4)
        bn_params, alpha_params = net.bank.named_parameters()
        opt = SGD([ParamGroup({**net.named_weights(), **bn_params, **alpha_params}, lr=0.1)])
        refs = []
        for xb, yb in gen_synthetic_blobs(4, 300, 8, 1.0, seed=7).batches(100):
            with Tape() as tape:
                loss = ag.cross_entropy(ag.softmax(net.forward_at(xb, 4, mode="train")), yb)
            tape.backward(loss)
            opt.step(); opt.zero_grad()
            refs.append(weakref.ref(tape))
        del tape, loss
        assert [r() for r in refs] == [None, None, None]

    def test_one_no_grad_block_codes_each_block_once(self, batch, monkeypatch):
        import flexquant.network as network

        net = make_net()
        calls = []
        real = network.quantize_weights_at

        def counting(w, b, b1):
            calls.append(b)
            return real(w, b, b1)

        monkeypatch.setattr(network, "quantize_weights_at", counting)
        with no_grad():
            first = net.forward_at(batch, 4, mode="eval").data
            for _ in range(2):
                np.testing.assert_array_equal(net.forward_at(batch, 4, mode="eval").data, first)
        assert calls == [4] * net.arch.num_blocks

    def test_no_grad_block_keeps_no_per_batch_entries(self):
        net = make_net()
        rng = np.random.default_rng(5)
        with no_grad() as block:
            for _ in range(50):
                xb = rng.normal(size=(7, 6))
                for b in (8, 4, 2):
                    net.forward_at(xb, b, mode="eval")
                net.forward_at(xb, 4, mode="train")  # train-mode batch norm
            keys = set(block.memo)
        # only parameter-derived values: the quantized weights, one per
        # (block, bit-width), and eval batch norm's affine, one per (BN layer, entry)
        weights = {(net, name, b) for name in net.arch.quantized_names for b in (2, 4, 8)}
        affines = {("batchnorm_eval", *map(id, (st.gamma.data, st.beta.data, st.running_mean,
                                                st.running_var)))
                   for b in (2, 4, 8) for st in net.bank.entry(b).bn.values()}
        assert len(affines) == 3 * len(net.arch.bn_names)
        assert keys == weights | affines

    def test_tape_runs_the_first_layer_once_per_batch(self, batch):
        net = make_net()
        first = net.weights[net.arch.learnable_names[0]]
        with Tape() as tape:
            for b in (8, 4, 2):
                net.forward_at(batch, b, mode="train")
        nodes = [n for n in tape.nodes if n.name == "matmul" and n.inputs[1] is first]
        # each bit-width records its own node over one shared output array
        assert len({id(n.output) for n in nodes}) == 3
        assert nodes[0].output.data is nodes[1].output.data is nodes[2].output.data

    def test_two_nets_in_one_block_each_use_their_own_weights(self, batch):
        a, b = make_net(seed=0), make_net(seed=1)
        alone = {}
        for net in (a, b):
            with no_grad():
                alone[net] = net.forward_at(batch, 4, mode="eval").data
        assert np.any(alone[a] != alone[b])
        with no_grad():
            for net in (a, b, a):
                np.testing.assert_array_equal(net.forward_at(batch, 4, mode="eval").data,
                                              alone[net])

    def test_train_tape_folds_each_relu_after_a_batch_norm_into_its_node(self, batch):
        net = make_net()
        with Tape() as tape:
            net.forward_at(batch, 4, mode="train")
        names = [n.name for n in tape.nodes]
        assert "relu" not in names
        assert names.count("batchnorm_train") == len(net.arch.bn_names)
        # a ReLU after anything else, or a second one, records its own node
        arch = ArchSpec([Dense(6, 8), ReLU(), Dense(8, 8), BatchNorm(8), ReLU(), ReLU(),
                         Dense(8, 3), BatchNorm(3)])
        other = QuantNet(PrecisionBank(BitWidthSet([8, 4]), arch), rng=np.random.default_rng(0))
        with Tape() as tape:
            other.forward_at(batch, 4, mode="train")
        assert [n.name for n in tape.nodes if n.name in ("relu", "batchnorm_train")] == [
            "relu", "batchnorm_train", "relu", "batchnorm_train"]

    def test_train_tape_quantizes_inside_each_quantized_matmul(self, batch, monkeypatch):
        """Train mode records no quantize_activation node: each quantized
        block's matmul node takes (input, alpha, weights). Eval calls
        quantize_activation once per block."""
        net = make_net()
        entry = net.bank.entry(4)
        with Tape() as tape:
            net.forward_at(batch, 4, mode="train")
        assert "quantize_activation" not in [n.name for n in tape.nodes]
        fused = [n for n in tape.nodes if n.name == "matmul" and len(n.inputs) == 3]
        assert [n.inputs[1] for n in fused] == [entry.alpha[name]
                                                for name in net.arch.quantized_names]
        calls = []
        real = network.quantize_activation
        monkeypatch.setattr(network, "quantize_activation",
                            lambda a, alpha, b: (calls.append(b), real(a, alpha, b))[1])
        with no_grad():
            net.forward_at(batch, 4, mode="eval")
        assert calls == [4] * net.arch.num_blocks

    @staticmethod
    def nonpositive_alphas(net, b):
        for name in net.arch.quantized_names:
            net.bank.entry(b).alpha[name].data[...] = -1.0
        return lambda: numerics.event_counts().get("alpha_nonpositive", 0)

    def test_nonpositive_alpha_counts_once_per_forward_not_in_backward(self, batch):
        """The fused node floors alpha once, in its forward; the backward
        that rebuilds the activation counts nothing."""
        net = make_net()
        count = self.nonpositive_alphas(net, 4)
        before = count()
        with Tape() as tape:
            loss = sum_of_squares(net.forward_at(batch, 4, mode="train"))
        assert count() - before == net.arch.num_blocks
        tape.backward(loss)
        assert count() - before == net.arch.num_blocks

    def test_calibration_forward_counts_nonpositive_alpha_once_and_records_nothing(self, batch):
        """Train mode under no_grad, as calibration runs it, inside a tape:
        one count per block, and no node on the tape."""
        net = make_net()
        count = self.nonpositive_alphas(net, 4)
        before = count()
        with Tape() as tape:
            with no_grad():
                net.forward_at(batch, 4, mode="train", collector=StatsCollector())
        assert count() - before == net.arch.num_blocks
        assert tape.nodes == []

    def test_eval_calls_relu_after_each_batch_norm(self, batch, monkeypatch):
        net = make_net()
        calls = []
        real = ag.relu
        monkeypatch.setattr(ag, "relu", lambda a: (calls.append(a), real(a))[1])
        with no_grad():
            net.forward_at(batch, 4, mode="eval")
        assert len(calls) == net.arch.layers.count(ReLU())

    def test_weight_cache_follows_active_tape(self):
        net = make_net()
        name = net.arch.quantized_names[0]
        with no_grad():
            plain = net.weight_at(name, 4)
            assert net.weight_at(name, 4) is plain
        with Tape():
            node = net.weight_at(name, 4)
            assert node is not plain and node.requires_grad
            assert net.weight_at(name, 4) is node
        np.testing.assert_array_equal(node.data, plain.data)

    def test_gradients_flow_through_swapped_teacher_blocks(self, batch):
        net = make_net(hidden=(16, 16, 16))
        mask = SwapMask(np.array([False, False]))
        with Tape() as tape:
            logits = net.forward_at(batch, 2, mask=mask, teacher_b=8, mode="train")
            loss = sum_of_squares(logits)
        tape.backward(loss)
        for name in net.arch.quantized_names:
            assert net.weights[name].grad is not None
            assert np.any(net.weights[name].grad != 0.0)


class TestBankIsolation:
    def test_training_one_bit_leaves_other_entries_bitwise(self, batch):
        net = make_net()
        snapshot = {}
        for b in (4, 2):
            entry = net.bank.entry(b)
            snapshot[b] = {
                name: (st.gamma.data.copy(), st.beta.data.copy(),
                       st.running_mean.copy(), st.running_var.copy())
                for name, st in entry.bn.items()
            }
        net.forward_at(batch, 8, mode="train")  # updates bank[8] running stats
        for b in (4, 2):
            entry = net.bank.entry(b)
            for name, st in entry.bn.items():
                g, bt, m, v = snapshot[b][name]
                np.testing.assert_array_equal(st.gamma.data, g)
                np.testing.assert_array_equal(st.beta.data, bt)
                np.testing.assert_array_equal(st.running_mean, m)
                np.testing.assert_array_equal(st.running_var, v)

    def test_train_mode_updates_own_running_stats(self, batch):
        net = make_net()
        entry = net.bank.entry(8)
        before = {n: st.running_mean.copy() for n, st in entry.bn.items()}
        net.forward_at(batch, 8, mode="train")
        changed = any(np.any(entry.bn[n].running_mean != before[n]) for n in before)
        assert changed

    def test_quantnet_takes_arch_and_bits_from_bank(self):
        bits, arch = BitWidthSet([8, 2]), mlp(6, [16, 16, 16], 3)
        bank = PrecisionBank(bits, arch)
        net = QuantNet(bank, rng=np.random.default_rng(0))
        assert net.arch is arch and net.bits is bits
        assert sorted(net.weights) == arch.learnable_names

    def test_entry_checks_range_then_presence(self):
        bank = make_net(bits=(8, 2)).bank
        for b in (1, 9, 16):
            with pytest.raises(BitWidthError, match=r"b must be in \[2, 8\]"):
                bank.entry(b)
            with pytest.raises(BitWidthError, match=f"bit-width {b}"):
                bank.ensure_entry(b)
        with pytest.raises(MissingBankError, match="bit-width 5.*calibration"):
            bank.entry(5)
        assert sorted(bank.entries) == [2, 8]
        assert bank.ensure_entry(5) is bank.entry(5)

    def test_shared_bank_aliases_entries(self):
        net = make_net(share_bn=True, share_alpha=True)
        assert net.bank.entry(8).bn is net.bank.entry(2).bn
        assert net.bank.entry(8).alpha is net.bank.entry(2).alpha

    def test_switchable_shares_alpha_only(self):
        net = make_net(share_alpha=True)
        name = net.arch.quantized_names[0]
        assert net.bank.entry(8).alpha[name] is net.bank.entry(2).alpha[name]
        assert net.bank.entry(8).bn is not net.bank.entry(2).bn

    def test_named_parameters_deduplicate_shared(self):
        net = make_net(share_bn=True, share_alpha=True)
        bn_params, alpha_params = net.bank.named_parameters()
        arch = net.arch
        assert len(bn_params) == 2 * len(arch.bn_names)
        assert len(alpha_params) == len(arch.quantized_names)

    @pytest.mark.parametrize("share_bn, share_alpha, bn_states, clips", [
        (True, True, 3, 1),  # joint
        (False, True, 9, 1),  # switchable_bn
        (False, False, 9, 3),  # adabits
    ])
    def test_shared_values_are_built_once(self, monkeypatch, share_bn, share_alpha,
                                          bn_states, clips):
        """Entries that share BN or clipping state take the b1 entry's, rather
        than building their own and dropping it."""
        made = []
        bn_init, tensor = network.BNState.__init__, network.Tensor
        monkeypatch.setattr(network.BNState, "__init__",
                            lambda st, n: made.append("bn") or bn_init(st, n))
        monkeypatch.setattr(network, "Tensor",
                            lambda data, **kw: made.append(np.ndim(data)) or tensor(data, **kw))
        PrecisionBank(BitWidthSet([8, 4, 2]), mlp(16, [64, 64], 4),
                      share_bn=share_bn, share_alpha=share_alpha)
        assert (made.count("bn"), made.count(0)) == (bn_states, clips)


class TestModelDistance:
    def test_zero_on_same_bit(self):
        net = make_net()
        assert net.model_distance(4, 4) == 0.0

    def test_symmetric(self):
        net = make_net()
        assert net.model_distance(8, 2) == net.model_distance(2, 8)

    def test_hand_arithmetic_on_fixed_pair(self, monkeypatch):
        net = make_net(hidden=(16, 16))  # one quantized block
        fixed = {
            8: np.array([0.6, -0.2]),
            4: np.array([0.6, -0.0667]),
        }
        monkeypatch.setattr(net, "weight_at", lambda name, b: Tensor(fixed[b]))
        assert net.model_distance(8, 4) == pytest.approx(0.06665, abs=1e-12)

    def test_matches_independent_sum(self):
        net = make_net(hidden=(16, 16, 16))
        expect = 0.0
        for name in net.arch.quantized_names:
            w = net.weights[name].data
            expect += np.mean(np.abs(weight_forward(w, 8, 8) - weight_forward(w, 2, 8)))
        assert net.model_distance(8, 2) == pytest.approx(expect, rel=1e-12)

    def test_rejects_bits_outside_set(self):
        net = make_net()
        with pytest.raises(BitWidthError):
            net.model_distance(8, 3)

    def test_argmin_teacher_computed_exactly(self):
        # brute-force argmin over candidate teachers must be reproducible
        net = make_net(bits=(8, 6, 4, 2))
        distances = {t: net.model_distance(t, 2) for t in (8, 6, 4)}
        best = min(sorted(distances, reverse=True), key=lambda t: distances[t])
        assert distances[best] == min(distances.values())


class TestBankBatchNorm:
    @staticmethod
    def running_bytes(net):
        return {(b, name): st.running_mean.tobytes() + st.running_var.tobytes()
                for b, entry in net.bank.entries.items() for name, st in entry.bn.items()}

    @staticmethod
    def moved_net(batch):
        net = make_net()
        with Tape():
            for b in net.bits:  # move the statistics off their defaults first
                net.forward_at(batch, b, mode="train")
        return net

    @pytest.mark.parametrize("call", ["eval", "calibrate"])
    def test_eval_and_calibrate_leave_running_statistics(self, batch, call):
        net = self.moved_net(batch)
        before = self.running_bytes(net)
        with no_grad():  # calibration runs train mode with a collector here
            for b in net.bits:
                mask = SwapMask(np.array([False, True])) if b < 8 else None
                net.forward_at(batch, b, mask=mask, teacher_b=8,
                               mode="eval" if call == "eval" else "train",
                               collector=StatsCollector() if call == "calibrate" else None)
        assert self.running_bytes(net) == before

    def test_train_inside_no_grad_changes_no_running_statistic(self, batch):
        # a no_grad block changes no state, whatever runs in it: every
        # bit-width, swapped blocks, batches of other statistics
        net = self.moved_net(batch)
        before = self.running_bytes(net)
        rng = np.random.default_rng(3)
        with no_grad():
            for b in net.bits:
                for mask in (None, SwapMask(np.array([False, False]))) if b < 8 else (None,):
                    net.forward_at(rng.normal(2.0, 3.0, size=batch.shape), b, mask=mask,
                                   teacher_b=8, mode="train")
        assert self.running_bytes(net) == before
        with Tape():  # a tape folds them, so the check above can fail
            net.forward_at(batch, 4, mode="train")
        assert self.running_bytes(net) != before

    def test_train_folds_with_the_bank_momentum(self, batch):
        arch = mlp(6, [16, 16, 16], 3)
        bank = PrecisionBank(BitWidthSet([8, 4, 2]), arch, bn_momentum=1.0)
        net = QuantNet(bank, rng=np.random.default_rng(0))
        collector = StatsCollector()
        with no_grad():  # the same batch statistics, folded nowhere
            net.forward_at(batch, 4, mode="train", collector=collector)
        with Tape():
            net.forward_at(batch, 4, mode="train")
        for name, (mean, _) in collector.finalize().items():
            np.testing.assert_array_equal(bank.entry(4).bn[name].running_mean, mean)
            assert not bank.entry(8).bn[name].running_mean.any()


def _three_dict_moments(chunks):
    """Reference: the pooled moments accumulated in three parallel dicts."""
    sums, sumsqs, counts = {}, {}, {}
    for name, x in chunks:
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        count = x.size // x.shape[1]
        s = x.sum(axis=axes)
        sq = (x * x).sum(axis=axes)
        if name not in sums:
            sums[name], sumsqs[name], counts[name] = s, sq, count
        else:
            sums[name] += s
            sumsqs[name] += sq
            counts[name] += count
    out = {}
    for name in sums:
        mean = sums[name] / counts[name]
        out[name] = (mean, np.maximum(sumsqs[name] / counts[name] - mean * mean, 0.0))
    return out


class TestStatsCollector:
    def test_matches_three_dict_reference_bitwise(self):
        rng = np.random.default_rng(5)
        chunks = []
        for n in (7, 16, 3, 9):
            chunks.append(("bn1", rng.normal(3.0, 1e-3, size=(n, 5))))
            chunks.append(("bn2", rng.normal(-2.0, 0.7, size=(n, 3, 4, 4))))
        collector = StatsCollector()
        for name, x in chunks:
            collector.update(name, x)
        got, expect = collector.finalize(), _three_dict_moments(chunks)
        assert list(got) == list(expect) == ["bn1", "bn2"]
        for name in expect:
            for a, e in zip(got[name], expect[name]):
                assert a.tobytes() == e.tobytes(), name

    def test_pooled_moments_match_direct(self):
        rng = np.random.default_rng(3)
        chunks = [rng.normal(size=(n, 5)) for n in (8, 16, 4)]
        collector = StatsCollector()
        for c in chunks:
            collector.update("bn", c)
        mean, var = collector.finalize()["bn"]
        full = np.concatenate(chunks, axis=0)
        np.testing.assert_allclose(mean, full.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var, full.var(axis=0), rtol=1e-10)

    def test_4d_channel_axes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3, 4, 4))
        collector = StatsCollector()
        collector.update("bn", x)
        mean, var = collector.finalize()["bn"]
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=(0, 2, 3)), rtol=1e-10)


class TestCnnForward:
    def test_eval_raises_on_nan_that_reaches_the_pool(self):
        """An Inf weight in the first conv meets the zero padding as NaN, which
        must reach the logits through max-pooling rather than vanish."""
        arch = small_cnn(1, 8, 3, channels=[4, 4, 8])
        net = QuantNet(PrecisionBank(BitWidthSet([8, 2]), arch), rng=np.random.default_rng(5))
        net.weights[arch.learnable_names[0]].data[0, 0, 0, 0] = np.inf
        x = np.random.default_rng(6).normal(size=(4, 1, 8, 8))
        with no_grad(), np.errstate(invalid="ignore"):
            for b in (8, 2):
                with pytest.raises(NonFiniteError, match=f"forward_at b={b} eval logits"):
                    net.forward_at(x, b, mode="eval")

    def test_train_tape_folds_the_pool_after_a_fused_relu_into_the_batch_norm(self,
                                                                               monkeypatch):
        """A cnn train forward records no maxpool2d or relu node: the first
        batch norm's node outputs the pooled tensor. A pool after a batch norm
        with no ReLU, or after a ReLU with no batch norm, records its own
        node, and eval calls maxpool2d."""
        x = np.random.default_rng(6).normal(size=(4, 1, 8, 8))

        def train_nodes(layers):
            """The net and its train tape's batch-norm, ReLU and max-pool nodes."""
            net = QuantNet(PrecisionBank(BitWidthSet([8, 2]), ArchSpec(layers)),
                           rng=np.random.default_rng(5))
            with Tape() as tape:
                net.forward_at(x, 2, mode="train")
            return net, [n for n in tape.nodes
                         if n.name in ("batchnorm_train", "relu", "maxpool2d")]

        net, nodes = train_nodes(small_cnn(1, 8, 3, channels=[4, 4, 4]).layers)
        assert [n.name for n in nodes] == ["batchnorm_train"] * 4
        assert nodes[0].output.shape == (4, 4, 4, 4)
        head = [Flatten(), Dense(64, 3), BatchNorm(3)]
        for layers, unfused in [([BatchNorm(4), MaxPool(2)], ["batchnorm_train", "maxpool2d"]),
                                ([ReLU(), MaxPool(2)], ["relu", "maxpool2d"])]:
            _, nodes = train_nodes([Conv(1, 4, 3, padding=1), *layers, *head])
            assert [n.name for n in nodes] == [*unfused, "batchnorm_train"]
        calls = []
        real = ag.maxpool2d
        monkeypatch.setattr(ag, "maxpool2d", lambda a, k: (calls.append(k), real(a, k))[1])
        with no_grad():
            net.forward_at(x, 2, mode="eval")
        assert calls == [2]

    def test_cnn_trains_and_evaluates(self):
        bits = BitWidthSet([8, 2])
        arch = small_cnn(1, 8, 3, channels=[4, 4, 4])
        bank = PrecisionBank(bits, arch)
        net = QuantNet(bank, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(4, 1, 8, 8))
        with Tape() as tape:
            logits = net.forward_at(x, 2, mode="train")
            probs = ag.softmax(logits)
            loss = ag.cross_entropy(probs, np.array([0, 1, 2, 0]))
        tape.backward(loss)
        assert logits.shape == (4, 3)
        assert all(w.grad is not None for w in net.weights.values())
