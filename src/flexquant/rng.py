"""Named, independently seeded random streams.

One run seed fans out into fixed streams (weight init, batch shuffling,
swap-mask draws) so that adding draws to one stream never perturbs the
others, and so checkpoints can capture exact generator states.
"""

from __future__ import annotations

import numpy as np

from .numerics import ContractError

STREAM_NAMES = ("init", "shuffle", "swap")


class RngStreams:
    def __init__(self, seed: int):
        self.seed = int(seed)
        root = np.random.SeedSequence(self.seed)
        children = root.spawn(len(STREAM_NAMES))
        self._streams = {
            name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(STREAM_NAMES, children)
        }

    def __getitem__(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            raise ContractError(f"no random stream {name!r}; the streams are {STREAM_NAMES}")
        return self._streams[name]

    def state(self) -> dict:
        """JSON-serializable snapshot of all stream states."""
        return {
            "seed": self.seed,
            "streams": {name: gen.bit_generator.state for name, gen in self._streams.items()},
        }

    def set_state(self, state) -> None:
        """Restore a state() snapshot; ContractError naming what is wrong
        before any stream changes."""
        streams = state.get("streams") if isinstance(state, dict) else None
        if not isinstance(streams, dict) or type(state.get("seed")) is not int:
            raise ContractError('expected {"seed": int, "streams": object}')
        if set(streams) != set(STREAM_NAMES):
            raise ContractError(f"stream names {sorted(streams)} != {sorted(STREAM_NAMES)}")
        for name, gen_state in streams.items():
            if not _is_pcg64_state(gen_state):
                raise ContractError(f"stream {name!r} does not hold a PCG64 state")
        self.seed = state["seed"]
        for name, gen_state in streams.items():
            self._streams[name].bit_generator.state = gen_state


def _is_pcg64_state(s) -> bool:
    """Whether s has the form of numpy's PCG64 bit_generator.state."""
    def uint(v, bits):
        return type(v) is int and 0 <= v < 1 << bits

    return (isinstance(s, dict) and set(s) == {"bit_generator", "state", "has_uint32", "uinteger"}
            and s["bit_generator"] == "PCG64"
            and isinstance(s["state"], dict) and set(s["state"]) == {"state", "inc"}
            and uint(s["state"]["state"], 128) and uint(s["state"]["inc"], 128)
            and uint(s["has_uint32"], 1) and uint(s["uinteger"], 32))
