"""Microbenchmarks of the substrate components.

Unlike the figure benches (single simulations), these use
pytest-benchmark as intended -- repeated timed rounds -- to track the
throughput of the hot building blocks: AES, the functional ORAM access,
the DRAM channel service loop, and the event engine.
"""

import random

from repro.crypto.aes import AES128
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.oram.config import OramConfig
from repro.oram.path_oram import PathOram
from repro.sim.engine import Engine


def test_aes_block_encrypt(benchmark):
    aes = AES128(b"K" * 16)
    block = bytes(range(16))
    benchmark(aes.encrypt_block, block)


def test_aes_otp_72_bytes(benchmark):
    aes = AES128(b"K" * 16)
    counter = [0]

    def otp():
        counter[0] += 64
        return aes.keystream(1, counter[0], 72)

    benchmark(otp)


def test_functional_oram_access(benchmark):
    oram = PathOram(
        OramConfig(leaf_level=8, treetop_levels=2, subtree_levels=3), seed=1
    )
    rng = random.Random(1)
    n = oram.config.num_user_blocks

    benchmark(lambda: oram.read(rng.randrange(n)))


def test_dram_channel_throughput(benchmark):
    def service_burst():
        eng = Engine()
        channel = Channel(eng, "ch")
        for i in range(64):
            channel.enqueue(
                MemRequest(OpType.READ, 0, 0, bank=i % 8, row=i // 8, col=0)
            )
        eng.run()
        return eng.now

    benchmark(service_burst)


def test_event_engine_dispatch(benchmark):
    def chain():
        eng = Engine()
        state = {"n": 0}

        def step():
            state["n"] += 1
            if state["n"] < 1000:
                eng.after(1, step)

        eng.at(0, step)
        eng.run()
        return state["n"]

    benchmark(chain)
