"""Fixed-key AES through libcrypto, and the TCCR hash built on it."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from oope import aes
from oope.errors import UsageError
from oope.rng import make_rng

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_pi(blocks):
    """π through `cryptography`, which the package itself never imports."""
    ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
    enc = ciphers.Cipher(ciphers.algorithms.AES(aes.KEY),
                         ciphers.modes.ECB()).encryptor()
    return enc.update(blocks) + enc.finalize()


def test_permute_matches_aes_ecb():
    rng = make_rng(1)
    for count in (0, 1, 2, 7, 32, 4096):
        blocks = rng.randbytes(16 * count)
        assert aes.permute(blocks) == reference_pi(blocks)


def test_permute_known_answer():
    # the key and π are part of the protocol: a change must show here
    # (and bump transport.PROTOCOL_VERSION)
    assert aes.KEY.hex() == "9e0c961e7404d5d9bfa7a1678fe68e5a"
    block = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("e626fa0751074d22545b950a6d5dd1da")
    assert reference_pi(block) == expected
    assert aes.permute(block) == expected
    assert aes.permute(block * 3) == expected * 3


def test_tccr_matches_its_definition():
    rng = make_rng(2)
    blocks = rng.randbytes(16 * 9)
    tweaks = [rng.getrandbits(128) for _ in range(9)]
    packed = int.from_bytes(b"".join(t.to_bytes(16, "big") for t in tweaks),
                            "big")
    got = aes.tccr(blocks, packed).to_bytes(len(blocks), "big")
    for i, t in enumerate(tweaks):
        x = blocks[16 * i:16 * i + 16]
        y = int.from_bytes(reference_pi(x), "big")
        z = int.from_bytes(reference_pi((y ^ t).to_bytes(16, "big")), "big")
        assert got[16 * i:16 * i + 16] == (z ^ y).to_bytes(16, "big")


def test_partial_block_refused():
    with pytest.raises(UsageError):
        aes.permute(bytes(17))
    # the refusal left nothing buffered in the shared context
    block = bytes(16)
    assert aes.permute(block) == reference_pi(block)


def test_threads_hashing_at_once_get_single_thread_results():
    # the owner's and the analyst's threads share one cipher context;
    # more threads than cores, switching as often as the interpreter can
    rng = make_rng(3)
    inputs = [(rng.randbytes(16 * (1 + i % 40)), rng.getrandbits(128))
              for i in range(64)]
    expected = [aes.tccr(b, t) for b, t in inputs]
    wrong, errors = [], []

    def worker(order):
        try:
            for _ in range(30):
                for i in order:
                    b, t = inputs[i]
                    if aes.tccr(b, t) != expected[i]:
                        wrong.append(i)
        except Exception as e:  # handed to the test thread below
            errors.append(e)

    orders = [range(64), range(63, -1, -1), range(0, 64, 2), range(1, 64, 2)]
    threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert not wrong


def test_package_import_leaves_cryptography_out():
    code = ("import sys, oope.engine, oope.cluster; "
            "sys.exit('cryptography' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0
