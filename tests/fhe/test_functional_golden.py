"""Functional-output goldens: exact ciphertext bytes of the CKKS layer.

Every other test of the functional scheme checks a decryption against a
tolerance.  These pin the SHA-256 of the exact output residues, so any
change to the arithmetic underneath (the NTT, base conversion, key
switching, rescaling) that is not bit-identical fails here, even if it
still decrypts within tolerance.

The parameters are the tier-1 bootstrap test's (N=64, 19 limbs,
dnum 4) at seed 1, the same set ``perfbench``'s ``paper_model`` runs.
All four outputs come from one module fixture in a fixed order, so the
digests do not depend on which tests are selected.

Regenerate (only with a stated cause for the change) with::

    PYTHONPATH=src python tests/fhe/test_functional_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.lr.data import Dataset
from repro.apps.lr.encrypted import EncryptedLrTrainer
from repro.fhe import BootstrapConfig, Bootstrapper, CkksParams, CkksScheme

GOLDEN = {
    "key_switch": "e74c20171504174dead47302b35ce8de81b5a5abd93609cb534b4a9f607710be",
    "rescale": "c070f5fecf1255391e959d59c2b0e506d60920156b44ca176531bbcfc2b0469a",
    "bootstrap": "374e996b7f60a29b46dfbf4201e34117fa381bccf20280b7a596aaabcfe6dd4d",
    "lr_iteration": "a626108f0cd38ee5b7eff4795e511ddd782cbf7aa6b23f783611305bb62cef16",
}


def _sha(*arrays, scale=None) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    if scale is not None:
        h.update(repr(float(scale)).encode())
    return h.hexdigest()


def _ct_sha(ct) -> str:
    return _sha(ct.c0.limbs, ct.c1.limbs, scale=ct.scale)


def compute_digests() -> dict:
    """Run the four operations once, in a fixed order, from seed 1."""
    scheme = CkksScheme(CkksParams(
        ring_degree=64, num_limbs=19, scale_bits=25, dnum=4,
        hamming_weight=8, first_prime_bits=30, seed=1,
        num_extension_limbs=8))
    rng = np.random.default_rng(1)
    n = scheme.params.ring_degree // 2
    z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.5
    ct = scheme.encrypt(z)
    ev = scheme.evaluator
    out = {}

    u0, u1 = ev.key_switcher.switch(ct.c1, scheme.relin_key)
    out["key_switch"] = _sha(u0.limbs, u1.limbs)

    out["rescale"] = _ct_sha(ev.rescale(ev.multiply(ct, ct)))

    boot = Bootstrapper(scheme, BootstrapConfig(eval_mod_degree=63,
                                                modulus_range=8))
    out["bootstrap"] = _ct_sha(boot.bootstrap(ev.mod_down_to(ct, 1)))

    trainer = EncryptedLrTrainer(scheme)
    dataset = Dataset(rng.random(size=(4, 3)),
                      (rng.random(4) > 0.5).astype(float))
    state = trainer.init_state(dataset.num_features)
    trainer.iteration(state, dataset)
    out["lr_iteration"] = _ct_sha(state.weights_ct)
    return out


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    for key, value in compute_digests().items():
        print(f'    "{key}": "{value}",')
