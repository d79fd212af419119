"""Memory behaviour of the D=512 training step: the glibc heap policy set
on import, gradient handover, and bytes that do not depend on what the
process ran before."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frmil
from frmil import autodiff as ad
from frmil.bagdata import make_bag
from frmil.model import bag_forward, init_params
from frmil.objectives import LossWeights, total_loss

SRC = Path(__file__).resolve().parents[1] / "src"
ON_GLIBC = platform.libc_ver()[0] == "glibc"

# One process, D=512 bags. "faults" runs 3 warm-up steps on bags of 1001
# and 1030 rows, swapping which is positive each step, then prints the
# mean minor page faults of the next 10 steps. "steps" runs one step from
# a fresh initialisation per listed pair and prints a digest of the
# parameters and gradients after each.
CHILD = r"""
import hashlib, json, resource, sys
import frmil
import numpy as np
from frmil.autodiff import backward
from frmil.bagdata import make_bag
from frmil.model import bag_forward, init_params
from frmil.objectives import LossWeights, total_loss
from frmil.training import AdamState, adam_step

PAIRS = {"a": (1001, 1030), "b": (1030, 1001), "c": (1500, 620)}


def bag(n, label):
    rng = np.random.default_rng(n * 2 + label)
    return make_bag(f"{n}-{label}", label,
                    rng.normal(size=(n, 512)).astype(np.float32))


def trainer():
    params = init_params(512, 8, seed=1)
    named = params.named()
    state = AdamState.for_params(named)
    drop = np.random.default_rng(2)
    weights = LossWeights(0.33, 0.33, 0.33, tau=2.0)

    def step(pair):
        pos, neg = (bag(n, label) for n, label in zip(PAIRS[pair], (1, 0)))
        traces = [bag_forward(b, params, training=True, rng=drop, dropout=0.2)
                  for b in (pos, neg)]
        loss, _ = total_loss(*traces, (1, 0), weights)
        for t in named.values():
            t.grad = None
        backward(loss)
        adam_step(named, {k: t.grad for k, t in named.items()}, state, 1e-3)
        return hashlib.sha256(b"".join(t.data.tobytes() + t.grad.tobytes()
                                       for t in named.values())).hexdigest()
    return step


mode, pairs = sys.argv[1], sys.argv[2]
out = {"applied": frmil.heap_policy_applied}
if mode == "faults":
    step = trainer()
    for k in range(13):
        if k == 3:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step(pairs[k % 2])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out["faults_per_step"] = (after - before) / 10
else:
    out["digests"] = [trainer()(pair) for pair in pairs]
print(json.dumps(out))
"""


def run_child(mode, pairs, **env):
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    proc = subprocess.run([sys.executable, "-c", CHILD, mode, pairs],
                          env=dict(base, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not ON_GLIBC, reason="the heap policy is glibc's")
class TestHeapPolicy:
    def test_steps_on_changing_bag_sizes_take_no_page_faults(self):
        # glibc's defaults trim and re-fault about 3,000 pages a step here
        out = run_child("faults", "ab")
        assert out["applied"] is True
        assert out["faults_per_step"] < 100

    def test_a_malloc_variable_keeps_glibc_defaults(self):
        # MALLOC_PERTURB_=0 changes nothing in glibc, but it is the user's
        out = run_child("faults", "ab", MALLOC_PERTURB_="0")
        assert out["applied"] is False
        assert out["faults_per_step"] > 100


def _no_mallopt(*args, **kwargs):
    raise AssertionError("mallopt reached")


@pytest.mark.parametrize("name, value", [("MALLOC_ARENA_MAX", "2"),
                                         ("MALLOC_TRIM_THRESHOLD_", "0"),
                                         ("GLIBC_TUNABLES",
                                          "glibc.malloc.trim_threshold=0")])
def test_policy_yields_to_the_users_malloc_settings(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    monkeypatch.setattr(ctypes, "CDLL", _no_mallopt)
    assert frmil._apply_heap_policy() is False


def test_policy_skipped_on_another_c_library(monkeypatch):
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("musl", "1.2.4"))
    monkeypatch.setattr(ctypes, "CDLL", _no_mallopt)
    assert frmil._apply_heap_policy() is False


def test_steps_give_the_bytes_of_a_fresh_process():
    # two steps on bags of other sizes, in one process and in one each
    together = run_child("steps", "ac")["digests"]
    alone = [run_child("steps", pair)["digests"][0] for pair in "ac"]
    assert together == alone


def _wsi_step(seed=0):
    """Forward and backward of one D=512 balanced pair; the loss root."""
    rng = np.random.default_rng(seed)
    params = init_params(512, 8, seed=seed)
    bags = [make_bag(str(n), label, rng.normal(size=(n, 512)).astype(np.float32))
            for n, label in ((1001, 1), (1030, 0))]
    drop = np.random.default_rng(seed + 1)
    traces = [bag_forward(b, params, training=True, rng=drop, dropout=0.2)
              for b in bags]
    loss, _ = total_loss(*traces, (1, 0), LossWeights(0.33, 0.33, 0.33, tau=2.0))
    ad.backward(loss)
    return params, loss


def _graph(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


class TestGradientHandover:
    def test_grads_equal_those_of_an_always_copying_accumulate(self, monkeypatch):
        handed, _ = _wsi_step()
        copy_all = ad._accumulate

        def copying(t, g, owned=False):
            copy_all(t, g)

        monkeypatch.setattr(ad, "_accumulate", copying)
        copied, _ = _wsi_step()
        for name, t in handed.named().items():
            assert t.grad.tobytes() == copied.named()[name].grad.tobytes(), name

    def test_no_leaf_grad_shares_memory_with_another_grad(self):
        params, loss = _wsi_step()
        grads = [t.grad for t in _graph(loss) if t.grad is not None]
        for leaf in params.named().values():
            others = [g for g in grads if g is not leaf.grad]
            assert len(others) == len(grads) - 1
            assert not any(np.shares_memory(leaf.grad, g) for g in others)
