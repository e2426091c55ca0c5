"""Multimodal dataset builders (substitutes for CelebA/MIT-States/... —
see DESIGN.md §2 for the substitution rationale).

Every builder samples a :class:`~repro.encoders.latent.LatentWorld` whose
generative knobs mimic the paper dataset's character, then applies a named
encoder combo from :mod:`repro.encoders.sim`:

* ``mitstates_lite``  — nouns x adjectives; free text; sibling states.
* ``celeba_lite``     — distinctive identities, few shared attribute
  combos (structured ``encoding`` text is weak alone, image is moderate).
* ``shopping_lite``   — near-indistinguishable garments (image-only search
  is hopeless) with rich fine-grained attributes; two categories share
  generative parameters so learned weights transfer (paper Tab. XXI).
* ``mscoco_lite``     — three modalities (image* x2 + text), high noise.
* ``celeba_plus``     — celeba with 2 extra simulated image modalities.
* ``imagetext``       — scaling family standing in for ImageText1M/16M.

Datasets carry numpy matrices, one per modality, which the kernels
read and Spark broadcasts.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from repro.encoders.latent import LatentConfig, LatentWorld, make_world
from repro.encoders.sim import encode_channel


@dataclass
class MSTMDataset:
    """Embedded objects + queries + ground truth for one encoder combo."""

    name: str
    encoders: tuple[str, ...]
    world: LatentWorld
    obj_mats: list[np.ndarray] = field(repr=False)  # m x (n, d_i)
    qry_mats: list[np.ndarray] = field(repr=False)  # m x (nq, d_i)
    gt: np.ndarray = field(repr=False)  # (nq,) ground-truth object index

    @property
    def m(self) -> int:
        return len(self.obj_mats)

    @property
    def n(self) -> int:
        return self.obj_mats[0].shape[0]

    @property
    def nq(self) -> int:
        return self.gt.shape[0]


@lru_cache(maxsize=32)
def _world(cfg: LatentConfig) -> LatentWorld:
    return make_world(cfg)


def _build(name: str, cfg: LatentConfig, encoders: tuple[str, ...]) -> MSTMDataset:
    world = _world(cfg)
    obj_mats, qry_mats = [], []
    for i, enc in enumerate(encoders):
        o, q = encode_channel(world, enc, i)
        obj_mats.append(o)
        qry_mats.append(q)
    return MSTMDataset(
        name=name, encoders=encoders, world=world,
        obj_mats=obj_mats, qry_mats=qry_mats, gt=world.gt,
    )


def mitstates_lite(
    encoders: tuple[str, ...] = ("resnet50", "lstm"),
    *, n: int = 4000, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    cfg = LatentConfig(
        n_objects=n, n_queries=nq, n_classes=max(8, n // 120),
        states_per_instance=3, n_state_centers=60, instance_spread=0.35,
        class_spread=0.55, state_spread=0.25, text_content_gain=0.45, seed=seed + 11,
    )
    return _build("mitstates", cfg, encoders)


def celeba_lite(
    encoders: tuple[str, ...] = ("clip", "encoding"),
    *, n: int = 4000, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    # Distinctive identities (large class spread), few attribute combos
    # (text alone is weak: many faces share a combo).
    cfg = LatentConfig(
        n_objects=n, n_queries=nq, n_classes=max(8, n // 60),
        states_per_instance=2, n_state_centers=25, instance_spread=0.25,
        class_spread=0.95, state_spread=0.30, seed=seed + 23,
    )
    return _build("celeba", cfg, encoders)


def shopping_lite(
    category: str = "tshirt",
    encoders: tuple[str, ...] = ("tirg", "encoding"),
    *, n: int = 4000, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    # Garments: content barely discriminative (few shapes, tight spread)
    # but attributes are fine-grained. Categories differ only by seed, so
    # weights learned on one transfer to the other (paper Tab. XXI).
    cat_seed = {"tshirt": 31, "bottoms": 47}[category]
    cfg = LatentConfig(
        n_objects=n, n_queries=nq, n_classes=12,
        states_per_instance=2, n_state_centers=max(40, n // 30), instance_spread=0.45,
        class_spread=0.45, state_spread=0.25, text_content_gain=0.08, seed=seed + cat_seed,
    )
    return _build(f"shopping-{category}", cfg, encoders)


def mscoco_lite(
    encoders: tuple[str, ...] = ("resnet50", "gru", "resnet50"),
    *, n: int = 4000, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    # Three modalities, cluttered scenes: weak content separation and
    # high state spread make this the hardest dataset (paper Tab. VI).
    cfg = LatentConfig(
        n_objects=n, n_queries=nq, n_classes=10,
        states_per_instance=2, n_state_centers=20, instance_spread=0.90,
        class_spread=0.30, state_spread=1.00, text_content_gain=0.15, seed=seed + 59,
    )
    return _build("mscoco", cfg, encoders)


def celeba_plus(
    encoders: tuple[str, ...] = ("clip", "encoding", "resnet17", "resnet50"),
    *, n: int = 4000, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    # celeba_lite's world (same config, so the same cached world): Tab.
    # VIII's m-sweep compares on the same objects and ground truth
    return replace(celeba_lite(encoders, n=n, nq=nq, seed=seed), name="celeba+")


def imagetext(
    n: int,
    encoders: tuple[str, ...] = ("resnet50", "lstm"),
    *, nq: int = 200, seed: int = 0,
) -> MSTMDataset:
    """Scaling family standing in for ImageText1M/16M (DESIGN.md §2)."""
    cfg = LatentConfig(
        n_objects=n, n_queries=nq, n_classes=max(16, n // 200),
        states_per_instance=2, n_state_centers=50, instance_spread=0.30,
        class_spread=0.60, state_spread=0.25, text_content_gain=0.30, seed=seed + 71,
    )
    return _build(f"imagetext{n}", cfg, encoders)
