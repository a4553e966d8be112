"""Shared experiment setup.

Every figure needs the same preparation: generate the synthetic corpus,
select the 30 most-active days, split into background knowledge (first
15 days) and shared traces (last 15 days), fit the attack suite on the
background, and build the LPPM suite with the paper's parameters.
:func:`prepare_context` does all of that once; figure modules reuse the
context so the expensive attack fitting is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.attacks import Attack, default_attack_suite
from repro.core.dataset import MobilityDataset
from repro.core.engine import DEFAULT_DELTA_S, ProtectionEngine
from repro.core.split import train_test_split
from repro.datasets.generators import SPECS, generate_dataset
from repro.lppm import HybridLPPM, default_lppm_suite
from repro.lppm.base import LPPM


@dataclass
class ExperimentContext:
    """One dataset prepared for every figure harness."""

    name: str
    raw: MobilityDataset
    train: MobilityDataset
    test: MobilityDataset
    attacks: List[Attack]
    lppms: List[LPPM]
    seed: int

    @property
    def attack_by_name(self) -> Dict[str, Attack]:
        return {a.name: a for a in self.attacks}

    @property
    def lppm_by_name(self) -> Dict[str, LPPM]:
        return {l.name: l for l in self.lppms}

    def hybrid(self, attacks: Optional[Sequence[Attack]] = None) -> HybridLPPM:
        """The hybrid baseline in the paper's distortion order HMC→Geo-I→TRL.

        The paper orders mechanisms "according to the degree of data
        distortion they generate" and picks the first protecting one; we
        use the same published order.
        """
        by_name = self.lppm_by_name
        order = [by_name["HMC"], by_name["Geo-I"], by_name["TRL"]]
        return HybridLPPM(order, list(attacks or self.attacks), seed=self.seed)

    def engine(
        self,
        attacks: Optional[Sequence[Attack]] = None,
        delta_s: float = DEFAULT_DELTA_S,
        executor: str = "serial",
        jobs: Optional[int] = 1,
        **kwargs,
    ) -> ProtectionEngine:
        """A protection engine over this context's LPPMs and (subset of) attacks.

        The context's components are already fitted, so the engine is
        ready to protect; extra keyword arguments (``search_strategy``,
        ``max_composition_length``, …) pass through to
        :class:`~repro.core.engine.ProtectionEngine`.
        """
        return ProtectionEngine(
            self.lppms,
            list(attacks or self.attacks),
            delta_s=delta_s,
            seed=self.seed,
            executor=executor,
            jobs=jobs,
            **kwargs,
        )


def prepare_context(
    name: str,
    seed: int = 0,
    n_users: Optional[int] = None,
    days: int = 30,
    train_days: Optional[int] = None,
    test_days: Optional[int] = None,
) -> ExperimentContext:
    """Generate, split, and fit everything for dataset *name*.

    By default the campaign is split evenly (15/15 for the paper's 30
    days): the first half is the attacker's background knowledge, the
    second half the traces users want to share.
    """
    if train_days is None:
        train_days = days // 2
    if test_days is None:
        test_days = days - train_days
    raw = generate_dataset(name, seed=seed, n_users=n_users, days=days)
    train, test = train_test_split(raw, train_days=train_days, test_days=test_days)
    ref_lat = SPECS[name].city.center_lat
    attacks: List[Attack] = default_attack_suite(ref_lat)
    for attack in attacks:
        attack.fit(train)
    lppms: List[LPPM] = default_lppm_suite(train, ref_lat)
    return ExperimentContext(
        name=name,
        raw=raw,
        train=train,
        test=test,
        attacks=attacks,
        lppms=lppms,
        seed=seed,
    )


def prepare_all(
    seed: int = 0,
    sizes: Optional[Dict[str, int]] = None,
    days: int = 30,
    datasets: Optional[Sequence[str]] = None,
) -> Dict[str, ExperimentContext]:
    """Prepare contexts for several datasets (default: all four)."""
    names = list(datasets) if datasets else sorted(SPECS)
    sizes = sizes or {}
    return {
        name: prepare_context(name, seed=seed, n_users=sizes.get(name), days=days)
        for name in names
    }
