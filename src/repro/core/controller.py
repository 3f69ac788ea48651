"""The ARCS controller - public facade bundling APEX + policy.

Typical use (also see ``examples/quickstart.py``)::

    node = SimulatedNode(crill())
    runtime = OpenMPRuntime(node)
    node.set_power_cap(85.0); node.settle_after_cap()

    arcs = ARCS(runtime, strategy="nelder-mead")   # ARCS-Online
    arcs.attach()
    app.run(runtime)
    arcs.finalize()                                # saves history
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apex.instrument import ApexOmptBridge
from repro.core.history import HistoryStore
from repro.core.overhead import OverheadReport
from repro.core.policy import ArcsPolicy
from repro.harmony.space import SearchSpace
from repro.openmp.runtime import OpenMPRuntime
from repro.openmp.types import OMPConfig

if TYPE_CHECKING:
    from repro.service.source import ConfigKey, ConfigSource


class ARCS:
    """Adaptive Runtime Configuration Selection for one runtime."""

    def __init__(
        self,
        runtime: OpenMPRuntime,
        strategy: str = "nelder-mead",
        space: SearchSpace | None = None,
        max_evals: int = 40,
        history: HistoryStore | None = None,
        history_key: str | None = None,
        replay: bool = False,
        strict_replay: bool = True,
        selective_threshold_s: float | None = None,
        cap_aware: bool = False,
        objective: str = "time",
        seed: int = 0,
        source: "ConfigSource | None" = None,
        source_key: "ConfigKey | None" = None,
        surrogate_orders: (
            dict[str, tuple[tuple[int, ...], ...]] | None
        ) = None,
    ) -> None:
        if source is not None and source_key is None:
            raise ValueError("a config source needs a source_key")
        if replay:
            if history is None or history_key is None:
                raise ValueError(
                    "replay mode needs a history store and key"
                )
            # replay with an empty local history: ask the chain
            # (remote service -> warm memo) before giving up.  A chain
            # miss or failure degrades to the usual HistoryKeyMissing
            # from history.load below.
            history.warm_from(history_key, source, source_key)
            replay_configs: dict[str, OMPConfig] | None = history.load(
                history_key
            )
        else:
            replay_configs = None
        self.runtime = runtime
        self.history = history
        self.history_key = history_key
        self.source = source
        self.source_key = source_key
        self.bridge = ApexOmptBridge(runtime)
        self.policy = ArcsPolicy(
            runtime,
            strategy=strategy,
            space=space,
            max_evals=max_evals,
            replay=replay_configs,
            strict_replay=strict_replay,
            selective_threshold_s=selective_threshold_s,
            cap_aware=cap_aware,
            objective=objective,
            seed=seed,
            surrogate_orders=surrogate_orders,
        )
        self._attached = False
        self._config_calls_at_attach = 0
        self._config_time_at_attach = 0.0

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Hook into the runtime's OMPT interface and register the ARCS
        policy with the APEX policy engine."""
        self.bridge.attach()
        self.bridge.policy_engine.register(self.policy)
        self._attached = True
        self._config_calls_at_attach = self.runtime.config_change_calls
        self._config_time_at_attach = self.runtime.config_change_time_s

    def detach(self) -> None:
        self.bridge.policy_engine.deregister(self.policy)
        self.bridge.detach()
        self._attached = False

    def finalize(self) -> None:
        """Shut down APEX; persist best configurations if a history
        store was provided (search modes only), and publish them
        through the config-source chain so other tenants of the
        tuning service inherit this tuning."""
        if self._attached:
            self.detach()
        self.bridge.shutdown()
        if (
            self.history is not None
            and self.history_key is not None
            and self.policy.replay is None
        ):
            configs = self.policy.best_configs()
            if configs:
                values = self.policy.best_values()
                self.history.save(self.history_key, configs, values)
                if self.source is not None and self.source_key is not None:
                    self.source.publish(
                        self.source_key, (configs, dict(values))
                    )

    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.policy.all_converged()

    def chosen_configs(self) -> dict[str, OMPConfig]:
        """Best (or replayed) configuration per region - Table II."""
        return self.policy.best_configs()

    def degradations(self) -> dict[str, str]:
        """Regions whose tuning gave up and fell back to the default
        configuration, with the reason for each (empty when healthy)."""
        return self.policy.degradations()

    def overhead_report(self) -> OverheadReport:
        """The Section III-C overhead breakdown for this run."""
        return OverheadReport(
            config_change_s=self.runtime.config_change_time_s
            - self._config_time_at_attach,
            config_change_calls=self.runtime.config_change_calls
            - self._config_calls_at_attach,
            instrumentation_s=self.bridge.instrumentation_time_s,
            search_s=self.policy.search_overhead_s(),
        )
