"""Large-model extraction engine behind a chat-completions style HTTP API.

Drop-in alternative to :class:`twotsd.semantics.DeterministicEngine`. The
remote model only supplies the labels (trust state + four trend directions)
through a strict closed-vocabulary JSON reply; window bounds, record counts
and timestamps are always computed locally, and every reply is validated
before use. Replies that keep violating the schema after retries are
discarded in favor of the local deterministic answer, so a flaky or
hallucinating endpoint degrades quality, never correctness of shape.

Cold starts (fewer records than the state threshold) never hit the network:
the answer is fully determined locally.

The API credential is read from an environment variable at call time and is
never logged or embedded in exceptions.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import requests

from .domain import (
    COMM_METRICS,
    COMP_METRICS,
    DeviceId,
    PerformanceRecord,
    TaskType,
    Trend,
    TrustSemantics,
    TrustState,
)
from .errors import (
    ConfigError,
    RemoteAuthError,
    RemoteEngineError,
    RemoteRateLimitError,
    RemoteTimeoutError,
    SchemaViolationError,
)
from .semantics import StateConfig, TrendConfig, extract_semantics

logger = logging.getLogger(__name__)

PROMPT_TEMPLATE_ID = "tsd-extract-v1"

_SYSTEM_PROMPT = (
    "You label device collaboration history. Reply with one JSON object and "
    "nothing else: {\"state\": trusted|untrusted|insufficient_data, "
    "\"comm_trends\": {\"throughput\": T, \"loss_rate\": T}, "
    "\"comp_trends\": {\"accuracy\": T, \"proc_speed\": T}} where T is one of "
    "increasing|decreasing|normal. State is trusted when the satisfied "
    "fraction of the window meets the given threshold. A trend is the "
    "direction of the metric across the window, normal when flat or unclear."
)


@dataclass(frozen=True)
class RemoteEngineConfig:
    endpoint: str
    model: str = "trust-extractor-1"
    credential_env: str = "TWOTSD_REMOTE_KEY"
    timeout_s: float = 10.0
    max_retries: int = 3  # attempts after the first
    backoff_s: float = 0.25  # doubles per retry
    max_in_flight: int = 4

    def __post_init__(self):
        if not self.endpoint:
            raise ConfigError("remote endpoint must be nonempty")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")


def _record_payload(r: PerformanceRecord) -> dict[str, Any]:
    return {
        "at": r.at,
        "throughput_mbps": r.throughput_mbps,
        "loss_rate": r.loss_rate,
        "proc_speed_mbps": r.proc_speed_mbps,
        "accuracy": r.accuracy,
        "verdict": r.verdict.value,
    }


def parse_label_reply(text: str) -> tuple[TrustState, dict[str, Trend], dict[str, Trend]]:
    """Strict closed-vocabulary parse of the model reply."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolationError(f"reply is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaViolationError("reply must be a JSON object")
    extra = set(doc) - {"state", "comm_trends", "comp_trends"}
    if extra:
        raise SchemaViolationError(f"unexpected reply keys {sorted(extra)}")
    try:
        state = TrustState(doc["state"])
    except (KeyError, ValueError):
        raise SchemaViolationError(f"bad state {doc.get('state')!r}") from None

    def trends(key: str, metrics: tuple[str, ...]) -> dict[str, Trend]:
        section = doc.get(key)
        if not isinstance(section, dict) or set(section) != set(metrics):
            raise SchemaViolationError(f"{key} must map exactly {sorted(metrics)}")
        out = {}
        for m in metrics:
            try:
                out[m] = Trend(section[m])
            except ValueError:
                raise SchemaViolationError(f"bad trend {section[m]!r} for {m}") from None
        return out

    comm = trends("comm_trends", COMM_METRICS)
    comp = trends("comp_trends", COMP_METRICS)
    if state is TrustState.INSUFFICIENT_DATA and any(
        t is not Trend.NORMAL for t in list(comm.values()) + list(comp.values())
    ):
        raise SchemaViolationError("insufficient_data must carry all-normal trends")
    return state, comm, comp


class RemoteSemanticsEngine:
    """SemanticsEngine implementation that outsources labeling to an LLM API."""

    def __init__(
        self,
        cfg: RemoteEngineConfig,
        trend_cfg: TrendConfig | None = None,
        state_cfg: StateConfig | None = None,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.trend_cfg = trend_cfg or TrendConfig()
        self.state_cfg = state_cfg or StateConfig()
        self._session = session or requests.Session()
        self._sleep = sleep
        self._gate = threading.BoundedSemaphore(cfg.max_in_flight)
        self.calls = 0
        self.retries = 0
        self.fallbacks = 0

    def _credential(self) -> str:
        key = os.environ.get(self.cfg.credential_env)
        if not key:
            raise RemoteAuthError(
                f"no credential in ${self.cfg.credential_env}"
            )
        return key

    def extract(
        self,
        device: DeviceId,
        task_type: TaskType,
        records: Sequence[PerformanceRecord],
    ) -> TrustSemantics:
        # Local extraction first: validates the window and supplies the
        # fallback answer. Cold starts stop here.
        local = extract_semantics(device, task_type, records, self.trend_cfg, self.state_cfg)
        if len(records) < self.state_cfg.n_min:
            return local
        try:
            state, comm, comp = self._labels_with_retry(device, task_type, records)
        except SchemaViolationError as exc:
            self.fallbacks += 1
            logger.warning(
                "remote labeling for (%s, %s) unusable after retries (%s); "
                "using deterministic labels",
                device, task_type, exc,
            )
            return local
        return TrustSemantics(
            device=device,
            task_type=task_type,
            state=state,
            comm_trends=comm,
            comp_trends=comp,
            window=local.window,
            extracted_at=local.extracted_at,
            record_count=local.record_count,
        )

    def _labels_with_retry(self, device, task_type, records):
        delay = self.cfg.backoff_s
        last: RemoteEngineError | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self.retries += 1
                self._sleep(delay)
                delay *= 2
            try:
                return self._call_once(device, task_type, records)
            except (RemoteTimeoutError, RemoteRateLimitError, SchemaViolationError) as exc:
                last = exc
            # RemoteAuthError and other RemoteEngineError propagate: retrying
            # cannot fix credentials or a permanently broken endpoint.
        assert last is not None
        if isinstance(last, SchemaViolationError):
            raise last
        raise RemoteEngineError(
            f"remote extraction failed after {self.cfg.max_retries + 1} attempts: {last.message}"
        )

    def _call_once(self, device, task_type, records):
        body = {
            "model": self.cfg.model,
            "temperature": 0,
            "response_format": {"type": "json_object"},
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPT},
                {
                    "role": "user",
                    "content": json.dumps(
                        {
                            "template": PROMPT_TEMPLATE_ID,
                            "device": device,
                            "task_type": task_type,
                            "trust_threshold": self.state_cfg.trust_threshold,
                            "records": [_record_payload(r) for r in records],
                        },
                        sort_keys=True,
                    ),
                },
            ],
        }
        headers = {"Authorization": f"Bearer {self._credential()}"}
        with self._gate:
            self.calls += 1
            try:
                response = self._session.post(
                    self.cfg.endpoint,
                    json=body,
                    headers=headers,
                    timeout=self.cfg.timeout_s,
                )
            except requests.Timeout:
                raise RemoteTimeoutError(
                    f"no reply within {self.cfg.timeout_s}s"
                ) from None
            except requests.RequestException as exc:
                raise RemoteEngineError(f"transport failure: {exc.__class__.__name__}") from None
        if response.status_code in (401, 403):
            raise RemoteAuthError(f"endpoint rejected credential ({response.status_code})")
        if response.status_code == 429:
            raise RemoteRateLimitError("endpoint rate limited the request")
        if response.status_code >= 500:
            raise RemoteTimeoutError(f"endpoint unavailable ({response.status_code})")
        if response.status_code != 200:
            raise RemoteEngineError(f"unexpected status {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise SchemaViolationError("reply envelope is not chat-completion shaped") from None
        if not isinstance(content, str):
            raise SchemaViolationError("reply content must be a string")
        return parse_label_reply(content)
