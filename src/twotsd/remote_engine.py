"""Large-model extraction engine behind a chat-completions style HTTP API.

Drop-in alternative to :class:`twotsd.semantics.DeterministicEngine`. The
remote model only supplies the labels (trust state + four trend directions)
through a strict closed-vocabulary JSON reply; window bounds, record counts
and timestamps are always computed locally, and every reply is validated
before use. Replies that keep violating the schema after retries are
discarded in favor of the local deterministic answer, so a flaky or
hallucinating endpoint degrades quality, never correctness of shape.

Cold starts (fewer records than the state threshold) never hit the network:
the answer is fully determined locally. Requests go through the standard
library's ``urllib.request``, one connection per call.

The API credential is read from an environment variable at call time and is
never logged or embedded in exceptions.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Any, Callable

from .domain import (
    COMM_METRICS,
    COMP_METRICS,
    DeviceId,
    PerformanceRecord,
    RecordWindow,
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

MAX_RETRIES = 3  # attempts after the first
BACKOFF_S = 0.25  # delay before the first retry; doubles per retry
MAX_IN_FLIGHT = 4  # concurrent requests per engine
CREDENTIAL_ENV = "TWOTSD_REMOTE_KEY"  # read at call time

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
    timeout_s: float = 10.0

    def __post_init__(self):
        if not (
            isinstance(self.endpoint, str)
            and self.endpoint.lower().startswith(("http://", "https://"))
        ):
            raise ConfigError("remote endpoint must be an http:// or https:// URL")
        # A socket refuses a NaN timeout and overflows on one much above TIMEOUT_MAX.
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ConfigError(f"timeout_s must be in (0, {threading.TIMEOUT_MAX}], got {self.timeout_s}")


def _record_payload(r: PerformanceRecord) -> dict[str, Any]:
    return {
        "at": r.at,
        "throughput_mbps": r.throughput_mbps,
        "loss_rate": r.loss_rate,
        "proc_speed_mbps": r.proc_speed_mbps,
        "accuracy": r.accuracy,
        "verdict": r.verdict.value,
    }


def parse_label_reply(text: str) -> tuple[TrustState, dict[str, Trend]]:
    """Strict closed-vocabulary parse of the model reply: ``(state, trends)``.

    The reply's ``comm_trends`` and ``comp_trends`` sections map onto one
    ``trends`` dict keyed by ``TrustSemantics``'s four trend field names.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
        raise SchemaViolationError(f"reply is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaViolationError("reply must be a JSON object")
    unexpected = set(doc) - {"state", "comm_trends", "comp_trends"}
    if unexpected:
        raise SchemaViolationError(f"unexpected reply keys {sorted(unexpected)}")
    try:
        state = TrustState(doc["state"])
    except (KeyError, ValueError):
        raise SchemaViolationError(f"bad state {doc.get('state')!r}") from None
    trends = {}
    for key, metrics in (("comm_trends", COMM_METRICS), ("comp_trends", COMP_METRICS)):
        section = doc.get(key)
        if not isinstance(section, dict) or set(section) != set(metrics):
            raise SchemaViolationError(f"{key} must map exactly {sorted(metrics)}")
        for m in metrics:
            try:
                trends[m] = Trend(section[m])
            except ValueError:
                raise SchemaViolationError(f"bad trend {section[m]!r} for {m}") from None
    if state is TrustState.INSUFFICIENT_DATA and any(t is not Trend.NORMAL for t in trends.values()):
        raise SchemaViolationError("insufficient_data must carry all-normal trends")
    return state, trends


class RemoteSemanticsEngine:
    """SemanticsEngine implementation that outsources labeling to an LLM API."""

    def __init__(
        self,
        cfg: RemoteEngineConfig,
        trend_cfg: TrendConfig | None = None,
        state_cfg: StateConfig | None = None,
        urlopen: Callable[..., Any] = urllib.request.urlopen,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.trend_cfg = trend_cfg or TrendConfig()
        self.state_cfg = state_cfg or StateConfig()
        self._urlopen = urlopen
        self._sleep = sleep
        self._gate = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        self.calls = 0
        self.retries = 0
        self.fallbacks = 0

    def _credential(self) -> str:
        key = os.environ.get(CREDENTIAL_ENV)
        if not key:
            raise RemoteAuthError(f"no credential in ${CREDENTIAL_ENV}")
        return key

    def extract(
        self,
        device: DeviceId,
        task_type: TaskType,
        records: RecordWindow,
    ) -> TrustSemantics:
        # Local extraction first: validates the window and supplies the
        # fallback answer. Cold starts stop here.
        local = extract_semantics(device, task_type, records, self.trend_cfg, self.state_cfg)
        if len(records) < self.state_cfg.n_min:
            return local
        try:
            state, trends = self._labels_with_retry(device, task_type, records)
        except SchemaViolationError as exc:
            self.fallbacks += 1
            logger.warning(
                "remote labeling for (%s, %s) unusable after retries (%s); "
                "using deterministic labels",
                device, task_type, exc,
            )
            return local
        return replace(local, state=state, **trends)

    def _labels_with_retry(self, device, task_type, records):
        delay = BACKOFF_S
        last: RemoteEngineError | None = None
        for attempt in range(MAX_RETRIES + 1):
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
            f"remote extraction failed after {MAX_RETRIES + 1} attempts: {last.message}"
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
        request = urllib.request.Request(
            self.cfg.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # Unredirected: a 301/302/303 is followed as a GET without the credential.
        request.add_unredirected_header("Authorization", f"Bearer {self._credential()}")
        with self._gate:
            self.calls += 1
            try:
                with self._urlopen(request, timeout=self.cfg.timeout_s) as response:
                    status, payload = response.status, response.read()
            except urllib.error.HTTPError as exc:  # a non-2xx status
                exc.close()
                status, payload = exc.code, b""
            except (OSError, http.client.HTTPException) as exc:
                # A connect timeout arrives as URLError(reason=TimeoutError).
                if isinstance(getattr(exc, "reason", exc), TimeoutError):
                    raise RemoteTimeoutError(f"no reply within {self.cfg.timeout_s}s") from None
                raise RemoteEngineError(f"transport failure: {exc.__class__.__name__}") from None
        if status in (401, 403):
            raise RemoteAuthError(f"endpoint rejected credential ({status})")
        if status == 429:
            raise RemoteRateLimitError("endpoint rate limited the request")
        if status >= 500:
            raise RemoteTimeoutError(f"endpoint unavailable ({status})")
        if status != 200:
            raise RemoteEngineError(f"unexpected status {status}")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):
            raise SchemaViolationError("reply envelope is not chat-completion shaped") from None
        if not isinstance(content, str):
            raise SchemaViolationError("reply content must be a string")
        return parse_label_reply(content)
