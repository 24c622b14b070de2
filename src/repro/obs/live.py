"""Live telemetry plane for the scheduling service: scrape + burn rates.

The batch obs layer materializes metrics when a process *exits*; a
long-running :class:`~repro.service.loop.SchedulingService` needs them
while it runs.  This module provides the three live pieces:

* :class:`TelemetryServer` — a stdlib ``http.server`` thread exposing
  ``GET /metrics`` (OpenMetrics text from a lock-consistent
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), ``GET /healthz``
  (heartbeat freshness + drain state; 503 when stale) and ``GET /status``
  (one JSON object: epoch, backlog, fallback level, pool liveness, burn
  rates);
* :class:`BurnRateTracker` — rolling multi-window SLO miss-rate gauges
  (``service_slo_burn_rate{window=...}``), judged on an injectable
  monotonic clock;
* :class:`LiveTelemetry` — the facade the service threads its per-epoch
  signal through: it owns the tracker, the server, and (optionally) a
  :class:`~repro.obs.incidents.FlightRecorder`.

Everything here is opt-in: the service constructs a :class:`LiveTelemetry`
only when a telemetry port (or incident directory) is configured, so with
telemetry off the service path is byte-for-byte the PR 9 loop and the
null-backend zero-overhead guarantee is untouched.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs.export import render_openmetrics
from repro.obs.incidents import EpochFrame, FlightRecorder

#: Default burn-rate windows: (label, seconds).  The classic multi-window
#: pair — a fast window that detects an active burn and a slow one that
#: filters blips — scaled to epoch cadence.
DEFAULT_BURN_WINDOWS: "tuple[tuple[str, float], ...]" = (("1m", 60.0), ("10m", 600.0))

#: /healthz flags the service stale when nothing has touched the telemetry
#: plane for this many seconds (the service heartbeat ticker touches it
#: every beat, so a healthy service stays far inside the horizon).
DEFAULT_STALE_AFTER_S: float = 5.0

#: Content type Prometheus expects from an OpenMetrics endpoint.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class BurnRateTracker:
    """Rolling SLO miss-rate over multiple look-back windows.

    Each epoch records one boolean (did the epoch violate its SLO); the
    burn rate of a window is the violating fraction of the epochs that
    ended inside it.  Judged on a monotonic clock (injectable for tests):
    a wall-clock step must never drain or stretch a window.

    Thread-safe: the service loop records while the scrape thread reads.
    """

    def __init__(
        self,
        windows: "tuple[tuple[str, float], ...]" = DEFAULT_BURN_WINDOWS,
        *,
        mono_clock=time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("BurnRateTracker needs at least one window")
        self.windows = tuple((str(label), float(span)) for label, span in windows)
        self._mono = mono_clock
        self._horizon = max(span for _, span in self.windows)
        self._samples: "list[tuple[float, bool]]" = []
        self._lock = threading.Lock()

    def record(self, miss: bool) -> None:
        """Record one epoch's SLO outcome at the current monotonic time."""
        now = self._mono()
        with self._lock:
            self._samples.append((now, bool(miss)))
            # Prune anything older than the widest window.
            cutoff = now - self._horizon
            while self._samples and self._samples[0][0] < cutoff:
                self._samples.pop(0)

    def rates(self) -> "dict[str, float]":
        """Miss fraction per window label (0.0 when a window saw no epoch)."""
        now = self._mono()
        with self._lock:
            samples = list(self._samples)
        out: "dict[str, float]" = {}
        for label, span in self.windows:
            inside = [miss for (t, miss) in samples if now - t <= span]
            out[label] = (sum(inside) / len(inside)) if inside else 0.0
        return out

    def publish(self, metrics) -> "dict[str, float]":
        """Emit ``service_slo_burn_rate{window=...}`` gauges; returns rates."""
        rates = self.rates()
        if getattr(metrics, "enabled", False):
            gauge = metrics.gauge(
                "service_slo_burn_rate",
                "rolling SLO miss fraction per look-back window",
            )
            for label, rate in rates.items():
                gauge.labels(window=label).set(rate)
        return rates


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /status; everything else is 404."""

    # The server attribute carries the callables (see TelemetryServer).
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # a scrape every few seconds must not spam the service's stderr

    def _respond(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                text = self.server.metrics_fn()
                self._respond(200, text.encode("utf-8"), OPENMETRICS_CONTENT_TYPE)
            elif path == "/healthz":
                code, payload = self.server.health_fn()
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self._respond(code, body, "application/json")
            elif path == "/status":
                body = json.dumps(self.server.status_fn(), sort_keys=True).encode("utf-8")
                self._respond(200, body, "application/json")
            else:
                self._respond(404, b'{"error": "not found"}\n', "application/json")
        except Exception as exc:  # noqa: BLE001 — a scrape must never kill the server
            body = json.dumps({"error": str(exc)}).encode("utf-8")
            try:
                self._respond(500, body, "application/json")
            except OSError:
                pass


class TelemetryServer:
    """Daemon-threaded HTTP server wrapping three endpoint callables.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` (tests and the CI smoke do exactly that).
    """

    def __init__(
        self,
        *,
        metrics_fn,
        status_fn,
        health_fn,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._host = host
        self._requested_port = port
        self._metrics_fn = metrics_fn
        self._status_fn = status_fn
        self._health_fn = health_fn
        self._server: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    @property
    def port(self) -> "int | None":
        return self._server.server_address[1] if self._server is not None else None

    def start(self) -> "TelemetryServer":
        server = ThreadingHTTPServer((self._host, self._requested_port), _TelemetryHandler)
        server.daemon_threads = True
        server.metrics_fn = self._metrics_fn
        server.status_fn = self._status_fn
        server.health_fn = self._health_fn
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=f"telemetry:{server.server_address[1]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


class LiveTelemetry:
    """The service's live telemetry plane: scrape + burn rates + recorder.

    The service calls :meth:`on_epoch` once per epoch (from the thread
    running that epoch's step; calls never overlap), :meth:`touch` from
    its heartbeat ticker (so /healthz freshness tracks the same signal
    ``obs watch`` judges), and :meth:`set_draining` on stop.  The scrape
    endpoints read through thread-safe snapshots.
    """

    def __init__(
        self,
        *,
        registry,
        port: "int | None" = 0,
        host: str = "127.0.0.1",
        recorder: "FlightRecorder | None" = None,
        burn_windows: "tuple[tuple[str, float], ...]" = DEFAULT_BURN_WINDOWS,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        mono_clock=time.monotonic,
        pool_status_fn=None,
    ) -> None:
        self.registry = registry
        self.recorder = recorder
        self.burn = BurnRateTracker(burn_windows, mono_clock=mono_clock)
        self.stale_after_s = float(stale_after_s)
        self._mono = mono_clock
        self._pool_status_fn = pool_status_fn
        self._lock = threading.Lock()
        self._last_touch = mono_clock()
        self._draining = False
        self._state: dict = {"epoch": None, "epochs_done": 0}
        self.server = (
            TelemetryServer(
                metrics_fn=self.render_metrics,
                status_fn=self.status,
                health_fn=self.health,
                host=host,
                port=port,
            )
            if port is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle (service side)
    # ------------------------------------------------------------------ #

    def start(self) -> "LiveTelemetry":
        if self.server is not None:
            self.server.start()
        return self

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()

    @property
    def port(self) -> "int | None":
        return self.server.port if self.server is not None else None

    def touch(self) -> None:
        """Mark the service alive (called from the heartbeat ticker)."""
        with self._lock:
            self._last_touch = self._mono()

    def set_draining(self, draining: bool) -> None:
        with self._lock:
            self._draining = bool(draining)

    def on_epoch(
        self,
        *,
        epoch: int,
        report: dict,
        outcome: dict,
        records: "list[dict] | None" = None,
        worker_deaths: "list[dict] | None" = None,
    ) -> "list[Path]":
        """Fold one finished epoch in; returns incident bundles written."""
        self.burn.record(bool(outcome.get("slo_violation")))
        rates = self.burn.publish(self.registry)
        with self._lock:
            self._last_touch = self._mono()
            self._state = {
                "epoch": epoch,
                "epochs_done": int(self._state.get("epochs_done", 0)) + 1,
                "backlog_mb": report.get("backlog_after", 0.0),
                "fallback_level": report.get("fallback_level", 0),
                "deadline_hit": report.get("deadline_hit", False),
                "reroute_swaps": report.get("reroute_swaps", 0),
                "epoch_latency_s": outcome.get("epoch_latency_s", 0.0),
                "slo_violations": int(self._state.get("slo_violations", 0))
                + (1 if outcome.get("slo_violation") else 0),
            }
        if self.recorder is None:
            return []
        frame = EpochFrame(
            epoch=epoch,
            report=report,
            outcome=outcome,
            records=list(records or []),
            worker_deaths=list(worker_deaths or []),
        )
        return self.recorder.observe_epoch(
            frame, metrics_snapshot=self.registry.snapshot()
        )

    # ------------------------------------------------------------------ #
    # endpoints (scrape side)
    # ------------------------------------------------------------------ #

    def render_metrics(self) -> str:
        """OpenMetrics text of the registry (snapshot under its lock)."""
        return render_openmetrics(self.registry.snapshot())

    def status(self) -> dict:
        with self._lock:
            state = dict(self._state)
            draining = self._draining
        state["draining"] = draining
        state["slo_burn_rate"] = self.burn.rates()
        if self._pool_status_fn is not None:
            try:
                state["workers"] = self._pool_status_fn()
            except Exception:  # noqa: BLE001 — liveness probe must not 500
                state["workers"] = None
        if self.recorder is not None:
            state["incidents"] = {
                "triggered": dict(self.recorder.triggered),
                "bundles_written": len(self.recorder.bundles_written),
            }
        return state

    def health(self) -> "tuple[int, dict]":
        """(HTTP status, payload) for /healthz: 200 fresh, 503 stale."""
        now = self._mono()
        with self._lock:
            idle = max(0.0, now - self._last_touch)
            draining = self._draining
        stale = idle > self.stale_after_s
        payload = {
            "status": "stale" if stale else ("draining" if draining else "ok"),
            "heartbeat_idle_s": idle,
            "stale_after_s": self.stale_after_s,
            "draining": draining,
        }
        return (503 if stale else 200), payload
