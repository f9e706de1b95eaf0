//! The live observability listener: a dependency-free HTTP/1.0 server
//! exposing the daemon's operational state.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition rendered
//!   deterministically from the telemetry registry
//!   ([`sunder_telemetry::render_prometheus`]);
//! * `GET /healthz` — liveness: `200 ok` while the process serves;
//! * `GET /readyz` — readiness: `200 ready epoch=N`, or `503` while the
//!   server is draining or a hot reload is compiling the next epoch;
//! * `GET /statusz` — a JSON document ([`status_json`]): live sessions,
//!   per-tenant quota usage, cache hit rate, DB epoch, and
//!   per-tenant chunk-service and reply-write latency quantiles. The
//!   stdin `status` command of `sunder serve` prints the *same*
//!   document — one source of truth.
//!
//! The listener is plain `std::net`: a blocking accept loop on its own
//! thread, one short-lived request handled at a time (scrapes are rare
//! and tiny next to match traffic, so there is nothing to pool). Rates
//! are the scraper's to derive from the exported counters (Prometheus
//! `rate()`), so the daemon keeps no snapshot history. The thread does
//! not poll: shutdown sets a flag and wakes the accept with the match
//! listener's own wake connection. It stops when [`MatchServer::drain`]
//! completes — the listener keeps answering (`/readyz` 503) for the whole
//! drain window.
//!
//! [`MatchServer::drain`]: crate::server::MatchServer::drain

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sunder_telemetry::json::Json;
use sunder_telemetry::MetricValue;

use crate::server::{accept, join_acceptor, wake_acceptor, ServerInner, ACCEPT_WAKE_LIMIT};

/// A running observability listener; owned by the
/// [`crate::server::MatchServer`] it describes.
pub struct ObsHandle {
    addr: SocketAddr,
    /// Set at shutdown; the accept loop checks it after every accept.
    stop: Arc<AtomicBool>,
    http: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsHandle {
    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsHandle {
    /// Stops the listener and joins its thread.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(http) = self.http.take() {
            wake_acceptor(self.addr);
            join_acceptor(http, self.addr, ACCEPT_WAKE_LIMIT);
        }
    }
}

/// Binds the obs listener and spawns its thread.
pub(crate) fn start_obs(inner: &Arc<ServerInner>, addr: &str) -> Result<ObsHandle, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind obs {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let (http_inner, http_stop) = (Arc::clone(inner), Arc::clone(&stop));
    let http = std::thread::Builder::new()
        .name("serve-obs".into())
        .spawn(move || http_loop(&http_inner, &listener, &http_stop))
        .map_err(|e| format!("spawn obs listener: {e}"))?;
    Ok(ObsHandle {
        addr: local,
        stop,
        http: Some(http),
    })
}

fn http_loop(inner: &Arc<ServerInner>, listener: &TcpListener, stop: &AtomicBool) {
    loop {
        let sock = accept(listener);
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Some(sock) = sock {
            handle_request(inner, sock);
        }
    }
}

/// Reads one request (up to the header terminator), routes it, writes
/// one HTTP/1.0 response, closes. Malformed requests get a 400.
fn handle_request(inner: &Arc<ServerInner>, mut sock: TcpStream) {
    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = sock.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let request = loop {
        match sock.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break String::from_utf8(buf).ok();
                }
            }
            Err(_) => break None,
        }
    };
    let Some(request) = request else {
        return;
    };
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        route(inner, path)
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let response = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = sock.write_all(response.as_bytes());
    let _ = sock.flush();
    let _ = sock.shutdown(Shutdown::Both);
}

fn route(inner: &Arc<ServerInner>, path: &str) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            sunder_telemetry::render_prometheus(&sunder_telemetry::snapshot()),
        ),
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/readyz" => match inner.core().ready() {
            Ok(epoch) => (200, "text/plain", format!("ready epoch={epoch}\n")),
            Err(why) => (503, "text/plain", format!("{why}\n")),
        },
        "/statusz" => (200, "application/json", status_json(inner).render()),
        _ => (404, "text/plain", format!("no such endpoint: {path}\n")),
    }
}

/// Builds the `/statusz` document. Everything except the latency and
/// SLO blocks comes from one snapshot of the server core and from the
/// cache's counters, so the document stays truthful even with telemetry
/// off; the latency quantiles appear once per-tenant histograms exist in
/// the registry.
pub(crate) fn status_json(inner: &ServerInner) -> Json {
    let core = inner.core().snapshot();
    let hits = inner.cache.hits();
    let misses = inner.cache.misses();
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };

    let snap = sunder_telemetry::snapshot();
    let mut latency = Vec::new();
    let mut reply_write = Vec::new();
    let mut slo = Vec::new();
    let quantiles = |h: &sunder_telemetry::Pow2Histogram| {
        let q = |p: f64| Json::Num(h.quantile(p).unwrap_or(0.0));
        Json::Obj(vec![
            ("count".into(), Json::Num(h.count() as f64)),
            ("mean_us".into(), Json::Num(h.mean())),
            ("p50_us".into(), q(0.5)),
            ("p99_us".into(), q(0.99)),
        ])
    };
    for e in &snap.entries {
        let tenant = e
            .labels
            .iter()
            .find(|(k, _)| *k == "tenant")
            .map(|(_, v)| v.clone());
        match (&e.value, e.name, tenant) {
            (MetricValue::Histogram(h), "serve_chunk_service_us", Some(t)) => {
                latency.push((t, quantiles(h)));
            }
            (MetricValue::Histogram(h), "serve_reply_write_us", Some(t)) => {
                reply_write.push((t, quantiles(h)));
            }
            (MetricValue::Counter(c), "serve_slo_violations_total", Some(t)) => {
                slo.push((t, Json::Num(*c as f64)));
            }
            _ => {}
        }
    }

    Json::Obj(vec![
        ("epoch".into(), Json::Num(core.epoch as f64)),
        (
            "uptime_s".into(),
            Json::Num(inner.started.elapsed().as_secs() as f64),
        ),
        ("draining".into(), Json::Bool(core.draining)),
        ("reloading".into(), Json::Bool(core.reloading)),
        (
            "sessions".into(),
            Json::Obj(vec![
                ("active".into(), Json::Num(core.active as f64)),
                ("started".into(), Json::Num(core.started as f64)),
                ("max".into(), Json::Num(inner.cfg.max_sessions as f64)),
                (
                    "per_tenant_limit".into(),
                    Json::Num(inner.cfg.per_tenant_sessions as f64),
                ),
            ]),
        ),
        (
            "tenants".into(),
            Json::Obj(
                core.tenants
                    .into_iter()
                    .map(|(t, n)| (t, Json::Num(n as f64)))
                    .collect(),
            ),
        ),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(hits as f64)),
                ("misses".into(), Json::Num(misses as f64)),
                ("entries".into(), Json::Num(inner.cache.len() as f64)),
                ("hit_rate".into(), Json::Num(hit_rate)),
            ]),
        ),
        ("latency_us".into(), Json::Obj(latency)),
        ("reply_write_us".into(), Json::Obj(reply_write)),
        ("slo_violations".into(), Json::Obj(slo)),
    ])
}

/// A minimal HTTP/1.0 GET: connects, sends the request, returns
/// `(status, body)`. This is the client side used by `sunder stat`, the
/// chaos-soak scraper, and CI — and it only speaks what the obs
/// listener serves.
///
/// # Errors
///
/// Connect/read failures and malformed status lines, as strings.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<(u16, String), String> {
    let sock = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    sock.set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut sock = sock;
    sock.write_all(
        format!("GET {path} HTTP/1.0\r\nHost: sunder\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    sock.read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("response missing header terminator")?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{MatchServer, ServerConfig};
    use sunder_automata::regex::compile_rule_set;
    use sunder_telemetry::json;

    fn obs_server() -> MatchServer {
        let nfa = compile_rule_set(&["ab+c"]).unwrap();
        let cfg = ServerConfig {
            obs_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap()
    }

    #[test]
    fn endpoints_respond_and_statusz_parses() {
        let server = obs_server();
        let obs = server.obs_addr().expect("obs listener running");
        let timeout = Duration::from_secs(2);

        let (status, body) = http_get(obs, "/healthz", timeout).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(obs, "/readyz", timeout).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("epoch=1"), "{body}");

        let (status, body) = http_get(obs, "/metrics", timeout).unwrap();
        assert_eq!(status, 200);
        sunder_telemetry::parse_prometheus(&body).expect("exposition parses");

        let (status, body) = http_get(obs, "/statusz", timeout).unwrap();
        assert_eq!(status, 200);
        let doc = json::parse(&body).expect("statusz is JSON");
        assert_eq!(doc.get("epoch").and_then(json::Json::as_u64), Some(1));
        assert_eq!(
            doc.get("sessions")
                .and_then(|s| s.get("active"))
                .and_then(json::Json::as_u64),
            Some(0)
        );

        let (status, _) = http_get(obs, "/nope", timeout).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn stdin_status_and_statusz_are_the_same_document() {
        let server = obs_server();
        let obs = server.obs_addr().unwrap();
        let from_method = server.status_json();
        let (_, from_http) = http_get(obs, "/statusz", Duration::from_secs(2)).unwrap();
        // Same producer; only the volatile uptime field may tick
        // between the two renders.
        let strip = |s: &str| {
            let doc = json::parse(s).unwrap();
            match doc {
                Json::Obj(pairs) => {
                    Json::Obj(pairs.into_iter().filter(|(k, _)| k != "uptime_s").collect())
                }
                other => other,
            }
            .render()
        };
        assert_eq!(strip(&from_method), strip(&from_http));
    }
}
