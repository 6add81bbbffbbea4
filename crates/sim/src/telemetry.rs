//! The live telemetry plane: a zero-dependency HTTP scrape endpoint.
//!
//! A [`TelemetryServer`] is one background thread owning a std
//! [`TcpListener`] and answering three routes, each a function of the
//! [`NodeReport`]s its [`ReportSource`] returns at request time:
//!
//! - `GET /metrics` — Prometheus text exposition
//!   ([`crate::obs::render_prometheus`]), for real scrapers.
//! - `GET /health` — a JSON array of
//!   [`HealthReport`](crate::obs::HealthReport)s, one per node
//!   ([`crate::obs::health_body`]).
//! - `GET /reports` — the reports themselves as a JSON array: what
//!   `neo-top --addr` polls.
//!
//! Everything else is 404. The server is deliberately minimal: it reads
//! one request, writes one `Connection: close` response, and hangs up —
//! exactly what a scraper or `curl` needs, with no keep-alive state to
//! manage.
//!
//! The tokio runtime's node handles are one source; the simulator-based
//! harnesses publish their reports into a [`TelemetryHub`] at slice
//! boundaries and hand the hub to the server.

use crate::obs::{health_body, render_prometheus, NodeReport, ReportSource};
use neo_wire::Addr;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A [`ReportSource`] fed by periodic publication: harnesses that own
/// their nodes (the simulator-driven chaos runner) push every node's
/// report at slice boundaries; requests read the latest published state.
#[derive(Default)]
pub struct TelemetryHub {
    inner: Mutex<BTreeMap<Addr, NodeReport>>,
}

impl TelemetryHub {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<Addr, NodeReport>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Install each node's latest report, replacing its previous one (a
    /// node that stopped reporting keeps its last).
    pub fn publish(&self, reports: Vec<NodeReport>) {
        let mut inner = self.lock();
        for report in reports {
            inner.insert(report.node, report);
        }
    }
}

impl ReportSource for TelemetryHub {
    fn reports(&self) -> Vec<NodeReport> {
        self.lock().values().cloned().collect()
    }
}

/// Upper bound on an accepted request's header bytes: a scrape request
/// is a few hundred bytes; anything larger is not a scraper.
const MAX_REQUEST_BYTES: usize = 8192;

/// The scrape endpoint's background thread. Dropping the handle signals
/// the thread and joins it.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks a free port)
    /// and start answering scrapes from `source`.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        source: Arc<dyn ReportSource>,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = stop.clone();
        let join = std::thread::Builder::new()
            .name("neo-telemetry".into())
            .spawn(move || serve_loop(listener, source, stop_thread))?;
        Ok(TelemetryServer {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (useful when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the thread to stop and join it (what dropping does).
    pub fn stop(self) {}
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn serve_loop(listener: TcpListener, source: Arc<dyn ReportSource>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One request per connection, served inline: scrape
                // cadence is seconds, responses are small, and inline
                // handling keeps the thread budget at exactly one.
                let _ = serve_one(stream, source.as_ref());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Read one HTTP request (just the request line matters) and write the
/// matching response.
fn serve_one(mut stream: TcpStream, source: &dyn ReportSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the blank line ending the header block (we ignore
    // bodies: every route is GET).
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > MAX_REQUEST_BYTES {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "request too large",
            );
        }
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
    }
    let request_line = match std::str::from_utf8(&buf) {
        Ok(text) => text.lines().next().unwrap_or("").to_string(),
        Err(_) => return respond(&mut stream, "400 Bad Request", "text/plain", "not utf-8"),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported",
        );
    }
    // Strip any query string: scrapers may append one.
    let path = path.split('?').next().unwrap_or(path);
    let (content_type, body) = match path {
        "/metrics" => (
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&source.reports()),
        ),
        "/health" => ("application/json", health_body(&source.reports())),
        "/reports" => (
            "application/json",
            serde_json::to_string(&source.reports()).unwrap_or_else(|_| "[]".to_string()),
        ),
        _ => {
            return respond(
                &mut stream,
                "404 Not Found",
                "text/plain",
                "routes: /metrics /health /reports",
            )
        }
    };
    respond(&mut stream, "200 OK", content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{Event, ExecSignals, HealthReport, Metrics, ObsConfig, TraceRead};

    /// Minimal scrape client (tests only): GET `path`, return the body.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_string(), body.to_string())
    }

    /// A hub holding one report of `r0` with `ops` at 5 and `commits`
    /// commit events.
    fn hub_with_one_node(commits: u64) -> Arc<TelemetryHub> {
        let hub = Arc::new(TelemetryHub::default());
        hub.publish(vec![r0_report(5, commits)]);
        hub
    }

    fn r0_report(ops: u64, commits: u64) -> NodeReport {
        let node = Addr::Replica(neo_wire::ReplicaId(0));
        let m = Metrics::new(ObsConfig::default());
        m.add("ops", ops);
        for slot in 0..commits {
            m.record_event(
                slot,
                node,
                Event::Commit {
                    slot,
                    client: 0,
                    request: slot + 1,
                },
            );
        }
        NodeReport::build(7, node, &m, None, ExecSignals::default(), TraceRead::Copy)
    }

    #[test]
    fn serves_metrics_health_and_reports() {
        let hub = hub_with_one_node(3);
        let server = TelemetryServer::start("127.0.0.1:0", hub.clone()).expect("bind");
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("neobft_ops_total{node=\"r0\"} 5"), "{body}");
        let commits = "neobft_events_total{node=\"r0\",kind=\"commit\"} 3";
        assert!(body.contains(commits), "{body}");

        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let docs: Vec<HealthReport> = serde_json::from_str(&body).expect("health JSON");
        assert_eq!(docs.len(), 1);
        assert_eq!((docs[0].node.as_str(), docs[0].committed), ("r0", 3));

        let (head, body) = http_get(addr, "/reports");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let reports: Vec<NodeReport> = serde_json::from_str(&body).expect("reports JSON");
        assert_eq!(
            reports,
            hub.reports(),
            "the route serves the source as it is"
        );
        let served = reports[0].snapshot.event(crate::obs::EventKind::Commit);
        assert_eq!(served, 3, "the three routes agree");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.stop();
    }

    #[test]
    fn scrapes_see_fresh_publications() {
        let hub = hub_with_one_node(0);
        let server = TelemetryServer::start("127.0.0.1:0", hub.clone()).expect("bind");
        let addr = server.local_addr();
        hub.publish(vec![r0_report(9, 0)]);
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("neobft_ops_total{node=\"r0\"} 9"), "{body}");
        assert_eq!(hub.reports().len(), 1, "a node's report replaces its last");
        server.stop();
    }

    #[test]
    fn rejects_non_get() {
        let hub = hub_with_one_node(0);
        let server = TelemetryServer::start("127.0.0.1:0", hub).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.stop();
    }
}
