//! The TCP front end: a bounded accept loop feeding a worker-thread
//! pool.
//!
//! The listener thread accepts connections and hands them to `threads`
//! workers over an `mpsc` channel (receiver shared behind a mutex —
//! contention is one lock per *connection*, not per byte). Each worker
//! runs [`handle_connection`]: an HTTP/1.1 **keep-alive** loop that
//! answers requests from the shared [`PlacementService`] until the
//! peer closes, sends `Connection: close`, idles past
//! [`IDLE_TIMEOUT`], or exhausts [`MAX_REQUESTS_PER_CONNECTION`]. The
//! loop owns one [`Request`], one body `String`, and one response
//! `Vec<u8>` for the whole connection, so the steady state allocates
//! nothing per request. Slow or stuck peers are cut off by the
//! per-socket read timeout so a worker can never be wedged by an idle
//! connection.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::api::PlacementService;
use crate::http::{read_request_into, render_response, Request};

/// How long a worker waits for the next request on a kept-alive
/// connection before dropping it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Most requests served over one connection before the server closes
/// it (a fairness bound: one chatty peer cannot pin a worker forever).
pub const MAX_REQUESTS_PER_CONNECTION: u64 = 10_000;

/// A bound listener, ready to serve.
pub struct Server {
    listener: TcpListener,
    service: Arc<PlacementService>,
    idle_timeout: Duration,
    max_requests: u64,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8980`; port 0 picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub fn bind(addr: &str, service: Arc<PlacementService>) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
            idle_timeout: IDLE_TIMEOUT,
            max_requests: MAX_REQUESTS_PER_CONNECTION,
        })
    }

    /// Overrides the keep-alive idle timeout (tests use short ones).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Overrides the per-connection request bound.
    pub fn with_max_requests_per_connection(mut self, max: u64) -> Self {
        self.max_requests = max.max(1);
        self
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on `threads` workers. Only returns on a fatal
    /// listener error.
    pub fn run(self, threads: usize) -> std::io::Result<()> {
        let threads = threads.max(1);
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&self.service);
            let idle_timeout = self.idle_timeout;
            let max_requests = self.max_requests;
            workers.push(std::thread::spawn(move || loop {
                let received = {
                    let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.recv()
                };
                let Ok(stream) = received else {
                    // The accept loop is gone; drain and exit.
                    return;
                };
                serve_connection(&service, stream, idle_timeout, max_requests);
            }));
        }
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // Per-connection accept errors (peer vanished between
                // SYN and accept) are not fatal to the daemon.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Accepts and serves exactly one connection (which may carry many
    /// keep-alive requests) on the calling thread; test hook for
    /// deterministic servers.
    pub fn serve_one(&self) -> std::io::Result<()> {
        let (stream, _) = self.listener.accept()?;
        serve_connection(&self.service, stream, self.idle_timeout, self.max_requests);
        Ok(())
    }
}

/// Configures the socket and runs the keep-alive loop over it. All I/O
/// errors are swallowed: the peer is gone, and the daemon must not
/// care.
fn serve_connection(
    service: &PlacementService,
    stream: TcpStream,
    idle_timeout: Duration,
    max_requests: u64,
) {
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let served = handle_connection(service, &mut reader, &mut writer, max_requests);
    service.metrics().record_connection(served);
}

/// The keep-alive request loop: reads up to `max_requests` requests
/// from `reader`, answering each on `writer`, reusing one request
/// struct, one body buffer, and one response buffer for the whole
/// connection. Returns the number of requests served.
///
/// Responses are flushed only when the read buffer is drained — i.e.
/// when the loop is about to block waiting on the peer. While a
/// pipelined burst of requests is still buffered, their responses
/// coalesce into one write syscall instead of one per response.
///
/// The loop ends when the peer closes (clean EOF), asks to close
/// (`Connection: close`, or HTTP/1.0 without `keep-alive`), idles past
/// the socket's read timeout, breaks the protocol (answered with its
/// 4xx, then closed), or hits the request bound. The last response
/// before any server-initiated close carries `connection: close` so
/// well-behaved clients do not race a reset.
// decarb-analyze: hot-path
pub fn handle_connection<T: std::io::Read, W: Write>(
    service: &PlacementService,
    reader: &mut BufReader<T>,
    writer: &mut W,
    max_requests: u64,
) -> u64 {
    let mut req = Request::default();
    let mut body = String::with_capacity(1024);
    let mut out = Vec::with_capacity(1536);
    let mut served = 0u64;
    while served < max_requests {
        match read_request_into(reader, &mut req) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                // Protocol violations get their 4xx and a close;
                // socket errors (peer gone, idle timeout) close
                // quietly — nobody is listening for a response.
                if !e.is_io() {
                    let (status, text) = service.handle_http_error(&e);
                    render_response(&mut out, status, &text, false);
                    let _ = writer.write_all(&out).and_then(|()| writer.flush());
                }
                break;
            }
        }
        let keep_alive = req.keep_alive() && served + 1 < max_requests;
        let status = service.handle_into(&req, &mut body);
        render_response(&mut out, status, &body, keep_alive);
        served += 1;
        if writer.write_all(&out).is_err() {
            break;
        }
        if !keep_alive {
            let _ = writer.flush();
            break;
        }
        if reader.buffer().is_empty() && writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
    served
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    use decarb_traces::builtin_dataset;

    fn start() -> (SocketAddr, std::thread::JoinHandle<()>) {
        start_with(|s| s)
    }

    fn start_with(
        configure: impl FnOnce(Server) -> Server,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let service = Arc::new(PlacementService::new(builtin_dataset()));
        let server = configure(Server::bind("127.0.0.1:0", service).unwrap());
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            server.serve_one().unwrap();
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_healthz_over_tcp() {
        let (addr, handle) = start();
        let response = roundtrip(
            addr,
            b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("connection: close"), "{response}");
        assert!(response.contains("\"status\": \"ok\""), "{response}");
    }

    #[test]
    fn malformed_bytes_get_a_400_not_a_dead_worker() {
        let (addr, handle) = start();
        let response = roundtrip(addr, b"NOT-HTTP\r\n\r\n");
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("bad-request-line"), "{response}");
        assert!(response.contains("connection: close"), "{response}");
    }

    #[test]
    fn an_arrival_past_the_trace_end_leaves_the_worker_serving() {
        let (addr, handle) = start();
        let body = r#"{"origin":"DE","duration_hours":1,"arrival_hour":4000000000}"#;
        let raw = format!(
            "POST /v1/place HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}\
             GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let response = roundtrip(addr, raw.as_bytes());
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 422"), "{response}");
        assert!(response.contains("beyond-trace-end"), "{response}");
        assert!(response.contains("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"status\": \"ok\""), "{response}");
    }

    #[test]
    fn one_connection_serves_many_requests() {
        let (addr, handle) = start();
        let response = roundtrip(
            addr,
            b"GET /v1/healthz HTTP/1.1\r\n\r\n\
              GET /v1/healthz HTTP/1.1\r\n\r\n\
              GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        handle.join().unwrap();
        assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 3, "{response}");
        assert_eq!(response.matches("connection: keep-alive").count(), 2);
        assert_eq!(response.matches("connection: close").count(), 1);
    }

    #[test]
    fn request_bound_closes_the_connection() {
        let (addr, handle) = start_with(|s| s.with_max_requests_per_connection(2));
        let response = roundtrip(
            addr,
            b"GET /v1/healthz HTTP/1.1\r\n\r\n\
              GET /v1/healthz HTTP/1.1\r\n\r\n\
              GET /v1/healthz HTTP/1.1\r\n\r\n",
        );
        handle.join().unwrap();
        // Two answers, then the server closes; the second is already
        // marked close so the client knows not to wait for a third.
        assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 2, "{response}");
        assert!(response.ends_with("}"), "{response}");
        assert_eq!(response.matches("connection: keep-alive").count(), 1);
        assert_eq!(response.matches("connection: close").count(), 1);
    }

    #[test]
    fn handle_connection_reports_requests_served() {
        let service = PlacementService::new(builtin_dataset());
        let raw = b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/regions HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let mut out = Vec::new();
        let served = handle_connection(&service, &mut reader, &mut out, u64::MAX);
        assert_eq!(served, 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2);
    }
}
