//! A deliberately small, std-only HTTP/1.1 server for the obs
//! endpoint: thread-per-connection, `GET`-only, `Connection: close` on
//! every response. It exists so `adya-check --stream --obs-listen` can
//! serve `/metrics`, `/health`, and `/trace` while the checker
//! ingests — no async runtime, no TLS, no keep-alive, because a
//! scrape every few seconds is the whole workload.
//!
//! The server owns only transport concerns. Routing and payload
//! rendering live in the handler the caller supplies, which maps a
//! request path to a [`Response`]; the handler runs on the
//! per-connection thread and must therefore be `Send + Sync`.
//!
//! The request/response half is [`serve_request`], a function over any
//! `BufRead`/`Write` pair: `adya-serve` answers scrapes on its service
//! port through the same code, so there is one reason-phrase table,
//! one size limit and one deadline in the workspace. The transport half
//! is [`Listener`], the accept loop under both servers: it sleeps inside
//! a blocking `accept`, takes each connection the moment it arrives,
//! and is woken for shutdown by a connection of its own — no poll
//! timer stands between a client and its first reply. Beside them sits
//! [`write_line`], the one way an NDJSON line goes onto a socket.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// An HTTP response produced by an obs-endpoint handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 404, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::ok("application/json", body)
    }

    /// A plain-text response with an arbitrary status (used for 404s
    /// and the `/health` 503 degradation signal).
    pub fn status(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Handler type: maps a request path (query string stripped) to a
/// response. Runs on the per-connection thread.
pub type Handler = Arc<dyn Fn(&str) -> Response + Send + Sync>;

/// How long an accept loop waits after `accept` itself failed (out of
/// descriptors, a connection aborted before it was taken) before it
/// tries again. A quiet socket costs nothing: the loop sleeps inside
/// `accept` until a connection, or [`Listener::shutdown`]'s own, arrives.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long [`Listener::shutdown`] waits for its wake-up connection to
/// be taken by the kernel.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The one accept loop: a thread blocked in `accept` on a listening
/// socket, handing each connection to its own thread until told to
/// stop. Dropping the listener (or calling [`Listener::shutdown`])
/// stops and joins the loop; connection threads are detached and end on
/// their own terms.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Listener {
    /// Starts accepting on `listener`: every connection runs `serve` on
    /// a thread named `<name>-conn`. A connection is taken the moment it
    /// arrives; shutdown wakes the blocked `accept` with a connection of
    /// its own. `live` counts the connections whose `serve` has not
    /// returned yet, for a caller that waits for them or reports them.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        live: Arc<AtomicUsize>,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Listener> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, serve) = (Arc::clone(&stop), Arc::new(serve));
        let conn_name = format!("{name}-conn");
        let accept_thread = thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || loop {
                let accepted = listener.accept();
                // Whatever woke the loop after a stop — the shutdown's
                // own connection or a late client — is dropped unserved.
                if stopped.load(Ordering::Acquire) {
                    break;
                }
                let Ok((stream, _)) = accepted else {
                    // A failing `accept` (EMFILE, ECONNABORTED, …) would
                    // fail again at once: back off before the next.
                    thread::sleep(ACCEPT_BACKOFF);
                    continue;
                };
                // Counted before its thread exists, so a shutdown
                // that has joined this loop sees every connection.
                live.fetch_add(1, Ordering::Relaxed);
                let (done, serve) = (Arc::clone(&live), Arc::clone(&serve));
                let spawned = thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        serve(stream);
                        done.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Idempotent.
    ///
    /// The loop is woken by one connection to its own port (to the
    /// loopback address of the same family when bound to an unspecified
    /// one). Should that connection fail — the process out of
    /// descriptors, say — while the loop still sleeps in `accept`, the
    /// loop is left to end at the next connection it takes rather than
    /// hang the caller; its socket stays open until then.
    pub fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        // Release, paired with the loop's Acquire load: the flag is set
        // before the connection that wakes the loop is made.
        self.stop.store(true, Ordering::Release);
        let woken = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok();
        if woken || accept_thread.is_finished() {
            let _ = accept_thread.join();
        }
    }
}

/// Where a connection reaches a listener bound to `addr`.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The obs endpoint server: a [`Listener`] whose connections each
/// answer one request through [`serve_request`] — under a read timeout,
/// so none outlives shutdown by more than that bound.
#[derive(Debug)]
pub struct ObsServer(Listener);

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `handler` in the background.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<ObsServer> {
        let serve = move |stream| serve_connection(stream, &handler);
        Listener::spawn(TcpListener::bind(addr)?, "obs", Arc::default(), serve).map(ObsServer)
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

/// Longest request line answered; anything longer is a 400.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Total header bytes drained before the request is refused. Headers
/// are ignored either way — the bound exists so a hostile peer cannot
/// pin a connection thread behind an endless header stream.
const MAX_HEADER_BYTES: usize = 32 * 1024;
/// How long a peer gets to deliver its whole request head. Checked
/// between reads, so it bounds a one-byte-a-second peer as well as a
/// silent one — as long as the reader's own read timeout (if any) is
/// no longer than this.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Serves exactly one request on `stream` and closes it.
fn serve_connection(stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(REQUEST_DEADLINE));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    serve_request(&mut BufReader::new(read_half), &mut &stream, |path| {
        handler(path)
    });
}

/// The one HTTP responder: reads a request head from `reader`, maps
/// its path (query string stripped) through `route`, and writes the
/// response to `writer`. `GET`-only, `Connection: close`.
///
/// The head arrives off the network and is not trusted: no request
/// line, an unterminated or oversized one, header floods and non-GET
/// methods are answered with 400/405 (or a plain close when the peer
/// sent nothing), and at [`REQUEST_DEADLINE`] the wait is over: a peer
/// still inside its request line is dropped unanswered, one still
/// sending headers is answered and closed. `WouldBlock`/`TimedOut`
/// reads are retried until that deadline, so the reader may sit on a
/// socket with a short polling read timeout.
pub fn serve_request(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    route: impl FnOnce(&str) -> Response,
) {
    serve_request_by(Instant::now() + REQUEST_DEADLINE, reader, writer, route);
}

fn serve_request_by(
    deadline: Instant,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    route: impl FnOnce(&str) -> Response,
) {
    let mut request_line = Vec::new();
    match read_line(reader, MAX_REQUEST_LINE, deadline, &mut request_line) {
        LineEnd::Newline => {}
        // Peer connected and said nothing (or vanished, or stalled):
        // no request to answer, close cleanly.
        LineEnd::Eof if request_line.is_empty() => return,
        LineEnd::Abandoned => return,
        LineEnd::Eof | LineEnd::TooLong => {
            return write_response(writer, &Response::status(400, "request line too long\n"));
        }
    }
    // Drain headers so well-behaved clients see a clean close; bodies
    // on GET are ignored.
    let mut drained = 0usize;
    loop {
        let mut line = Vec::new();
        match read_line(reader, MAX_HEADER_BYTES - drained, deadline, &mut line) {
            LineEnd::Newline if line == b"\r\n" || line == b"\n" => break,
            LineEnd::Newline => drained += line.len(),
            // The request line is whole: a peer that closes, stalls or
            // trickles past the deadline gets its answer now and is
            // dropped, rather than holding the thread any longer.
            LineEnd::Eof | LineEnd::Abandoned => break,
            LineEnd::TooLong => {
                return write_response(writer, &Response::status(400, "headers too large\n"));
            }
        }
    }
    // Lossy: a mangled method/target routes to the 400/405 arms
    // instead of silently dropping the connection.
    let response = route_request(&String::from_utf8_lossy(&request_line), route);
    write_response(writer, &response);
}

enum LineEnd {
    /// `line` ends with the newline.
    Newline,
    /// The peer closed first; `line` holds what it sent.
    Eof,
    /// More than the allowed bytes arrived without a newline.
    TooLong,
    /// The deadline passed or the transport failed.
    Abandoned,
}

/// Appends bytes through the next `\n` to `line`, at most `limit` of
/// them, giving up at `deadline`.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    deadline: Instant,
    line: &mut Vec<u8>,
) -> LineEnd {
    loop {
        if Instant::now() >= deadline {
            return LineEnd::Abandoned;
        }
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => return LineEnd::Abandoned,
        };
        if chunk.is_empty() {
            return LineEnd::Eof;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if line.len() + take > limit {
            return LineEnd::TooLong;
        }
        line.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            return LineEnd::Newline;
        }
    }
}

/// Parses the request line and dispatches to the route. Query strings
/// are stripped before routing so `/health?verbose=1` still hits
/// `/health`.
fn route_request(request_line: &str, route: impl FnOnce(&str) -> Response) -> Response {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Response::status(400, "bad request\n");
    }
    if method != "GET" {
        return Response::status(405, "only GET is supported\n");
    }
    let path = target.split('?').next().unwrap_or(target);
    route(path)
}

/// Writes the whole response, head and body, in one `write_all`: a
/// head and a body written apart are two segments on a socket.
fn write_response(writer: &mut impl Write, r: &Response) {
    let mut bytes = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        r.status,
        r.reason(),
        r.content_type,
        r.body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(&r.body);
    let _ = writer.write_all(&bytes);
    let _ = writer.flush();
}

/// Writes `line` and its newline in one `write_all`: the one way a
/// line goes onto a socket in the workspace (`adya-serve`'s replies
/// and replication frames, `ServeClient`'s frames). `writeln!` on a
/// bare stream is two writes, the newline alone in the second; with
/// Nagle on, that second waits for the peer's delayed ACK (≈ 40 ms on
/// Linux), and with it off it is a segment and a wake-up of its own.
/// The newline is pushed onto `line`'s own buffer and popped again
/// before returning, so nothing outlives the call.
pub fn write_line(writer: &mut (impl Write + ?Sized), line: &mut String) -> io::Result<()> {
    line.push('\n');
    let wrote = writer.write_all(line.as_bytes());
    line.pop();
    wrote
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn test_handler() -> Handler {
        Arc::new(|path: &str| match path {
            "/metrics" => Response::ok("text/plain; version=0.0.4", "m 1\n"),
            "/health" => Response::json("{\"healthy\":true}"),
            _ => Response::status(404, "not found\n"),
        })
    }

    #[test]
    fn serves_routes_and_strips_query_strings() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let out = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(out.contains("Connection: close"));
        assert!(out.ends_with("m 1\n"), "{out}");
        let out = request(addr, "GET /health?verbose=1 HTTP/1.1\r\n\r\n");
        assert!(out.contains("{\"healthy\":true}"), "{out}");
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let out = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        let out = request(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|_| thread::spawn(move || request(addr, "GET /metrics HTTP/1.1\r\n\r\n")))
            .collect();
        for t in threads {
            let out = t.join().unwrap();
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        }
    }

    /// Like [`request`], but tolerant of mid-write resets: a server
    /// that rejects early and closes may RST before the client
    /// finishes writing, which is exactly the behavior under test.
    fn try_request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(raw);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        // A bare CRLF has no method or target.
        let out = request(addr, "\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // An unterminated request line longer than the bound. The 400
        // may be lost to a reset if the server answers mid-write; the
        // load-bearing assertion is the liveness check below.
        let out = try_request(addr, "A".repeat(9 * 1024).as_bytes());
        assert!(out.is_empty() || out.starts_with("HTTP/1.1 400"), "{out}");
        // A header flood past the drain bound.
        let mut flood = String::from("GET /metrics HTTP/1.1\r\n");
        for i in 0..4096 {
            flood.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
        }
        flood.push_str("\r\n");
        let out = try_request(addr, flood.as_bytes());
        assert!(out.is_empty() || out.starts_with("HTTP/1.1 400"), "{out}");
        // Non-UTF-8 garbage still gets an answer instead of a silent
        // close.
        let out = try_request(addr, b"\xff\xfe\xfd /x HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 4"), "{out}");
        // The server is still alive and serving after all of that.
        let out = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    }

    #[test]
    fn no_request_line_closes_cleanly() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        // Connect and shut down the write half without sending a byte:
        // the connection thread must exit (clean close), not hang or
        // panic, and the server must keep serving.
        let s = TcpStream::connect(addr).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        drop(s);
        let out = request(addr, "GET /health HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    }

    #[test]
    fn non_get_with_body_is_405() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let out = request(
            addr,
            "POST /metrics HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
        );
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        let out = request(addr, "PUT /health HTTP/1.1\r\n\r\n{\"x\": 1}");
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    /// `serve_request` over in-memory halves, as a non-socket caller
    /// (or one that already consumed the request line) drives it.
    fn respond(deadline: Duration, mut input: impl BufRead) -> String {
        let mut out = Vec::new();
        serve_request_by(Instant::now() + deadline, &mut input, &mut out, |path| {
            test_handler()(path)
        });
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn responder_works_over_any_bufread_and_write() {
        let far = Duration::from_secs(60);
        // A request line the caller already holds, chained onto the
        // rest of the stream: the shape `adya-serve` uses.
        let head = io::Cursor::new(&b"GET /health?x=1 HTTP/1.1\r\n"[..]);
        let rest = io::Cursor::new(&b"Host: x\r\n\r\nignored body"[..]);
        let out = respond(far, head.chain(rest));
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("{\"healthy\":true}"), "{out}");
        // HEAD is not GET.
        let out = respond(far, &b"HEAD /metrics HTTP/1.1\r\n\r\n"[..]);
        assert!(
            out.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{out}"
        );
        // Headers may end at EOF instead of a blank line.
        let out = respond(far, &b"GET /metrics HTTP/1.1\r\nHost: x\r\n"[..]);
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        // One header line past the drain bound, never terminated.
        let mut flood = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        flood.resize(flood.len() + MAX_HEADER_BYTES, b'y');
        let out = respond(far, &flood[..]);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{out}");
        // Nothing at all: nothing back.
        assert_eq!(respond(far, &b""[..]), "");
    }

    /// A peer that trickles one header byte per read and never
    /// finishes: every read makes progress, so only a deadline on the
    /// whole head can end it.
    struct Trickle {
        head: io::Cursor<&'static [u8]>,
        reads: usize,
    }

    impl io::Read for Trickle {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("the responder reads through BufRead")
        }
    }

    impl BufRead for Trickle {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.head.fill_buf()?.is_empty() {
                self.reads += 1;
                thread::sleep(Duration::from_millis(5));
                return match self.reads % 2 {
                    0 => Ok(b"y"),
                    _ => Err(io::ErrorKind::WouldBlock.into()),
                };
            }
            self.head.fill_buf()
        }
        fn consume(&mut self, n: usize) {
            if self.head.fill_buf().is_ok_and(|b| !b.is_empty()) {
                self.head.consume(n);
            }
        }
    }

    #[test]
    fn a_trickling_head_ends_at_the_deadline() {
        for (head, answer) in [
            // Still inside the request line: nothing to answer.
            (&b"GET /metr"[..], ""),
            // Request line whole, headers endless: answered, dropped.
            (&b"GET /metrics HTTP/1.1\r\nX-Slow: "[..], "HTTP/1.1 200"),
        ] {
            let peer = Trickle {
                head: io::Cursor::new(head),
                reads: 0,
            };
            let t0 = Instant::now();
            let out = respond(Duration::from_millis(200), peer);
            assert!(
                out.starts_with(answer) && (out.is_empty() == answer.is_empty()),
                "{out}"
            );
            let took = t0.elapsed();
            assert!(
                took >= Duration::from_millis(200) && took < Duration::from_secs(5),
                "{took:?}"
            );
        }
    }

    #[test]
    fn shutdown_joins_accept_loop() {
        let mut server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // Connecting after shutdown either fails outright or gets no
        // response; either way the accept thread is gone.
        let _ = TcpStream::connect(addr);
    }

    /// Behind a 25 ms accept poll these round trips take over a second;
    /// taken as they arrive, they take a few milliseconds.
    #[test]
    fn sequential_connections_wait_for_no_poll() {
        let server = ObsServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        let t0 = Instant::now();
        for _ in 0..40 {
            let out = request(addr, "GET /health HTTP/1.1\r\n\r\n");
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "40 round trips took {took:?}"
        );
    }

    /// How long a listener may take to stop: under [`WAKE_TIMEOUT`], so
    /// a wake-up connection that had to be waited out fails the test.
    const STOP_BOUND: Duration = Duration::from_millis(500);

    /// Starts a listener on `bind` whose connections read until their
    /// peer closes, with one client connected and idle when
    /// `idle_client`, and stops it through `shutdown()` and then through
    /// `Drop`: each within [`STOP_BOUND`], after which nothing listens
    /// at the address and the idle connection is still being served.
    fn stops_promptly(bind: SocketAddr, idle_client: bool) {
        for by_drop in [false, true] {
            let live = Arc::new(AtomicUsize::new(0));
            let serve = |mut s: TcpStream| {
                let _ = io::copy(&mut s, &mut io::sink());
            };
            let listener = TcpListener::bind(bind).unwrap();
            let mut listener = Listener::spawn(listener, "test", Arc::clone(&live), serve).unwrap();
            let addr = wake_addr(listener.local_addr());
            let client = idle_client.then(|| {
                let client = TcpStream::connect(addr).unwrap();
                let deadline = Instant::now() + Duration::from_secs(5);
                while live.load(Ordering::Relaxed) == 0 {
                    assert!(
                        Instant::now() < deadline,
                        "the idle client was never served"
                    );
                    thread::sleep(Duration::from_millis(1));
                }
                client
            });
            let t0 = Instant::now();
            if by_drop {
                drop(listener);
            } else {
                listener.shutdown();
            }
            let took = t0.elapsed();
            assert!(
                took < STOP_BOUND,
                "{bind} (drop: {by_drop}) took {took:?} to stop"
            );
            assert!(
                TcpStream::connect(addr).is_err(),
                "{addr} still accepts after its listener stopped"
            );
            // The wake-up connection was dropped unserved; the idle one
            // is the only connection still counted.
            assert_eq!(live.load(Ordering::Relaxed), usize::from(idle_client));
            drop(client);
        }
    }

    #[test]
    fn a_listener_on_an_unspecified_address_stops() {
        stops_promptly("0.0.0.0:0".parse().unwrap(), false);
    }

    #[test]
    fn a_listener_on_ipv6_loopback_stops() {
        let bind: SocketAddr = "[::1]:0".parse().unwrap();
        if TcpListener::bind(bind).is_err() {
            eprintln!("no IPv6 loopback here: skipped");
            return;
        }
        stops_promptly(bind, false);
    }

    #[test]
    fn a_listener_with_an_idle_client_stops() {
        stops_promptly("127.0.0.1:0".parse().unwrap(), true);
    }
}
