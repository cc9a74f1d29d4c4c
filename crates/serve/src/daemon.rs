//! The socket front-end: listeners, connections, and the drain.
//!
//! [`spawn`] binds the configured TCP and/or Unix listeners, starts one
//! shared [`Engine`], and returns a [`ServeHandle`] the caller can
//! block on. Nothing polls: every thread blocks on the event it serves.
//!
//! * Each listener has its own **acceptor** thread in a blocking
//!   `accept` loop. A failed accept (say `EMFILE`) is logged and backs
//!   off, doubling from 5 ms to 1 s, so a persistent error cannot spin.
//! * Each accepted connection gets two threads: a **reader** that pulls
//!   newline-delimited requests off the socket (with a hard per-line
//!   byte cap — an oversized line is discarded to its newline and
//!   answered with a typed error, never buffered), and a **responder**
//!   that waits on admitted submissions' tickets and writes results back
//!   *in submission order*, so clients may pipeline requests and match
//!   responses positionally or by `id`.
//!
//! Fast outcomes (memo and disk hits, sheds, protocol errors, `ping`,
//! `stats`) are answered inline by the reader; only admitted runs travel
//! through the responder. A per-connection in-flight cap bounds how much
//! of the engine's queue any one client can own.
//!
//! Shutdown is protocol-driven. A `shutdown` request (or
//! [`ServeHandle::request_shutdown`]) sets the stop flag and wakes each
//! acceptor with a connection to its own listener (to loopback on the
//! bound port when TCP is bound to an unspecified address). The last
//! acceptor to exit **drains**: it joins the engine, so every admitted
//! run completes and is written back, then shuts down the read side of
//! every live connection. Blocked readers see EOF, and responders write
//! out every queued reply in order. A responder whose peer does not take
//! a reply within two seconds (`WRITE_TIMEOUT`) gives the connection up,
//! so a client that stops reading cannot hold the drain. The drain joins
//! every connection thread and [`ServeHandle::join`] joins the
//! acceptors, so `join` returns with the engine and its memo freed.
//! (With no signal-handling in `std`, SIGTERM is an abrupt kill — safe
//! because the run cache's writes are atomic — and `{"type":"shutdown"}`
//! is the graceful path.)

use std::io::{self, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{Engine, EngineConfig, Submission, Ticket};
use crate::protocol::{
    render_bye, render_error, render_pong, render_result, render_snapshot, ErrorCode, Request,
    MAX_LINE_BYTES,
};

/// How long a responder waits for its peer to take a reply before it
/// gives the connection up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Back-off after the first of a run of failed accepts; it doubles with
/// each further failure up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Daemon endpoints and policy.
#[derive(Debug)]
pub struct DaemonConfig {
    /// TCP bind address (e.g. `127.0.0.1:7117`); `None` to skip TCP.
    pub tcp: Option<String>,
    /// Unix-domain socket path; `None` to skip.
    pub unix: Option<PathBuf>,
    /// Engine sizing and policy.
    pub engine: EngineConfig,
    /// Per-connection cap on admitted-but-unanswered submissions.
    pub client_cap: usize,
}

impl DaemonConfig {
    /// Defaults: loopback TCP on an OS-assigned port, no Unix socket,
    /// client cap 64.
    #[must_use]
    pub fn new(engine: EngineConfig) -> Self {
        DaemonConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            unix: None,
            engine,
            client_cap: 64,
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// send `{"type":"shutdown"}` (or call [`ServeHandle::request_shutdown`])
/// and then [`ServeHandle::join`].
#[derive(Debug)]
pub struct ServeHandle {
    /// The bound TCP address, when TCP is enabled (the port is resolved,
    /// so `127.0.0.1:0` configs learn their real port here).
    pub tcp_addr: Option<SocketAddr>,
    /// The bound Unix socket path, when enabled.
    pub unix_path: Option<PathBuf>,
    control: Arc<Control>,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl ServeHandle {
    /// Requests the same graceful drain a `shutdown` request triggers.
    pub fn request_shutdown(&self) {
        self.control.request_stop();
    }

    /// Whether the daemon has fully drained and stopped serving.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.control.stopped.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has drained and every service thread —
    /// acceptors, connections, engine workers — has been joined. The
    /// engine and its memo are freed by then.
    pub fn join(&self) {
        let mut acceptors = self.acceptors.lock().expect("acceptor list poisoned");
        for acceptor in acceptors.drain(..) {
            if acceptor.join().is_err() {
                eprintln!("[serve] acceptor thread panicked");
            }
        }
    }
}

/// Binds the endpoints, starts the engine, and begins serving.
///
/// # Errors
///
/// Fails when a listener cannot bind (address in use, bad path, or a
/// config with no endpoint at all).
pub fn spawn(cfg: DaemonConfig) -> io::Result<ServeHandle> {
    let tcp = cfg.tcp.as_deref().map(TcpListener::bind).transpose()?;
    #[cfg(unix)]
    let unix = match &cfg.unix {
        Some(path) => {
            // A stale socket file from a killed daemon would fail the
            // bind; remove it (connect errors distinguish live ones).
            let _ = std::fs::remove_file(path);
            Some(UnixListener::bind(path)?)
        }
        None => None,
    };
    #[cfg(not(unix))]
    let unix: Option<()> = None;
    if tcp.is_none() && unix.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "daemon config has no endpoint (need tcp and/or unix)",
        ));
    }
    let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
    let control = Arc::new(Control {
        stop: Mutex::new(false),
        stop_set: Condvar::new(),
        stopped: AtomicBool::new(false),
        wake_tcp: tcp_addr.map(wake_addr),
        unix_path: cfg.unix.clone(),
    });
    let daemon = Arc::new(Daemon {
        engine: Engine::new(cfg.engine),
        client_cap: cfg.client_cap.max(1),
        control: Arc::clone(&control),
        conns: Mutex::new(Vec::new()),
        listening: AtomicUsize::new(usize::from(tcp.is_some()) + usize::from(unix.is_some())),
    });
    let mut acceptors = Vec::new();
    if let Some(listener) = tcp {
        let daemon = Arc::clone(&daemon);
        acceptors.push(spawn_named("serve-accept-tcp", move || {
            accept_loop(
                &daemon.control,
                "tcp",
                || listener.accept(),
                |(stream, _peer)| {
                    let _ = stream.set_nodelay(true);
                    serve_connection(&daemon, Conn::Tcp(stream));
                },
            );
            drop(listener); // refuse new connections while draining
            daemon.drain_if_last();
        }));
    }
    #[cfg(unix)]
    if let Some(listener) = unix {
        let daemon = Arc::clone(&daemon);
        acceptors.push(spawn_named("serve-accept-unix", move || {
            accept_loop(
                &daemon.control,
                "unix",
                || listener.accept(),
                |(stream, _peer)| serve_connection(&daemon, Conn::Unix(stream)),
            );
            drop(listener); // refuse new connections while draining
            daemon.drain_if_last();
        }));
    }
    Ok(ServeHandle {
        tcp_addr,
        unix_path: cfg.unix,
        control,
        acceptors: Mutex::new(acceptors),
    })
}

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// The address a stop request connects to so a TCP acceptor blocked in
/// `accept` wakes: the bound one, or loopback on the bound port when the
/// listener is bound to an unspecified address.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// The stop state the handle shares with the service threads.
#[derive(Debug)]
struct Control {
    stop: Mutex<bool>,
    /// Signalled when `stop` is set, so an acceptor backing off after an
    /// error wakes at once.
    stop_set: Condvar,
    stopped: AtomicBool,
    wake_tcp: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Control {
    fn stop_requested(&self) -> bool {
        *self.stop.lock().expect("stop flag poisoned")
    }

    /// Waits up to `timeout` for the stop flag; returns whether it is set.
    fn wait_for_stop(&self, timeout: Duration) -> bool {
        let stop = self.stop.lock().expect("stop flag poisoned");
        let (stop, _) = self
            .stop_set
            .wait_timeout_while(stop, timeout, |stop| !*stop)
            .expect("stop flag poisoned");
        *stop
    }

    /// Sets the stop flag and, the first time, wakes each acceptor with a
    /// connection to its own listener; the acceptor sees the flag and
    /// drops the connection.
    fn request_stop(&self) {
        {
            let mut stop = self.stop.lock().expect("stop flag poisoned");
            if *stop {
                return;
            }
            *stop = true;
            self.stop_set.notify_all();
        }
        if let Some(addr) = self.wake_tcp {
            if let Err(e) = TcpStream::connect(addr) {
                eprintln!("[serve] cannot wake the tcp acceptor at {addr}: {e}");
            }
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            if let Err(e) = UnixStream::connect(path) {
                eprintln!(
                    "[serve] cannot wake the unix acceptor at {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Accepts until the stop flag is set, handing each connection to
/// `serve`. A failed accept is logged and backs off (doubling from
/// [`ACCEPT_BACKOFF_MIN`] to [`ACCEPT_BACKOFF_MAX`], reset by the next
/// success), so a persistent error such as `EMFILE` cannot spin; a stop
/// request ends the back-off at once.
fn accept_loop<C>(
    control: &Control,
    endpoint: &str,
    mut accept: impl FnMut() -> io::Result<C>,
    mut serve: impl FnMut(C),
) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        match accept() {
            Ok(conn) => {
                if control.stop_requested() {
                    return;
                }
                backoff = ACCEPT_BACKOFF_MIN;
                serve(conn);
            }
            Err(e) => {
                eprintln!("[serve] {endpoint} accept error: {e} (retrying in {backoff:?})");
                if control.wait_for_stop(backoff) {
                    return;
                }
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// What the acceptors and the connections share.
struct Daemon {
    engine: Engine,
    client_cap: usize,
    control: Arc<Control>,
    /// Every connection not yet seen finished: a handle on its socket,
    /// for the drain to shut, and its thread, to join. Finished entries
    /// are pruned when a connection is accepted.
    conns: Mutex<Vec<Live>>,
    /// Acceptors still running; the last one to exit drains.
    listening: AtomicUsize,
}

struct Live {
    conn: Conn,
    thread: JoinHandle<()>,
}

impl Daemon {
    /// Called by each acceptor as it exits. The last one delivers and
    /// writes back every admitted run, ends every connection, and removes
    /// the socket file.
    fn drain_if_last(&self) {
        if self.listening.fetch_sub(1, Ordering::SeqCst) != 1 {
            return;
        }
        self.engine.join();
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection list poisoned"));
        for live in &conns {
            let _ = live.conn.shutdown(Shutdown::Read);
        }
        for live in conns {
            join_connection(live);
        }
        #[cfg(unix)]
        if let Some(path) = &self.control.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.control.stopped.store(true, Ordering::SeqCst);
    }
}

fn join_connection(live: Live) {
    if live.thread.join().is_err() {
        eprintln!("[serve] connection thread panicked");
    }
}

/// One client socket, over either transport.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

/// One queued answer. *Every* reply — even instantly-resolved ones —
/// travels through the responder channel, so a connection's responses
/// come back in strict request order: a pipelined `shutdown` can never
/// overtake the result of a submit queued before it.
enum Reply {
    /// Already rendered (pongs, errors, cache hits, snapshots, bye).
    Ready(String),
    /// An admitted run; the responder blocks on the ticket.
    Pending {
        id: Option<String>,
        key: String,
        ticket: Ticket,
    },
}

/// Starts the connection's thread and registers it for the drain.
fn serve_connection(daemon: &Arc<Daemon>, conn: Conn) {
    daemon.engine.note_connection();
    let (Ok(read_half), Ok(shut_half)) = (conn.try_clone(), conn.try_clone()) else {
        return;
    };
    if conn.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let spawned = {
        let daemon = Arc::clone(daemon);
        std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || run_connection(&daemon, read_half, conn))
    };
    match spawned {
        Ok(thread) => {
            let mut conns = daemon.conns.lock().expect("connection list poisoned");
            for live in conns.extract_if(.., |live| live.thread.is_finished()) {
                join_connection(live);
            }
            conns.push(Live {
                conn: shut_half,
                thread,
            });
        }
        Err(e) => eprintln!("[serve] cannot start a connection thread: {e}"),
    }
}

fn run_connection(daemon: &Arc<Daemon>, read_half: Conn, write_half: Conn) {
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let inflight = Arc::new(AtomicUsize::new(0));
    let responder = {
        let daemon = Arc::clone(daemon);
        let inflight = Arc::clone(&inflight);
        spawn_named("serve-respond", move || {
            respond(&daemon.engine, write_half, reply_rx, &inflight);
        })
    };
    reader_loop(read_half, daemon, &reply_tx, &inflight);
    drop(reply_tx);
    if responder.join().is_err() {
        eprintln!("[serve] responder thread panicked");
    }
}

/// Writes each reply in order until the reader hangs up, then shuts the
/// socket so the peer sees EOF even while the drain still holds a handle
/// on it.
fn respond(
    engine: &Engine,
    mut conn: Conn,
    replies: mpsc::Receiver<Reply>,
    inflight: &AtomicUsize,
) {
    let mut open = true;
    for reply in replies {
        let line = match reply {
            Reply::Ready(line) => line,
            Reply::Pending { id, key, ticket } => {
                let line = match ticket.wait() {
                    Ok((stats, source, wait_us)) => {
                        render_result(id.as_deref(), &key, source, wait_us, &stats)
                    }
                    Err(msg) => {
                        engine.note_error();
                        render_error(ErrorCode::Io, &msg, id.as_deref())
                    }
                };
                inflight.fetch_sub(1, Ordering::SeqCst);
                line
            }
        };
        // A peer that hung up, or did not take a reply in time, gets no
        // more writes; shutting the socket ends its reader too. The
        // channel still drains so ticket waits and the in-flight cap stay
        // accounted.
        if open && write_line(&mut conn, line).is_err() {
            open = false;
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
    let _ = conn.shutdown(Shutdown::Both);
}

fn reader_loop(
    read_half: Conn,
    daemon: &Daemon,
    reply_tx: &mpsc::Sender<Reply>,
    inflight: &Arc<AtomicUsize>,
) {
    let engine = &daemon.engine;
    let mut reader = BufReader::new(read_half);
    loop {
        match read_line_bounded(&mut reader, MAX_LINE_BYTES) {
            LineRead::Eof => return,
            LineRead::Err(e) => {
                // Transport-level failure (reset, non-UTF-8 bytes):
                // nothing sensible to answer on; the connection ends.
                eprintln!("[serve] connection read error: {e}");
                return;
            }
            LineRead::Oversized => {
                engine.note_request();
                engine.note_error();
                let line = render_error(
                    ErrorCode::Oversized,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    None,
                );
                if reply_tx.send(Reply::Ready(line)).is_err() {
                    return;
                }
            }
            LineRead::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                engine.note_request();
                let reply = match crate::protocol::parse_request(trimmed) {
                    Err((code, message)) => {
                        engine.note_error();
                        Reply::Ready(render_error(code, &message, None))
                    }
                    Ok(Request::Ping) => Reply::Ready(render_pong()),
                    Ok(Request::Stats) => Reply::Ready(render_snapshot(&engine.snapshot_json())),
                    Ok(Request::Shutdown) => {
                        if engine.is_draining() {
                            engine.note_error();
                            Reply::Ready(render_error(
                                ErrorCode::Draining,
                                "already draining",
                                None,
                            ))
                        } else {
                            // Drain now (sheds race-free with this
                            // response) and wake the acceptors to wind
                            // the listeners down.
                            engine.begin_drain();
                            daemon.control.request_stop();
                            Reply::Ready(render_bye())
                        }
                    }
                    Ok(Request::Submit(req)) => submit(engine, &req, daemon.client_cap, inflight),
                };
                if reply_tx.send(reply).is_err() {
                    return;
                }
            }
        }
    }
}

/// Handles one submit: resolve the scale/config, enforce the client
/// cap, and produce either a ready answer (cache hit or shed) or the
/// ticket the responder will block on.
fn submit(
    engine: &Engine,
    req: &crate::protocol::SubmitRequest,
    client_cap: usize,
    inflight: &Arc<AtomicUsize>,
) -> Reply {
    let id = req.id.as_deref();
    let (scale, cfg) = match req.to_config(engine.scale()) {
        Ok(resolved) => resolved,
        Err(message) => {
            engine.note_error();
            return Reply::Ready(render_error(ErrorCode::BadRequest, &message, id));
        }
    };
    if inflight.load(Ordering::SeqCst) >= client_cap {
        engine.note_client_cap_shed();
        engine.note_error();
        return Reply::Ready(render_error(
            ErrorCode::Busy,
            &format!("client in-flight cap ({client_cap}) reached"),
            id,
        ));
    }
    match engine.submit(scale, cfg) {
        Submission::Ready { key, stats, source } => {
            Reply::Ready(render_result(id, &key, source, 0, &stats))
        }
        Submission::Pending { key, ticket } => {
            inflight.fetch_add(1, Ordering::SeqCst);
            Reply::Pending {
                id: req.id.clone(),
                key,
                ticket,
            }
        }
        Submission::Busy => {
            engine.note_error();
            Reply::Ready(render_error(ErrorCode::Busy, "queue full", id))
        }
        Submission::Draining => {
            engine.note_error();
            Reply::Ready(render_error(ErrorCode::Draining, "daemon is draining", id))
        }
    }
}

/// Writes `line` and its newline, failing once [`WRITE_TIMEOUT`] has
/// passed without the whole line taken. The socket's write timeout bounds
/// each `write`; the deadline bounds the run of partial writes a peer
/// that reads only now and then lets through.
fn write_line(conn: &mut Conn, mut line: String) -> io::Result<()> {
    line.push('\n');
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut rest = line.as_bytes();
    while !rest.is_empty() {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "the peer did not take a reply in time",
            ));
        }
        match conn.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

enum LineRead {
    Line(String),
    Eof,
    Oversized,
    Err(io::Error),
}

/// Reads one `\n`-terminated line with a hard byte cap. A line past the
/// cap is consumed to its newline *without buffering* and reported as
/// [`LineRead::Oversized`], so a hostile client cannot balloon memory.
/// The read blocks; the drain ends it by shutting the socket's read side.
fn read_line_bounded(reader: &mut BufReader<Conn>, max: usize) -> LineRead {
    use std::io::BufRead;
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let (consumed, done) = {
            let available = match reader.fill_buf() {
                Ok([]) => return LineRead::Eof,
                Ok(bytes) => bytes,
                Err(e) => return LineRead::Err(e),
            };
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !discarding {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !discarding {
                        buf.extend_from_slice(available);
                    }
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if !discarding && buf.len() > max {
            discarding = true;
            buf.clear();
        }
        if done {
            if discarding {
                return LineRead::Oversized;
            }
            return match String::from_utf8(std::mem::take(&mut buf)) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line is not UTF-8",
                )),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control() -> Control {
        Control {
            stop: Mutex::new(false),
            stop_set: Condvar::new(),
            stopped: AtomicBool::new(false),
            wake_tcp: None,
            unix_path: None,
        }
    }

    #[test]
    fn a_persistent_accept_error_backs_off_until_a_stop_wakes_it() {
        let control = control();
        let (failed_seven, seven) = mpsc::channel();
        let start = Instant::now();
        let mut calls = 0u32;
        std::thread::scope(|s| {
            let control = &control;
            s.spawn(move || {
                seven.recv().expect("the loop reaches a seventh accept");
                control.request_stop();
            });
            accept_loop(
                control,
                "test",
                || -> io::Result<()> {
                    calls += 1;
                    if calls == 7 {
                        failed_seven.send(()).expect("the stopper waits");
                    }
                    Err(io::Error::other("too many open files"))
                },
                |()| panic!("no connection was accepted"),
            );
        });
        let elapsed = start.elapsed();
        assert_eq!(calls, 7);
        // Six back-offs (5 + 10 + ... + 160 ms) separate the seven calls,
        // where a hot loop would make millions.
        assert!(elapsed >= Duration::from_millis(315), "{elapsed:?}");
        // The stop cuts the seventh back-off (320 ms) short.
        assert!(elapsed < Duration::from_millis(600), "{elapsed:?}");
    }

    #[test]
    fn a_success_resets_the_back_off() {
        let control = control();
        let mut calls = 0u32;
        let mut served = 0u32;
        let start = Instant::now();
        accept_loop(
            &control,
            "test",
            || {
                calls += 1;
                match calls {
                    5 => Ok(()),
                    10 => {
                        control.request_stop();
                        Ok(())
                    }
                    _ => Err(io::Error::other("connection aborted")),
                }
            },
            |()| served += 1,
        );
        assert_eq!((calls, served), (10, 1));
        // Two runs of four failures wait 2 × (5 + 10 + 20 + 40) ms; one
        // run of eight would wait 1275 ms.
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(1000), "{elapsed:?}");
    }

    #[test]
    fn the_wake_connects_to_loopback_for_an_unspecified_bind() {
        for (bound, wake) in [
            ("0.0.0.0:7117", "127.0.0.1:7117"),
            ("[::]:7117", "[::1]:7117"),
            ("127.0.0.1:7117", "127.0.0.1:7117"),
            ("10.1.2.3:80", "10.1.2.3:80"),
        ] {
            let bound: SocketAddr = bound.parse().expect("address");
            assert_eq!(wake_addr(bound), wake.parse().expect("address"));
        }
    }
}
