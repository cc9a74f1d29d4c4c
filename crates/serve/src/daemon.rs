//! The socket front-end: listeners, connections, and the drain dance.
//!
//! [`spawn`] binds the configured TCP and/or Unix listeners, starts one
//! shared [`Engine`], and returns a [`ServeHandle`] the caller can
//! block on. Each accepted connection gets two threads:
//!
//! * a **reader** that pulls newline-delimited requests off the socket
//!   (with a hard per-line byte cap — an oversized line is discarded to
//!   its newline and answered with a typed error, never buffered), and
//! * a **responder** that waits on admitted submissions' tickets and
//!   writes results back *in submission order*, so clients may pipeline
//!   requests and match responses positionally or by `id`.
//!
//! Fast outcomes (memo and disk hits, sheds, protocol errors, `ping`,
//! `stats`) are answered inline by the reader; only admitted runs travel
//! through the responder. A per-connection in-flight cap bounds how much
//! of the engine's queue any one client can own.
//!
//! Shutdown is protocol-driven: a `shutdown` request flips the drain
//! flag, the acceptor stops accepting, every admitted run completes and
//! is delivered, and the listeners close. (With no signal-handling in
//! `std`, SIGTERM is an abrupt kill — safe because the run cache's
//! writes are atomic — and `{"type":"shutdown"}` is the graceful path.)

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{Engine, EngineConfig, Submission, Ticket};
use crate::protocol::{
    render_bye, render_error, render_pong, render_result, render_snapshot, ErrorCode, Request,
    MAX_LINE_BYTES,
};

/// How often blocked readers and the acceptor wake to check the stop
/// flag (std has no poll/select, so liveness comes from timeouts).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

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
    shutdown: Arc<AtomicBool>,
    stopped: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// Requests the same graceful drain a `shutdown` request triggers.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether the daemon has fully drained and stopped serving.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has drained and every service thread has
    /// exited.
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
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
    let tcp = match &cfg.tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };
    #[cfg(unix)]
    let unix = match &cfg.unix {
        Some(path) => {
            // A stale socket file from a killed daemon would fail the
            // bind; remove it (connect errors distinguish live ones).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Some(listener)
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
    let unix_path = cfg.unix.clone();
    let engine = Arc::new(Engine::new(cfg.engine));
    let shutdown = Arc::new(AtomicBool::new(false));
    let stopped = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let stopped = Arc::clone(&stopped);
        let client_cap = cfg.client_cap.max(1);
        let unix_path = cfg.unix.clone();
        std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || {
                accept_loop(&tcp, &unix, &engine, &shutdown, &stopped, client_cap);
                // All listeners are closed; drain the engine so every
                // admitted run is delivered and written back before we
                // report stopped.
                engine.join();
                stopped.store(true, Ordering::SeqCst);
                #[cfg(unix)]
                if let Some(path) = &unix_path {
                    let _ = std::fs::remove_file(path);
                }
                #[cfg(not(unix))]
                let _ = unix_path;
            })
            .expect("spawn acceptor")
    };
    Ok(ServeHandle {
        tcp_addr,
        unix_path,
        shutdown,
        stopped,
        acceptor: Some(acceptor),
    })
}

/// One client socket, over either transport.
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

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
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

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(unix)]
type UnixListenerSlot = Option<UnixListener>;
#[cfg(not(unix))]
type UnixListenerSlot = Option<()>;

fn accept_loop(
    tcp: &Option<TcpListener>,
    unix: &UnixListenerSlot,
    engine: &Arc<Engine>,
    shutdown: &Arc<AtomicBool>,
    stopped: &Arc<AtomicBool>,
    client_cap: usize,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let mut accepted = false;
        if let Some(listener) = tcp {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    serve_connection(Conn::Tcp(stream), engine, shutdown, stopped, client_cap);
                    accepted = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => eprintln!("[serve] tcp accept error: {e}"),
            }
        }
        #[cfg(unix)]
        if let Some(listener) = unix {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    serve_connection(Conn::Unix(stream), engine, shutdown, stopped, client_cap);
                    accepted = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => eprintln!("[serve] unix accept error: {e}"),
            }
        }
        #[cfg(not(unix))]
        let _ = unix;
        if !accepted {
            std::thread::sleep(POLL_INTERVAL);
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

fn serve_connection(
    conn: Conn,
    engine: &Arc<Engine>,
    shutdown: &Arc<AtomicBool>,
    stopped: &Arc<AtomicBool>,
    client_cap: usize,
) {
    engine.note_connection();
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    if read_half.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let engine = Arc::clone(engine);
    let shutdown = Arc::clone(shutdown);
    let stopped = Arc::clone(stopped);
    // Connection threads are detached: they exit on client disconnect
    // or (post-drain) on the stopped flag, and hold nothing the daemon
    // needs back.
    let _ = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let inflight = Arc::new(AtomicUsize::new(0));
            let responder = {
                let inflight = Arc::clone(&inflight);
                let engine = Arc::clone(&engine);
                let mut writer = BufWriter::new(conn);
                std::thread::Builder::new()
                    .name("serve-respond".into())
                    .spawn(move || {
                        for reply in reply_rx {
                            let line = match reply {
                                Reply::Ready(line) => line,
                                Reply::Pending { id, key, ticket } => {
                                    let line = match ticket.wait() {
                                        Ok((stats, source, wait_us)) => render_result(
                                            id.as_deref(),
                                            &key,
                                            source,
                                            wait_us,
                                            &stats,
                                        ),
                                        Err(msg) => {
                                            engine.note_error();
                                            render_error(ErrorCode::Io, &msg, id.as_deref())
                                        }
                                    };
                                    inflight.fetch_sub(1, Ordering::SeqCst);
                                    line
                                }
                            };
                            // The client may have hung up; keep draining
                            // the channel regardless so ticket waits and
                            // the in-flight cap stay accounted.
                            let _ = write_line(&mut writer, &line);
                        }
                    })
                    .expect("spawn responder")
            };
            reader_loop(
                read_half, &engine, &shutdown, &stopped, client_cap, &reply_tx, &inflight,
            );
            drop(reply_tx);
            let _ = responder.join();
        });
}

fn reader_loop(
    read_half: Conn,
    engine: &Arc<Engine>,
    shutdown: &Arc<AtomicBool>,
    stopped: &Arc<AtomicBool>,
    client_cap: usize,
    reply_tx: &mpsc::Sender<Reply>,
    inflight: &Arc<AtomicUsize>,
) {
    let mut reader = BufReader::new(read_half);
    loop {
        match read_line_bounded(&mut reader, MAX_LINE_BYTES, stopped) {
            LineRead::TimedOut => {
                if stopped.load(Ordering::SeqCst) {
                    return;
                }
            }
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
                            // response) and tell the acceptor to wind
                            // the listeners down.
                            engine.begin_drain();
                            shutdown.store(true, Ordering::SeqCst);
                            Reply::Ready(render_bye())
                        }
                    }
                    Ok(Request::Submit(req)) => submit(engine, &req, client_cap, inflight),
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

fn write_line(w: &mut BufWriter<Conn>, line: &str) -> io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

enum LineRead {
    Line(String),
    Eof,
    Oversized,
    TimedOut,
    Err(io::Error),
}

/// Reads one `\n`-terminated line with a hard byte cap. A line past the
/// cap is consumed to its newline *without buffering* and reported as
/// [`LineRead::Oversized`], so a hostile client cannot balloon memory.
/// Read timeouts surface as [`LineRead::TimedOut`] only between lines;
/// mid-line timeouts keep waiting (checking `stopped` for liveness).
fn read_line_bounded(reader: &mut BufReader<Conn>, max: usize, stopped: &AtomicBool) -> LineRead {
    use std::io::BufRead;
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let (consumed, done) = {
            let available = match reader.fill_buf() {
                Ok([]) => {
                    return LineRead::Eof;
                }
                Ok(bytes) => bytes,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if buf.is_empty() && !discarding {
                        return LineRead::TimedOut;
                    }
                    if stopped.load(Ordering::SeqCst) {
                        return LineRead::Eof;
                    }
                    continue;
                }
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
