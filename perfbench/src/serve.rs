//! The `serve` workload: an in-process `hirise-serve` driven closed-loop
//! over loopback TCP, each connection sending one cold campaign and
//! then warm repeats of campaigns it has already had answered.

use crate::campaigns::check_pin;
use crate::outcome::{describe_ms, Outcome};
use crate::parts::{serve_campaign, CONNECTIONS, PIN_SEED, SERVER_WORKERS, SERVE_BLOCK};
use crate::record::{response_op, response_u64};
use crate::stats::{fnv1a64, median, tail};
use hirise_core::rng::{derive_stream_seed, Rng, SeedableRng, StdRng};
use hirise_lab::CampaignSpec;
use hirise_serve::{ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Times set-up is repeated; the median is reported.
pub const SETUP_REPS: usize = 9;

/// How long a client waits for any one response line.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection, with std `TcpStream` defaults (as `loadgen`
/// uses them) apart from a read timeout that turns a stalled server
/// into a failed request instead of a hung benchmark.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self { stream, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stream, "{line}").map_err(|e| format!("write: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

/// A running server with its client connections.
pub struct Session {
    server: ServerHandle,
    conns: Vec<Conn>,
    dir: PathBuf,
}

impl Session {
    /// Starts a server on a fresh data directory, connects the clients
    /// and pings each connection once.
    pub fn start(dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut cfg = ServeConfig::new(dir);
        cfg.workers = SERVER_WORKERS;
        let server = ServerHandle::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let mut session = Self {
            conns: Vec::new(),
            dir: dir.to_path_buf(),
            server,
        };
        for _ in 0..CONNECTIONS {
            let mut conn = Conn::connect(session.server.addr())?;
            conn.send("{\"op\":\"ping\"}")?;
            let reply = conn.read_line()?;
            if response_op(&reply)?.as_deref() != Some("pong") {
                return Err(format!("ping answered {reply:?}"));
            }
            session.conns.push(conn);
        }
        Ok(session)
    }

    /// The server's counters.
    pub fn stats(&self) -> hirise_serve::StatsSnapshot {
        self.server.stats()
    }

    /// Closes the connections, stops the server (draining it, or
    /// aborting it after a failure) and removes its data.
    pub fn stop(mut self, drain: bool) {
        self.conns.clear();
        if drain {
            self.server.shutdown();
            self.server.join();
        } else {
            self.server.abort();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One request and its reply.
#[derive(Clone, Debug)]
pub struct RequestLog {
    /// Connection index.
    pub conn: usize,
    /// Campaign number on that connection.
    pub n: usize,
    /// Whether this was the campaign's first (cold) request.
    pub cold: bool,
    /// When the request was sent.
    pub start: Instant,
    /// Submit to `accepted`.
    pub admit: Duration,
    /// `accepted` to the first record.
    pub first_record: Duration,
    /// First record to `done`.
    pub stream: Duration,
    /// The record lines, in order.
    pub records: Vec<String>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

impl RequestLog {
    /// Submit to `done`.
    pub fn latency(&self) -> Duration {
        self.admit + self.first_record + self.stream
    }
}

/// Sends connection `conn`'s campaign `n` and reads the reply through
/// `done`. A typed rejection, a missing reply, or a `done` whose cache
/// split is not what a cold (all misses) or warm (all hits) request
/// must see, is an error.
fn submit(stream: &mut Conn, seed: u64, conn: usize, n: usize, cold: bool) -> RequestLog {
    let spec = serve_campaign(seed, conn, n);
    let line = format!(
        "{{\"op\":\"submit\",\"client\":\"c{conn}\",\"spec\":{}}}",
        spec.canonical_json()
    );
    let mut log = RequestLog {
        conn,
        n,
        cold,
        start: Instant::now(),
        admit: Duration::ZERO,
        first_record: Duration::ZERO,
        stream: Duration::ZERO,
        records: Vec::new(),
        error: None,
    };
    if let Err(e) = read_reply(stream, &line, spec.jobs().len(), cold, &mut log) {
        log.error = Some(e);
    }
    log
}

fn read_reply(
    conn: &mut Conn,
    line: &str,
    jobs: usize,
    cold: bool,
    log: &mut RequestLog,
) -> Result<(), String> {
    conn.send(line)?;
    let mut accepted = None;
    let mut first = None;
    loop {
        let reply = conn.read_line()?;
        match response_op(&reply)?.as_deref() {
            None => {
                if accepted.is_none() {
                    return Err("record before accepted".into());
                }
                first.get_or_insert_with(Instant::now);
                log.records.push(reply);
            }
            Some("accepted") => accepted = Some(Instant::now()),
            Some("done") => {
                let done = Instant::now();
                let accepted = accepted.ok_or("done before accepted")?;
                let first = first.ok_or("done without records")?;
                log.admit = accepted - log.start;
                log.first_record = first - accepted;
                log.stream = done - first;
                let (hits, misses) = if cold { (0, jobs) } else { (jobs, 0) };
                if log.records.len() != jobs
                    || response_u64(&reply, "cache_hits") != Some(hits as u64)
                    || response_u64(&reply, "cache_misses") != Some(misses as u64)
                {
                    return Err(format!("{} records, done line {reply}", log.records.len()));
                }
                return Ok(());
            }
            Some("error") => return Err(format!("rejected: {reply}")),
            Some(op) => return Err(format!("unexpected {op:?} line")),
        }
    }
}

/// One connection's closed loop until `deadline`: a cold request for a
/// new campaign, then `SERVE_BLOCK - 1` warm repeats of campaigns this
/// connection has already had answered, drawn by a seeded RNG.
fn client_loop(conn: &mut Conn, index: usize, seed: u64, deadline: Instant) -> Vec<RequestLog> {
    let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, 200 + index as u64));
    let mut answered: Vec<usize> = Vec::new();
    let mut next_new = 0;
    let mut logs = Vec::new();
    let mut k = 0usize;
    while Instant::now() < deadline {
        let cold = k.is_multiple_of(SERVE_BLOCK) || answered.is_empty();
        let n = if cold {
            next_new += 1;
            next_new - 1
        } else {
            answered[rng.gen_range(0..answered.len())]
        };
        let log = submit(conn, seed, index, n, cold);
        if cold && log.error.is_none() {
            answered.push(n);
        }
        logs.push(log);
        k += 1;
    }
    logs
}

/// Runs every connection's closed loop for `duration`; returns the
/// request logs and the wall time until the last reply.
pub fn run_stream(session: &mut Session, seed: u64, duration: Duration) -> (Vec<RequestLog>, f64) {
    let start = Instant::now();
    let deadline = start + duration;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || client_loop(conn, i, seed, deadline)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// The records a direct `run_job` gives for each job of `spec`.
pub fn direct_records(spec: &CampaignSpec) -> Vec<String> {
    spec.jobs()
        .iter()
        .map(|job| spec.run_job(job).to_jsonl_line())
        .collect()
}

/// Checks every request: it ended in `done`, and its records equal a
/// direct `run_job` of the same jobs (so warm, cached records equal
/// fresh ones). Each failed request counts once.
pub fn verify(logs: &[RequestLog], seed: u64, out: &mut Outcome) {
    let mut direct: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    for log in logs {
        let what = format!(
            "{} request c{}-{}",
            if log.cold { "cold" } else { "warm" },
            log.conn,
            log.n
        );
        let result = match &log.error {
            Some(e) => Err(e.clone()),
            None => {
                let expected = direct
                    .entry((log.conn, log.n))
                    .or_insert_with(|| direct_records(&serve_campaign(seed, log.conn, log.n)));
                if *expected == log.records {
                    Ok(())
                } else {
                    Err("records differ from a direct run_job".to_string())
                }
            }
        };
        out.check(&what, result);
    }
}

/// Digest of the records of the first campaigns of every connection at
/// [`PIN_SEED`].
pub fn pin_digest() -> u64 {
    let mut text = String::new();
    for conn in 0..CONNECTIONS {
        for n in 0..2 {
            for line in direct_records(&serve_campaign(PIN_SEED, conn, n)) {
                text.push_str(&line);
                text.push('\n');
            }
        }
    }
    fnv1a64(text.as_bytes())
}

/// Latencies in ms of the successful requests of one class.
pub fn latencies_ms(
    logs: &[RequestLog],
    cold: bool,
    part: fn(&RequestLog) -> Duration,
) -> Vec<f64> {
    logs.iter()
        .filter(|l| l.cold == cold && l.error.is_none())
        .map(|l| part(l).as_secs_f64() * 1e3)
        .collect()
}

/// Runs the `serve` workload for `seconds` and checks every reply.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let started = Session::start(dir);
        setup_s.push(start.elapsed().as_secs_f64());
        match started {
            Ok(s) if rep + 1 == SETUP_REPS => session = Some(s),
            Ok(s) => s.stop(true),
            Err(e) => {
                out.check("setup", Err::<(), _>(e));
                return out;
            }
        }
    }
    let mut session = session.expect("set up at least once");

    let (logs, window_s) = run_stream(&mut session, seed, Duration::from_secs(seconds));
    let stats = session.stats();
    let clean = logs.iter().all(|l| l.error.is_none());
    session.stop(clean);

    verify(&logs, seed, &mut out);
    out.check("serve pinned digest", check_pin("serve", pin_digest()));

    let done = logs.iter().filter(|l| l.error.is_none()).count();
    let cold = latencies_ms(&logs, true, RequestLog::latency);
    let warm = latencies_ms(&logs, false, RequestLog::latency);
    out.note(format!("requests_per_s {} 1/s", done as f64 / window_s));
    for (name, samples) in [("cold", &cold), ("warm", &warm)] {
        if samples.is_empty() {
            out.check(
                &format!("{name} requests"),
                Err::<(), _>("none completed".into()),
            );
            continue;
        }
        out.note(format!(
            "{name}_p50_ms {} ms ({})",
            median(samples),
            describe_ms(samples)
        ));
        out.note(match tail(samples) {
            Some(t) => format!(
                "{name}_tail_ms {} ms (p{}, {} samples beyond)",
                t.value, t.percentile, t.beyond
            ),
            None => format!("{name}_tail_ms n/a (fewer than 20 samples)"),
        });
    }
    out.note(format!(
        "server: {} requests done, {} cache hits, {} misses, {} rejected",
        stats.requests_done, stats.cache_hits, stats.cache_misses, stats.rejected
    ));

    out.end_to_end(&setup_s, &warm, &cold);
    out
}
