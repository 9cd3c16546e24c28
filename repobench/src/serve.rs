//! The `serve_mixed` workload: a loopback daemon (the `agave serve`
//! server, in process) under a closed loop of client threads with zero
//! think time. Each request dials its own connection, as the stock
//! client does, and every attempt goes through the client's `*_once`
//! methods so RETRY answers and transient connect failures are counted
//! here instead of being absorbed by the client's own retry loop.

use crate::plan::{Request, REPLAY_SPECS};
use crate::setup::{Corpus, Goldens, Tally};
use agave_serve::protocol::decode_session;
use agave_serve::{
    Analysis, Client, ClientError, Response, ServeConfig, Server, SessionInfo, WireError,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Attempts per request before it counts as failed (the stock client's
/// budget).
const MAX_RETRIES: u32 = 20;

/// The wire form of `REPLAY_SPECS[spec]`.
pub fn analysis(spec: usize) -> Analysis {
    match REPLAY_SPECS[spec] {
        "summary" => Analysis::Summary,
        "sketch" => Analysis::Sketch,
        other => Analysis::Cache(other.trim_start_matches("cache:").to_owned()),
    }
}

/// The session a corpus trace is served from.
pub fn reader_session(corpus: &Corpus, trace: usize) -> String {
    format!("r-{}", corpus.workloads[trace].label())
}

/// What the daemon must acknowledge for an upload of `trace` as `name`.
fn expected_session(corpus: &Corpus, trace: usize, name: &str) -> SessionInfo {
    let stats = corpus.stats[trace];
    SessionInfo {
        name: name.to_owned(),
        label: corpus.workloads[trace].label().to_owned(),
        file_bytes: stats.file_bytes,
        records: stats.records,
        words: stats.words,
        chunks: stats.chunks,
    }
}

/// Whether a failed attempt is a connect-level fault worth retrying
/// (the same kinds the stock client retries).
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::AddrNotAvailable
    )
}

/// Runs `attempt` until it answers OK or ERR, or the retry budget is
/// spent. Returns the OK body, if any, and the attempts made.
fn with_retries(
    mut attempt: impl FnMut() -> Result<Response, ClientError>,
) -> (Option<Vec<u8>>, u32) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let backoff_ms = match attempt() {
            Ok(Response::Ok(body)) => return (Some(body), attempts),
            Ok(Response::Err(_)) => return (None, attempts),
            Ok(Response::Retry { after_ms, .. }) => u64::from(after_ms),
            Err(ClientError::Wire(WireError::Io(e))) if transient(&e) => 10 * u64::from(attempts),
            Err(_) => return (None, attempts),
        };
        if attempts > MAX_RETRIES {
            return (None, attempts);
        }
        std::thread::sleep(Duration::from_millis(backoff_ms));
    }
}

/// One request's result as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Client-side latency in seconds, retries included.
    pub latency: f64,
    /// Whether the request was an upload.
    pub upload: bool,
    /// Whether the answer was OK and matched its golden.
    pub ok: bool,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
    /// Trace words behind the request.
    pub words: u64,
}

/// Sends one request (with retries) and checks the answer.
pub fn send(client: &Client, corpus: &Corpus, goldens: &Goldens, request: Request) -> (bool, u32) {
    match request {
        Request::Analyze { trace, spec } => {
            let name = reader_session(corpus, trace);
            let wire = analysis(spec);
            let (body, attempts) = with_retries(|| client.analyze_once(&name, &wire));
            let ok = body.is_some_and(|b| b == goldens.analysis[trace][spec].as_bytes());
            (ok, attempts)
        }
        Request::Upload { trace, slot } => {
            let name = format!("w-{slot}");
            let path = &corpus.paths[trace];
            let (body, attempts) = with_retries(|| client.upload_once(&name, path));
            let expected = expected_session(corpus, trace, &name);
            let ok = body.is_some_and(|b| decode_session(&b).is_ok_and(|s| s == expected));
            (ok, attempts)
        }
    }
}

/// Uploads every corpus trace as its reader session.
pub fn preload(addr: &str, corpus: &Corpus) -> Result<(), String> {
    let client = Client::with_origin(addr, "repobench/preload");
    for trace in 0..corpus.paths.len() {
        let name = reader_session(corpus, trace);
        let (body, _) = with_retries(|| client.upload_once(&name, &corpus.paths[trace]));
        let expected = expected_session(corpus, trace, &name);
        if !body.is_some_and(|b| decode_session(&b).is_ok_and(|s| s == expected)) {
            return Err(format!(
                "preload of {name} was not acknowledged as expected"
            ));
        }
    }
    Ok(())
}

/// Total bytes of the files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Binds a loopback daemon spooling into `spool`, runs `f` with its
/// address, then shuts it down and waits for it. Returns `f`'s result
/// and the spool's size just before shutdown.
pub fn with_daemon<R>(spool: &Path, f: impl FnOnce(&str) -> R) -> Result<(R, u64), String> {
    std::fs::create_dir_all(spool).map_err(|e| format!("spool: {e}"))?;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        spool: Some(spool.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind daemon: {e}"))?;
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&addr)));
        let spool_bytes = dir_bytes(spool);
        let shutdown = Client::with_origin(addr.as_str(), "repobench/shutdown").shutdown();
        let joined = daemon.join();
        let out = match out {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        shutdown.map_err(|e| format!("daemon shutdown: {e}"))?;
        joined.map_err(|_| "daemon thread panicked".to_owned())?;
        Ok((out, spool_bytes))
    })
}

/// A closed loop's samples and accounting.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// One sample per request, in completion order per client.
    pub samples: Vec<Sample>,
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Attempts beyond the first, summed over requests.
    pub retries: u64,
    /// The most requests that were ever in flight at once.
    pub max_in_flight: usize,
    /// How long the loop ran, in seconds.
    pub secs: f64,
}

/// Drives `requests` (wrapping around) from `clients` threads, each
/// sending its next request as soon as the previous one is answered,
/// until `seconds` pass or `limit` requests have been sent.
pub fn closed_loop(
    addr: &str,
    corpus: &Corpus,
    goldens: &Goldens,
    requests: &[Request],
    clients: usize,
    seconds: f64,
    limit: usize,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let merged = Mutex::new(LoopResult::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (next, in_flight, max_in_flight, merged) =
                (&next, &in_flight, &max_in_flight, &merged);
            scope.spawn(move || {
                let client = Client::with_origin(addr, format!("repobench/{c}"));
                let mut local = LoopResult::default();
                while started.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= limit {
                        break;
                    }
                    let request = requests[i % requests.len()];
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_in_flight.fetch_max(now, Ordering::SeqCst);
                    let sent = Instant::now();
                    let (ok, attempts) = send(&client, corpus, goldens, request);
                    let answered = Instant::now();
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    local.tally.check(ok);
                    local.retries += u64::from(attempts - 1);
                    let (upload, trace) = match request {
                        Request::Analyze { trace, .. } => (false, trace),
                        Request::Upload { trace, .. } => (true, trace),
                    };
                    local.samples.push(Sample {
                        latency: answered.duration_since(sent).as_secs_f64(),
                        upload,
                        ok,
                        attempts,
                        words: corpus.stats[trace].words,
                    });
                }
                let mut merged = merged.lock().expect("a client thread panicked");
                merged.samples.extend(local.samples);
                merged.tally.merge(local.tally);
                merged.retries += local.retries;
            });
        }
    });
    let mut result = merged.into_inner().expect("a client thread panicked");
    result.max_in_flight = max_in_flight.into_inner();
    result.secs = started.elapsed().as_secs_f64();
    result
}

impl LoopResult {
    /// OK requests per second over the whole loop. Whole-run rates,
    /// not per-window medians: a window holds too few of the slow
    /// cache requests for their share to be steady.
    pub fn req_per_s(&self) -> f64 {
        self.samples.iter().filter(|s| s.ok).count() as f64 / self.secs
    }

    /// Trace words behind OK requests, per second over the whole loop.
    pub fn refs_per_s(&self) -> f64 {
        let words: u64 = self.samples.iter().filter(|s| s.ok).map(|s| s.words).sum();
        words as f64 / self.secs
    }

    /// Client-side latencies in milliseconds of uploads or analyses.
    pub fn latencies_ms(&self, upload: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.upload == upload)
            .map(|s| s.latency * 1e3)
            .collect()
    }

    /// OK answers over attempts made.
    pub fn useful_ratio(&self) -> f64 {
        let attempts: u64 = self.samples.iter().map(|s| u64::from(s.attempts)).sum();
        let ok = self.samples.iter().filter(|s| s.ok).count();
        ok as f64 / attempts.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::plan::Plan;

    #[test]
    fn the_generator_never_exceeds_nproc_connections() {
        let dir = fixture::scratch("serve");
        let corpus = fixture::corpus(&dir, 3);
        let plan = Plan::generate("serve_mixed", 5, &corpus.sizes());
        let goldens = fixture::goldens(&corpus);
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (result, spool_bytes) = with_daemon(&dir.join("spool"), |addr| {
            preload(addr, &corpus).unwrap();
            closed_loop(addr, &corpus, &goldens, &plan.requests, clients, 30.0, 120)
        })
        .unwrap();
        assert_eq!(result.tally.attempted, 120);
        assert_eq!(result.tally.failed, 0, "every served answer matches");
        assert!(result.max_in_flight >= 1 && result.max_in_flight <= clients);
        assert!(spool_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_analyses_render_as_the_registry_specs() {
        for (i, spec) in REPLAY_SPECS.iter().enumerate() {
            assert_eq!(analysis(i).to_string(), *spec);
        }
    }
}
