//! The end-to-end run: seeded load through one pipe to one real
//! `skild` process at its default flags.
//!
//! The load generator is this process's two threads: the calling
//! thread writes requests, one reader thread timestamps response lines
//! as they arrive. Every response is checked after its phase ends.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use perfbench::check::{check, response_id, Reference};
use perfbench::stats::Sample;
use perfbench::workload::{Arrivals, Line, Load, Req, Stream, Workload};
use skil_serve::json::{self, Json};

/// Cold starts continue past the minimum while all of them together
/// have taken less than this...
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// ...up to this many.
pub const MAX_SETUPS: usize = 40;

/// `peak_rss_mb` is read once this many measured requests have been
/// sent (or at the end of a shorter run), so that it reflects a fixed
/// amount of work even where `skild`'s memory grows with every request.
pub const RSS_AFTER: u64 = 2000;

/// How long any single response may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A response line and when the reader saw it.
type Reply = (Instant, String);

/// One running `skild`, its stdin, and the reader thread on its stdout.
pub struct Skild {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    replies: Receiver<Reply>,
    reader: Option<JoinHandle<()>>,
    spawned: Instant,
    cache_dir: PathBuf,
    stderr_path: PathBuf,
    rss_mark: Option<f64>,
}

impl Skild {
    /// Spawn `bin` with an empty native artifact cache (and scratch
    /// directory) under `dir`.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Skild, String> {
        let _ = fs::remove_dir_all(dir);
        let cache_dir = dir.join("native");
        let tmp = dir.join("tmp");
        for d in [&cache_dir, &tmp] {
            fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        }
        let stderr_path = dir.join("skild.stderr");
        let stderr =
            File::create(&stderr_path).map_err(|e| format!("cannot create stderr log: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .env("SKIL_NATIVE_CACHE_DIR", &cache_dir)
            .env("TMPDIR", &tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take().map(BufWriter::new);
        let (tx, replies) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Skild {
            child,
            stdin,
            replies,
            reader: Some(reader),
            spawned,
            cache_dir,
            stderr_path,
            rss_mark: None,
        })
    }

    /// Write one request line; returns when it was handed to the pipe.
    pub fn send(&mut self, line: &str) -> Result<Instant, String> {
        let at = Instant::now();
        let w = self.stdin.as_mut().expect("stdin open");
        w.write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .and_then(|_| w.flush())
            .map_err(|e| format!("write to skild failed: {e}"))?;
        Ok(at)
    }

    /// The next response line.
    pub fn recv(&self) -> Result<Reply, String> {
        self.replies
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| "skild gave no response within 60 s".to_string())
    }

    /// `skild`'s peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read skild status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or("no VmHWM in skild status".to_string())
    }

    /// Count one more measured request sent; reads `peak_rss_mb` at
    /// the [`RSS_AFTER`]th.
    fn sent_measured(&mut self, next: &mut u64) -> Result<(), String> {
        *next += 1;
        if *next == RSS_AFTER {
            self.rss_mark = Some(self.peak_rss_mb()?);
        }
        Ok(())
    }

    /// Native artifacts `skild` has built into its cache so far.
    pub fn native_artifacts(&self) -> usize {
        fs::read_dir(&self.cache_dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        name.starts_with("lib") && name.ends_with(".so")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Close stdin and wait for a clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("wait for skild failed: {e}"))?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            let stderr = fs::read_to_string(&self.stderr_path).unwrap_or_default();
            return Err(format!("skild exited with {status}: {stderr}"));
        }
        Ok(())
    }
}

impl Drop for Skild {
    fn drop(&mut self) {
        // Error paths: never leave a skild (or the reader) behind.
        drop(self.stdin.take());
        if let Some(r) = self.reader.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = r.join();
        }
    }
}

/// A request that was sent: which template, its id (`None` for a line
/// whose error response carries no id), when it was due and when it
/// actually went out.
struct Sent {
    template: usize,
    id: Option<String>,
    due: Instant,
    sent: Instant,
}

impl Sent {
    fn new(w: &Workload, req: &Req, id: String, due: Instant, sent: Instant) -> Sent {
        let id = (w.templates[req.template].line != Line::Broken).then_some(id);
        Sent { template: req.template, id, due, sent }
    }
}

/// Response checking and failure accounting for one run.
pub struct Gate {
    reference: Reference,
    want_miss: bool,
    /// Responses checked (or found missing).
    pub attempted: u64,
    /// Wrong or missing responses.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate for workload `w`.
    pub fn new(w: &Workload) -> Gate {
        Gate {
            reference: Reference::committed(),
            want_miss: w.rename,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check one reply to a request of template `template`.
    pub fn check(&mut self, w: &Workload, template: usize, reply: &str) {
        self.attempted += 1;
        if let Err(why) = check(reply, &w.templates[template], &self.reference, self.want_miss) {
            self.fail(why);
        }
    }

    /// Count a failure.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Pair `replies` with `sent` (by id; id-less replies in order) and
    /// check each. Returns `(sent, reply time)` for every answered
    /// request.
    fn settle<'s>(
        &mut self,
        w: &Workload,
        sent: &'s [Sent],
        replies: Vec<Reply>,
    ) -> Vec<(&'s Sent, Instant)> {
        let mut by_id: HashMap<&str, &Sent> = HashMap::new();
        let mut anon: VecDeque<&Sent> = VecDeque::new();
        for s in sent {
            match &s.id {
                Some(id) => {
                    by_id.insert(id.as_str(), s);
                }
                None => anon.push_back(s),
            }
        }
        let mut answered = Vec::with_capacity(sent.len());
        for (at, line) in replies {
            let s = match response_id(&line) {
                Some(id) => by_id.remove(id.as_str()),
                None => anon.pop_front(),
            };
            let Some(s) = s else {
                self.fail(format!("unexpected response: {line}"));
                continue;
            };
            self.check(w, s.template, &line);
            answered.push((s, at));
        }
        for s in by_id.values().chain(anon.iter()) {
            self.attempted += 1;
            self.fail(format!("no response to {}", w.templates[s.template].name));
        }
        answered
    }
}

/// What one end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds from spawn until every warm-up request was answered, one
    /// per set-up.
    pub setup_s: Vec<f64>,
    /// The phase latency is measured on.
    pub latency: Vec<Sample>,
    /// The closed-loop phase throughput is measured on.
    pub throughput: Vec<Sample>,
    /// `skild` VmHWM after [`RSS_AFTER`] measured requests.
    pub peak_rss_mb: f64,
    /// `skild` VmHWM before stdin closed.
    pub peak_rss_end_mb: f64,
    /// Requests sent in the measured phases.
    pub measured: u64,
    /// The final `{"cmd":"stats"}` response.
    pub stats: Option<Json>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run workload `w` against `bin`: at least `min_setups` cold starts,
/// more while they have taken under [`SETUP_BUDGET`] in all (at most
/// [`MAX_SETUPS`]); the last one stays up for the measured phases,
/// `seconds` in total.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_setups: usize,
    bin: &Path,
    out: &Path,
    gate: &mut Gate,
) -> Result<E2e, String> {
    let mut stream = Stream::new(w, seed);
    let warm: Vec<Req> = (0..w.templates.len()).map(|j| stream.warm_up(j)).collect();
    let mut e2e = E2e::default();
    let mut live = None;
    let begun = Instant::now();
    for k in 0.. {
        let mut d = Skild::spawn(bin, &out.join(format!("skild-{k}")))?;
        let mut sent = Vec::new();
        for (j, r) in warm.iter().enumerate() {
            let at = d.send(&r.line)?;
            sent.push(Sent::new(w, r, format!("w{j}"), at, at));
        }
        let replies = (0..warm.len()).map(|_| d.recv()).collect::<Result<Vec<_>, _>>()?;
        let ready = replies.iter().map(|(at, _)| *at).max().unwrap_or_else(Instant::now);
        e2e.setup_s.push((ready - d.spawned).as_secs_f64());
        gate.settle(w, &sent, replies);
        // Native guard: every natively served program must have been
        // compiled by rustc, never silently run on the VM instead.
        let (built, want) = (d.native_artifacts(), w.native_programs().len());
        if built != want {
            return Err(format!("native engine unavailable: {built} of {want} artifacts built"));
        }
        if k + 1 < min_setups || (begun.elapsed() < SETUP_BUDGET && k + 1 < MAX_SETUPS) {
            d.finish()?;
        } else {
            live = Some(d);
            break;
        }
    }
    let mut d = live.ok_or("no set-up run")?;
    let mut next = 0u64;
    let whole = Duration::from_secs_f64(seconds);
    match w.load {
        Load::OpenThenClosed(rate, window) => {
            e2e.latency =
                open_loop(w, &mut d, &mut stream, &mut next, seed, rate, whole / 2, gate)?;
            e2e.throughput =
                closed_loop(w, &mut d, &mut stream, &mut next, window, whole / 2, gate)?;
        }
        Load::Closed(window) => {
            e2e.latency = closed_loop(w, &mut d, &mut stream, &mut next, window, whole, gate)?;
            e2e.throughput = e2e.latency.clone();
        }
    }
    e2e.measured = next;
    d.send(r#"{"cmd":"stats"}"#)?;
    let (_, stats) = d.recv()?;
    let stats = json::parse(&stats).map_err(|e| format!("bad stats response: {e}"))?;
    e2e.peak_rss_end_mb = d.peak_rss_mb()?;
    e2e.peak_rss_mb = d.rss_mark.unwrap_or(e2e.peak_rss_end_mb);
    d.finish()?;
    if w.rename {
        let hits = stats.get("stats").and_then(|s| s.get("compile_hits")).and_then(Json::as_u64);
        if hits != Some(0) {
            gate.fail(format!(
                "compile_churn must never hit the program cache; compile_hits = {hits:?}"
            ));
        }
    }
    e2e.stats = Some(stats);
    Ok(e2e)
}

/// Seeded Poisson arrivals for `dur`; latency from each request's
/// scheduled send time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    w: &Workload,
    d: &mut Skild,
    stream: &mut Stream<'_>,
    next: &mut u64,
    seed: u64,
    rate: f64,
    dur: Duration,
    gate: &mut Gate,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut sent = Vec::new();
    for at in Arrivals::new(seed, rate) {
        let due = start + Duration::from_secs_f64(at);
        if due >= start + dur {
            break;
        }
        let req = stream.request(*next);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let at = d.send(&req.line)?;
        sent.push(Sent::new(w, &req, format!("r{next}"), due, at));
        d.sent_measured(next)?;
    }
    let replies = (0..sent.len()).map(|_| d.recv()).collect::<Result<Vec<_>, _>>()?;
    Ok(samples(gate.settle(w, &sent, replies), start, true))
}

/// `window` requests outstanding for `dur`; latency from each
/// request's actual send time.
fn closed_loop(
    w: &Workload,
    d: &mut Skild,
    stream: &mut Stream<'_>,
    next: &mut u64,
    window: usize,
    dur: Duration,
    gate: &mut Gate,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now();
    let end = start + dur;
    let mut sent = Vec::new();
    let mut replies = Vec::new();
    let mut freed = start;
    let mut outstanding = 0;
    loop {
        while outstanding < window && Instant::now() < end {
            let req = stream.request(*next);
            let at = d.send(&req.line)?;
            sent.push(Sent::new(w, &req, format!("r{next}"), freed, at));
            d.sent_measured(next)?;
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let reply = d.recv()?;
        freed = reply.0;
        replies.push(reply);
        outstanding -= 1;
    }
    Ok(samples(gate.settle(w, &sent, replies), start, false))
}

/// Answered requests as samples, in completion order. Open-loop
/// latency runs from the scheduled time, closed-loop from the send.
fn samples(answered: Vec<(&Sent, Instant)>, start: Instant, open: bool) -> Vec<Sample> {
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut out: Vec<Sample> = answered
        .into_iter()
        .map(|(s, at)| Sample {
            template: s.template,
            done_s: secs(at),
            latency_ms: ms(at - if open { s.due } else { s.sent }),
            late_ms: ms(s.sent.saturating_duration_since(s.due)),
        })
        .collect();
    out.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    out
}
