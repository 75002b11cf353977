//! The traced in-process run: per-layer numbers from spans recorded
//! around calls into each layer's public functions, from outside.
//!
//! Spans live in memory and are written out once, at the end. Spans of
//! one request share its id (`r<i>`); layer probes outside the request
//! stream are keyed by what they probe (`prog:<name>`, `mesh:<RxC>`,
//! `key:<template>`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::stats::{geomean, median};
use perfbench::workload::{source, Expect, Stream, Workload};
use skil_lang::{
    bytecode, check as typeck, compile_opt, instantiate, opt, parser, Compiled, Engine, OptLevel,
};
use skil_runtime::{FaultPlan, Machine, MachineConfig};
use skil_serve::json::{self, Json};
use skil_serve::{Request, Server};

use crate::skild::Gate;
use crate::Metric;

/// What a span belongs to: a request of the stream (`r<i>`) or a
/// layer probe (`prog:<name>`, `mesh:<RxC>`, `key:<template>`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Key {
    Req(u32),
    Probe(u32),
}

/// One recorded span.
struct Span {
    key: Key,
    name: &'static str,
    parent: &'static str,
    start: Duration,
    dur: Duration,
}

impl Span {
    fn us(&self) -> f64 {
        self.dur.as_secs_f64() * 1e6
    }
}

/// The in-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    probes: Vec<String>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), probes: Vec::new() }
    }

    fn probe(&mut self, name: String) -> Key {
        self.probes.push(name);
        Key::Probe(self.probes.len() as u32 - 1)
    }

    fn span<T>(
        &mut self,
        key: Key,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let v = f();
        self.close(key, name, parent, start);
        v
    }

    /// Record a span that began at `start` and ends now.
    fn close(&mut self, key: Key, name: &'static str, parent: &'static str, start: Instant) {
        let dur = start.elapsed();
        self.spans.push(Span { key, name, parent, start: start - self.origin, dur });
    }

    /// Durations (µs) of every span called `name`.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let key = match s.key {
                Key::Req(i) => format!("r{i}"),
                Key::Probe(k) => self.probes[k as usize].clone(),
            };
            let _ = writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                Json::Str(key),
                s.name,
                s.parent,
                s.start.as_secs_f64() * 1e6,
                s.us()
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn mesh_of(spec: &str) -> (usize, usize) {
    let (r, c) = spec.split_once('x').expect("RxC");
    (r.parse().expect("rows"), c.parse().expect("cols"))
}

fn machine(spec: &str) -> Machine {
    let (r, c) = mesh_of(spec);
    Machine::new(MachineConfig::mesh(r, c).expect("valid mesh"))
}

/// Call `f` at least 3 times and then until 150 ms are spent (at most
/// 40 times), each call a span; the median in µs.
fn repeat<T>(tr: &mut Tracer, key: Key, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let (start, first) = (Instant::now(), tr.spans.len());
    let mut n = 0;
    while n < 3 || (n < 40 && start.elapsed() < Duration::from_millis(150)) {
        tr.span(key, name, "probe", &mut f);
        n += 1;
    }
    median(&tr.spans[first..].iter().map(Span::us).collect::<Vec<_>>())
}

/// The front end phase by phase, each a span of `key`.
fn front_end(tr: &mut Tracer, key: Key, parent: &'static str, src: &str) -> Result<(), String> {
    let ast =
        tr.span(key, "lang.parse", parent, || parser::parse(src)).map_err(|e| e.to_string())?;
    let mut ck =
        tr.span(key, "lang.check", parent, || typeck::check(&ast)).map_err(|e| e.to_string())?;
    let fo = tr
        .span(key, "lang.instantiate", parent, || instantiate::instantiate(&mut ck))
        .map_err(|e| e.to_string())?;
    let raw = tr.span(key, "lang.bytecode", parent, || bytecode::compile_program(&fo));
    tr.span(key, "lang.opt", parent, || opt::optimize(&raw, OptLevel::default()));
    Ok(())
}

/// The front end of request line `line`, as spans of `key` under
/// `serve.handle`, run outside the server; returns how long it took.
fn mirror(tr: &mut Tracer, key: Key, line: &str) -> Result<Duration, String> {
    let start = Instant::now();
    let program = json::parse(line)
        .ok()
        .and_then(|v| Request::from_json(&v).ok())
        .map(|q| q.program)
        .ok_or("a renamed request does not decode")?;
    front_end(tr, key, "serve.handle", &program)?;
    Ok(start.elapsed())
}

/// Per-layer metrics of workload `w` (name, value, unit) plus a detail
/// object. `stream_budget` bounds each pass over the request stream.
pub fn run(
    w: &Workload,
    seed: u64,
    stream_budget: Duration,
    out: &Path,
    gate: &mut Gate,
) -> Result<(Vec<Metric>, Json), String> {
    let mut tr = Tracer::new();
    let mut m: Vec<Metric> = Vec::new();

    // lang: native preparation, cold. First, before anything in this
    // process could have loaded a module. The native guard lives here:
    // an unavailable rustc fails the run instead of timing the VM.
    let cache = out.join("trace-native");
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache)
        .map_err(|e| format!("cannot create {}: {e}", cache.display()))?;
    std::env::set_var("SKIL_NATIVE_CACHE_DIR", &cache);
    let mut compiled: HashMap<&str, Arc<Compiled>> = HashMap::new();
    let (mut prepare_s, mut rust_bytes, mut instrs) = (Vec::new(), 0usize, (0usize, 0usize));
    for p in w.programs() {
        let c =
            Arc::new(compile_opt(source(p), OptLevel::default()).map_err(|e| format!("{p}: {e}"))?);
        let key = tr.probe(format!("prog:{p}"));
        tr.span(key, "lang.native_prepare", "probe", || c.native_ready())
            .map_err(|e| format!("native engine unavailable for {p}: {e}"))?;
        prepare_s.push(tr.spans[tr.spans.len() - 1].dur.as_secs_f64());
        rust_bytes += c.emit_rust().len();
        instrs.0 += c.opt_stats.instrs_before;
        instrs.1 += c.opt_stats.instrs_after;
        for _ in 0..3 {
            front_end(&mut tr, key, "probe", source(p))?;
        }
        compiled.insert(p, c);
    }
    let nprog = w.programs().len() as f64;

    // runtime: machine construction and an empty run per pool shape.
    let mut machines: HashMap<&str, Machine> = HashMap::new();
    let mut empty_us = Vec::new();
    for shape in w.meshes() {
        let key = tr.probe(format!("mesh:{shape}"));
        for _ in 0..3 {
            let fresh = tr.span(key, "runtime.machine_new", "probe", || machine(shape));
            drop(fresh);
        }
        let warm = machine(shape);
        let _ = warm.try_run(|_| ());
        empty_us.push(repeat(&mut tr, key, "runtime.empty_run", || warm.try_run(|_| ()).is_ok()));
        machines.insert(shape, warm);
    }

    // engine: one warm run per key, then timed runs; the data-plane
    // counters of a clean run are deterministic, so one report suffices.
    let mut key_us = vec![0.0; w.templates.len()];
    let (mut weight, mut msgs, mut bytes) = (0.0, 0.0, 0.0);
    let (mut inline, mut heap, mut direct, mut condvar) = (0.0, 0.0, 0.0, 0.0);
    for (j, t) in w.templates.iter().enumerate() {
        let wt = t.weight as f64;
        weight += wt;
        if !t.runs() {
            continue;
        }
        let c = &compiled[t.program];
        let mac = &machines[t.mesh];
        let engine = Engine::from_arg(t.engine).expect("engine");
        let faults = t.faults.map(|f| FaultPlan::parse(f).expect("fault plan"));
        let go = || c.try_run_faults(engine, mac, faults.as_ref());
        if let Ok(run) = go() {
            msgs += wt * run.report.total_msgs() as f64;
            bytes += wt * run.report.total_bytes() as f64;
            let dp = run.report.data_plane();
            inline += wt * dp.inline_msgs as f64;
            heap += wt * dp.heap_msgs as f64;
            direct += wt * dp.direct_deliveries as f64;
            condvar += wt * dp.condvar_deliveries as f64;
        }
        let key = tr.probe(format!("key:{}", t.name));
        key_us[j] = repeat(&mut tr, key, "engine.run", || go().is_ok());
    }
    let engine_run_us =
        w.templates.iter().zip(&key_us).map(|(t, us)| t.weight as f64 * us).sum::<f64>()
            / w.templates.iter().filter(|t| t.runs()).map(|t| t.weight as f64).sum::<f64>();

    // engine: VM over native, per program that runs cleanly.
    let mut speedups = Vec::new();
    for p in w.programs() {
        let Some(t) =
            w.templates.iter().find(|t| t.program == p && t.runs() && t.expect == Expect::Ok)
        else {
            continue;
        };
        let (c, mac) = (&compiled[p], &machines[t.mesh]);
        let key = tr.probe(format!("prog:{p}"));
        let vm = repeat(&mut tr, key, "engine.run_vm", || c.try_run_with(Engine::Vm, mac).is_ok());
        let native = repeat(&mut tr, key, "engine.run_native", || {
            c.try_run_with(Engine::Native, mac).is_ok()
        });
        speedups.push(vm / native);
    }
    drop(machines);

    // serve: the request stream, untraced and traced, alternately, each
    // pass on a fresh server warmed with one request per template.
    let mut stream = Stream::new(w, seed);
    let warm: Vec<String> = (0..w.templates.len()).map(|j| stream.warm_up(j).line).collect();
    let fresh_server = || {
        let s = Server::new();
        for l in &warm {
            s.handle_line(l);
        }
        s
    };
    let calibrate = fresh_server();
    let start = Instant::now();
    let mut lines = Vec::new();
    while start.elapsed() < stream_budget || lines.len() < 20 {
        let req = stream.request(lines.len() as u64);
        calibrate.handle_line(&req.line);
        lines.push(req);
    }
    drop(calibrate);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut stats = Json::Null;
    let mut overhead_us = Vec::new();
    let (mut engine_sum, mut handle_sum, mut unattributed) = (0.0, 0.0, Vec::new());
    for _ in 0..2 {
        // Untraced. The out-of-band front end of the traced pass runs
        // here too (into a scratch log, its time taken off), so that
        // both passes see the same warm caches.
        let server = fresh_server();
        let mut scratch = Tracer::new();
        let mut replies = Vec::with_capacity(lines.len());
        let mut mirrored = Duration::ZERO;
        let start = Instant::now();
        for r in &lines {
            if w.rename {
                mirrored += mirror(&mut scratch, Key::Req(0), &r.line)?;
            }
            replies.push(server.handle_line(&r.line));
        }
        plain_s += (start.elapsed() - mirrored).as_secs_f64();
        for (r, reply) in lines.iter().zip(&replies) {
            gate.check(w, r.template, reply);
        }

        // Traced: decode, handle, encode as spans of the request, and
        // the request's whole iteration as its own span
        // (`serve.request`). On a certain cache miss (`compile_churn`)
        // the front end runs inside handle; it is mirrored out of band,
        // before the request's wall time starts, to attribute it.
        let server = fresh_server();
        let mut replies = Vec::with_capacity(lines.len());
        let mut mirrored = Duration::ZERO;
        let start = Instant::now();
        for (i, r) in lines.iter().enumerate() {
            let key = Key::Req(i as u32);
            let front_first = tr.spans.len();
            if w.rename {
                mirrored += mirror(&mut tr, key, &r.line)?;
            }
            let first = tr.spans.len();
            let begin = Instant::now();
            let decoded = tr.span(key, "serve.decode", "serve.request", || {
                json::parse(&r.line).ok().and_then(|v| Request::from_json(&v).ok())
            });
            let reply = match decoded {
                Some(req) => {
                    let resp = tr.span(key, "serve.handle", "serve.request", || server.handle(req));
                    tr.span(key, "serve.encode", "serve.request", || resp.to_json_line())
                }
                None => {
                    tr.span(key, "serve.handle", "serve.request", || server.handle_line(&r.line))
                }
            };
            tr.close(key, "serve.request", "stream", begin);
            let us = |name: &str| {
                tr.spans[first..].iter().filter(|s| s.name == name).map(Span::us).sum::<f64>()
            };
            let front = tr.spans[front_first..first].iter().map(Span::us).sum::<f64>();
            let (wall, handle) = (us("serve.request"), us("serve.handle"));
            let engine = key_us[r.template];
            overhead_us.push(handle - engine - front);
            let attributed = us("serve.decode") + us("serve.encode") + engine + front;
            unattributed.push(100.0 * (wall - attributed) / wall);
            engine_sum += engine;
            handle_sum += handle;
            replies.push(reply);
        }
        traced_s += (start.elapsed() - mirrored).as_secs_f64();
        for (r, reply) in lines.iter().zip(&replies) {
            gate.check(w, r.template, reply);
        }
        stats = json::parse(&server.handle_line(r#"{"cmd":"stats"}"#))
            .map_err(|e| format!("bad stats: {e}"))?;
    }

    let stat = |k: &str| {
        stats.get("stats").and_then(|s| s.get(k)).and_then(Json::as_u64).unwrap_or(0) as f64
    };
    let (warm_m, cold_m) = (stat("machines_warm"), stat("machines_cold"));
    let (hits, misses) = (stat("compile_hits"), stat("compile_misses"));
    if w.rename && hits != 0.0 {
        gate.fail(format!("compile_churn must never hit the program cache; compile_hits = {hits}"));
    }
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    m.push(("serve.decode_us", median(&tr.us("serve.decode")), "us"));
    m.push(("serve.handle_us", median(&tr.us("serve.handle")), "us"));
    m.push(("serve.encode_us", median(&tr.us("serve.encode")), "us"));
    m.push(("serve.overhead_us", median(&overhead_us), "us"));
    m.push(("serve.cache_hit_ratio", ratio(hits, misses), "ratio"));
    m.push(("serve.machine_warm_ratio", ratio(warm_m, cold_m), "ratio"));
    m.push(("serve.setup_reuse_hits", stat("setup_reuse_hits"), "count"));
    for (metric, span) in [
        ("lang.parse_us", "lang.parse"),
        ("lang.check_us", "lang.check"),
        ("lang.instantiate_us", "lang.instantiate"),
        ("lang.bytecode_us", "lang.bytecode"),
        ("lang.opt_us", "lang.opt"),
    ] {
        m.push((metric, median(&tr.us(span)), "us"));
    }
    m.push(("lang.instrs_raw", instrs.0 as f64 / nprog, "count"));
    m.push(("lang.instrs_opt", instrs.1 as f64 / nprog, "count"));
    m.push(("lang.native_prepare_s", median(&prepare_s), "s"));
    m.push(("lang.native_rust_bytes", rust_bytes as f64, "bytes"));
    m.push(("engine.run_us", engine_run_us, "us"));
    m.push(("engine.share", engine_sum / handle_sum, "ratio"));
    m.push(("engine.native_speedup", geomean(&speedups), "ratio"));
    m.push(("runtime.machine_new_us", median(&tr.us("runtime.machine_new")), "us"));
    m.push(("runtime.empty_run_us", empty_us.iter().sum::<f64>() / empty_us.len() as f64, "us"));
    m.push(("runtime.msgs_per_req", msgs / weight, "count"));
    m.push(("runtime.bytes_per_req", bytes / weight, "bytes"));
    m.push(("runtime.inline_ratio", ratio(inline, heap), "ratio"));
    m.push(("runtime.direct_ratio", ratio(direct, condvar), "ratio"));
    m.push(("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%"));
    m.push(("trace.unattributed_pct", median(&unattributed), "%"));

    let path = out.join(format!("trace-{}-seed{seed}.jsonl", w.name));
    tr.write(&path)?;
    let per_key = w
        .templates
        .iter()
        .zip(&key_us)
        .filter(|(t, _)| t.runs())
        .map(|(t, us)| (t.name, Json::Num(*us)))
        .collect::<Vec<_>>();
    let detail = json::obj(vec![
        ("stream_requests", Json::Num(lines.len() as f64)),
        ("spans", Json::Num(tr.spans.len() as f64)),
        ("span_file", Json::Str(path.display().to_string())),
        ("engine_run_us_per_key", json::obj(per_key)),
    ]);
    Ok((m, detail))
}
