//! The workloads and their seeded request streams.
//!
//! A workload is a weighted set of request [`Template`]s plus the way
//! the load generator offers them (open or closed loop). The stream is
//! a pure function of `(workload, seed, index)`: request `i` lies in
//! block `i / B`, where `B` is the sum of the weights, and each block is
//! a seeded shuffle of exactly `weight` copies of every template. So
//! the same seed gives the same bytes, and every seed gives the same
//! mix proportions over each block.

use skil_serve::json::{obj, Json};

use crate::rename::rename;
use crate::rng::Rng;

/// A tiny program with no messages: the high-volume filler.
pub const HELLO: &str = "void main() { if (procId == 0) { print(procId + 7); } }";

/// A communicating skeleton program (distributed fold, result 120).
pub const FOLD: &str = "int initf(Index ix) { return ix[0] + ix[1]; } \
                        int conv(int v, Index ix) { return v; } \
                        void main() { \
                          array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); \
                          int total = array_fold(conv, (+), a); \
                          if (procId == 0) { print(total); } \
                        }";

/// `HELLO` with its value bound to a local first, so that
/// `compile_churn` has a user identifier to rename.
pub const HELLO_LET: &str = "void main() { int v = procId + 7; if (procId == 0) { print(v); } }";

/// Divides by a value the optimizer cannot fold away: every processor
/// hits a genuine runtime error.
pub const DIV_ZERO: &str = "void main() { int z = procId - procId; print(100 / z); }";

/// Every program the workloads send, by name.
pub const PROGRAMS: &[(&str, &str)] = &[
    ("hello", HELLO),
    ("hello_let", HELLO_LET),
    ("fold", FOLD),
    ("div_zero", DIV_ZERO),
    ("shortest_paths", include_str!("../../examples/skil/shortest_paths.skil")),
    ("gauss", include_str!("../../examples/skil/gauss.skil")),
    ("mandelbrot", include_str!("../../examples/skil/mandelbrot.skil")),
    ("prefix_stats", include_str!("../../examples/skil/prefix_stats.skil")),
    ("quicksort", include_str!("../../examples/skil/quicksort.skil")),
    ("farm_sweep", include_str!("../../examples/skil/farm_sweep.skil")),
];

/// The source of program `name`.
pub fn source(name: &str) -> &'static str {
    PROGRAMS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("unknown program {name}"))
}

/// What the response to a template must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// A clean run whose results and `sim_cycles` equal the reference
    /// table's entry for `(program, mesh)`.
    Ok,
    /// A structured error of this `kind` whose message contains the
    /// substring.
    Err(&'static str, &'static str),
}

/// How a template's request line is malformed, if at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Line {
    /// A well-formed request.
    Normal,
    /// A well-formed request with these extra raw JSON members.
    Extra(&'static str),
    /// A truncated line that is not JSON at all; its error response
    /// carries no id.
    Broken,
}

/// One kind of request in a workload's mix.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    /// Name in reports.
    pub name: &'static str,
    /// Key into [`PROGRAMS`].
    pub program: &'static str,
    /// `engine` request field.
    pub engine: &'static str,
    /// `mesh` request field.
    pub mesh: &'static str,
    /// `faults` request field.
    pub faults: Option<&'static str>,
    /// Malformation.
    pub line: Line,
    /// Expected response.
    pub expect: Expect,
    /// Copies per block of the stream.
    pub weight: usize,
}

impl Template {
    /// Whether the request reaches an engine (a run that completes or
    /// fails at run time), as opposed to being rejected up front.
    pub fn runs(&self) -> bool {
        self.line == Line::Normal && matches!(self.expect, Expect::Ok | Expect::Err("runtime", _))
    }

    /// The reference-table key of a clean run.
    pub fn reference_key(&self) -> String {
        format!("{}@{}", self.program, self.mesh)
    }
}

/// How the load generator offers a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Seeded Poisson arrivals at this rate (requests/s) for the first
    /// half of the run, then a closed loop with this many requests
    /// outstanding for the second half.
    OpenThenClosed(f64, usize),
    /// A closed loop with this many requests outstanding.
    Closed(usize),
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The mix.
    pub templates: Vec<Template>,
    /// How it is offered.
    pub load: Load,
    /// Whether every request's program is renamed to fresh source text.
    pub rename: bool,
}

/// Names accepted by [`workload`].
pub const WORKLOADS: [&str; 3] = ["serve_small", "paper_apps", "compile_churn"];

/// `serve_small`'s open-loop rate: about a fifth of the closed-loop
/// capacity (`throughput_rps`, about 10,000 req/s on a 2-core host).
/// At 4,500 req/s, near half the capacity, the spread of
/// `latency_p50_ms` between runs doubled.
pub const SERVE_SMALL_RATE: f64 = 2000.0;

const fn t(
    name: &'static str,
    program: &'static str,
    engine: &'static str,
    mesh: &'static str,
    weight: usize,
) -> Template {
    Template {
        name,
        program,
        engine,
        mesh,
        faults: None,
        line: Line::Normal,
        expect: Expect::Ok,
        weight,
    }
}

const fn fails(template: Template, kind: &'static str, contains: &'static str) -> Template {
    Template { expect: Expect::Err(kind, contains), ..template }
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let div = |engine, weight| {
        fails(t("div_zero", "div_zero", engine, "2x2", weight), "runtime", "division by zero")
    };
    let w = match name {
        "serve_small" => Workload {
            name: "serve_small",
            templates: vec![
                // bench_serving.rs `mix()` divided by 10 (div_zero_vm
                // and div_zero_ast rounded from 11.8 and 6.8). Its
                // shortest_paths and gauss requests (2.2%) are left to
                // paper_apps: they are not short.
                t("hello_vm", "hello", "vm", "2x2", 80),
                t("fold_vm", "fold", "vm", "2x2", 30),
                t("fold_ast", "fold", "ast", "2x2", 15),
                t("fold_native", "fold", "native", "2x2", 15),
                t("fold_vm_1x3", "fold", "vm", "1x3", 12),
                t("fold_native_4x4", "fold", "native", "4x4", 10),
                Template { name: "div_zero_vm", ..div("vm", 12) },
                Template { name: "div_zero_ast", ..div("ast", 7) },
                Template { name: "div_zero_native", ..div("native", 5) },
                Template {
                    faults: Some("seed=7,crash=3@50"),
                    ..fails(t("crash_fault_vm", "fold", "vm", "2x2", 10), "runtime", "crash")
                },
                // The malformed lines the mix adds to bench_serving's.
                fails(t("bad_mesh", "hello", "vm", "0x4", 1), "bad_request", "bad mesh"),
                fails(t("bad_engine", "hello", "jit", "2x2", 1), "bad_request", "bad \"engine\""),
                Template {
                    line: Line::Extra("\"bogus\":1"),
                    ..fails(t("unknown_field", "hello", "vm", "2x2", 1), "bad_request", "unknown")
                },
                Template {
                    line: Line::Broken,
                    ..fails(t("broken_json", "hello", "vm", "2x2", 1), "bad_request", "bad JSON")
                },
            ],
            load: Load::OpenThenClosed(SERVE_SMALL_RATE, 2),
            rename: false,
        },
        "paper_apps" => Workload {
            name: "paper_apps",
            templates: vec![
                t("shortest_paths_vm_2x2", "shortest_paths", "vm", "2x2", 2),
                t("shortest_paths_native_2x2", "shortest_paths", "native", "2x2", 2),
                t("shortest_paths_vm_4x4", "shortest_paths", "vm", "4x4", 2),
                t("shortest_paths_native_4x4", "shortest_paths", "native", "4x4", 2),
                t("shortest_paths_vm_8x8", "shortest_paths", "vm", "8x8", 1),
                t("shortest_paths_native_8x8", "shortest_paths", "native", "8x8", 1),
                t("gauss_vm_2x2", "gauss", "vm", "2x2", 2),
                t("gauss_native_2x2", "gauss", "native", "2x2", 2),
                t("gauss_vm_4x4", "gauss", "vm", "4x4", 2),
                t("gauss_native_4x4", "gauss", "native", "4x4", 2),
                t("mandelbrot_vm_4x4", "mandelbrot", "vm", "4x4", 1),
                t("mandelbrot_native_4x4", "mandelbrot", "native", "4x4", 1),
            ],
            load: Load::Closed(1),
            rename: false,
        },
        "compile_churn" => Workload {
            name: "compile_churn",
            templates: [
                "prefix_stats",
                "quicksort",
                "shortest_paths",
                "farm_sweep",
                "fold",
                "hello_let",
            ]
            .into_iter()
            .map(|p| t(p, p, "vm", "2x2", 1))
            .collect(),
            load: Load::Closed(2),
            rename: true,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Requests per block: the sum of the weights.
    pub fn block(&self) -> usize {
        self.templates.iter().map(|t| t.weight).sum()
    }

    /// Distinct programs this workload runs natively.
    pub fn native_programs(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self
            .templates
            .iter()
            .filter(|t| t.runs() && t.engine == "native")
            .map(|t| t.program)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Distinct programs this workload runs on any engine.
    pub fn programs(&self) -> Vec<&'static str> {
        let mut names: Vec<_> =
            self.templates.iter().filter(|t| t.runs()).map(|t| t.program).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Distinct mesh shapes this workload runs on.
    pub fn meshes(&self) -> Vec<&'static str> {
        let mut shapes: Vec<_> =
            self.templates.iter().filter(|t| t.runs()).map(|t| t.mesh).collect();
        shapes.sort_unstable();
        shapes.dedup();
        shapes
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Index into the workload's templates.
    pub template: usize,
    /// The request line (no newline).
    pub line: String,
}

/// The seeded request stream of a workload.
pub struct Stream<'w> {
    w: &'w Workload,
    seed: u64,
    expanded: Vec<usize>,
    block: Option<(u64, Vec<usize>)>,
}

impl<'w> Stream<'w> {
    /// The stream of `w` under `seed`.
    pub fn new(w: &'w Workload, seed: u64) -> Stream<'w> {
        let expanded = w
            .templates
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight))
            .collect();
        Stream { w, seed, expanded, block: None }
    }

    /// The template of request `i`.
    pub fn template_of(&mut self, i: u64) -> usize {
        let b = i / self.expanded.len() as u64;
        if self.block.as_ref().map(|(at, _)| *at) != Some(b) {
            let mut perm = self.expanded.clone();
            let mut rng = Rng::derive(self.seed, b);
            for k in (1..perm.len()).rev() {
                perm.swap(k, rng.below(k + 1));
            }
            self.block = Some((b, perm));
        }
        let (_, perm) = self.block.as_ref().unwrap();
        perm[(i % self.expanded.len() as u64) as usize]
    }

    /// Request `i` of the stream, with id `r<i>`.
    pub fn request(&mut self, i: u64) -> Req {
        let template = self.template_of(i);
        let tag = format!("q{i}x{:06x}", Rng::derive(self.seed ^ 0x5eed, i).next_u64() & 0xff_ffff);
        Req { template, line: self.line(template, &format!("r{i}"), &tag) }
    }

    /// The warm-up request for template `j`, with id `w<j>`.
    pub fn warm_up(&self, j: usize) -> Req {
        Req {
            template: j,
            line: self.line(j, &format!("w{j}"), &format!("w{j}x{:06x}", self.seed & 0xff_ffff)),
        }
    }

    fn line(&self, j: usize, id: &str, tag: &str) -> String {
        let t = &self.w.templates[j];
        if t.line == Line::Broken {
            return format!("{{\"id\":\"{id}\",\"program\":");
        }
        let base = source(t.program);
        let program = if self.w.rename { rename(base, tag) } else { base.to_string() };
        let mut pairs = vec![
            ("id", Json::Str(id.to_string())),
            ("program", Json::Str(program)),
            ("mesh", Json::Str(t.mesh.to_string())),
            ("engine", Json::Str(t.engine.to_string())),
        ];
        if let Some(f) = t.faults {
            pairs.push(("faults", Json::Str(f.to_string())));
        }
        let mut line = obj(pairs).to_string();
        if let Line::Extra(members) = t.line {
            line.pop();
            line.push(',');
            line.push_str(members);
            line.push('}');
        }
        line
    }
}

/// Seeded Poisson arrival offsets (seconds from the start of the open
/// loop) at `rate` requests/s.
pub struct Arrivals {
    rng: Rng,
    rate: f64,
    at: f64,
}

impl Arrivals {
    /// The arrival process of `seed`.
    pub fn new(seed: u64, rate: f64) -> Arrivals {
        Arrivals { rng: Rng::derive(seed, 0xa771_7a15), rate, at: 0.0 }
    }
}

impl Iterator for Arrivals {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.at += -(1.0 - self.rng.unit()).ln() / self.rate;
        Some(self.at)
    }
}
