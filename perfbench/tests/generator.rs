//! Self-tests of the benchmark's generator, renamer, checker and
//! percentile rule.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::check::{check, Reference, GOLDENS};
use perfbench::rename::{declared_names, rename};
use perfbench::stats::{percentile, quiet_quarter, rate, Sample};
use perfbench::workload::{source, workload, Arrivals, Expect, Stream, WORKLOADS};
use skil_serve::json::{self, Json};
use skil_serve::Server;

#[test]
fn same_seed_same_bytes_and_arrivals() {
    for name in WORKLOADS {
        let w = workload(name).unwrap();
        let (mut a, mut b) = (Stream::new(&w, 42), Stream::new(&w, 42));
        for i in 0..300 {
            let (x, y) = (a.request(i), b.request(i));
            assert_eq!((x.template, &x.line), (y.template, &y.line), "{name} request {i}");
        }
        for j in 0..w.templates.len() {
            assert_eq!(a.warm_up(j).line, b.warm_up(j).line);
        }
        let mut other = Stream::new(&w, 43);
        assert!(
            (0..300).any(|i| other.request(i).line != a.request(i).line),
            "{name}: seed must matter"
        );
    }
    let x: Vec<f64> = Arrivals::new(7, 2000.0).take(500).collect();
    assert_eq!(x, Arrivals::new(7, 2000.0).take(500).collect::<Vec<_>>());
    assert_ne!(x, Arrivals::new(8, 2000.0).take(500).collect::<Vec<_>>());
    assert!(x.windows(2).all(|p| p[0] < p[1]));
    let mean_gap = x[499] / 500.0;
    assert!((mean_gap - 1.0 / 2000.0).abs() < 0.2 / 2000.0, "mean gap {mean_gap}");
}

#[test]
fn every_seed_gives_the_same_mix_proportions() {
    for name in WORKLOADS {
        let w = workload(name).unwrap();
        let blocks = 7;
        for seed in [1, 2, 3, 99, u64::MAX] {
            let mut s = Stream::new(&w, seed);
            let mut counts = vec![0; w.templates.len()];
            for i in 0..(blocks * w.block()) as u64 {
                counts[s.template_of(i)] += 1;
            }
            let want: Vec<usize> = w.templates.iter().map(|t| blocks * t.weight).collect();
            assert_eq!(counts, want, "{name} seed {seed}");
        }
    }
}

#[test]
fn churn_renamings_never_hit_the_cache_and_keep_outputs_and_cycles() {
    let w = workload("compile_churn").unwrap();
    let reference = Reference::committed();
    for t in &w.templates {
        assert!(!declared_names(source(t.program)).is_empty(), "{}: nothing to rename", t.program);
    }
    let server = Server::new();
    let mut stream = Stream::new(&w, 5);
    let mut seen = std::collections::HashSet::new();
    for i in 0..3 * w.block() as u64 {
        let req = stream.request(i);
        let program = json::parse(&req.line)
            .unwrap()
            .get("program")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_ne!(
            program,
            source(w.templates[req.template].program),
            "request {i} was not renamed"
        );
        assert!(seen.insert(program), "request {i} repeats earlier source text");
        let reply = server.handle_line(&req.line);
        check(&reply, &w.templates[req.template], &reference, true).unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.compile_hits, 0);
    assert_eq!(stats.cache_hit_rate(), 0.0);
}

#[test]
fn renamer_leaves_builtins_keywords_and_main_alone() {
    let out = rename(source("shortest_paths"), "t0");
    for kept in [
        "array_create",
        "array_gen_mult",
        "DISTR_TORUS2D",
        "log2i",
        "procId",
        "void main()",
        "int_max",
    ] {
        assert!(out.contains(kept), "{kept} was renamed");
    }
    assert!(out.contains("int init_f_t0(Index ix_t0)") && out.contains("shpaths_t0();"));
}

#[test]
fn percentiles_need_ten_samples_beyond_and_report_the_count() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&samples, 0.99).unwrap();
    assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    assert!(percentile(&samples[..999], 0.99).is_none());
    assert!(percentile(&samples[..19], 0.5).is_none());
    let p50 = percentile(&samples[..20], 0.5).unwrap();
    assert_eq!((p50.value, p50.samples, p50.beyond), (10.0, 20, 10));
}

#[test]
fn reference_table_holds_the_goldens_and_every_clean_key() {
    let reference = Reference::committed();
    for (key, cycles) in GOLDENS {
        assert_eq!(reference.0[key].sim_cycles, cycles, "{key}");
    }
    for name in WORKLOADS {
        for t in workload(name).unwrap().templates {
            if t.expect == Expect::Ok {
                assert!(reference.0.contains_key(&t.reference_key()), "{}", t.reference_key());
            }
        }
    }
}

#[test]
fn checker_rejects_wrong_results_cycles_and_errors() {
    let w = workload("serve_small").unwrap();
    let reference = Reference::committed();
    let hello = w.templates.iter().find(|t| t.name == "hello_vm").unwrap();
    let good = r#"{"ok":true,"id":"r1","results":[["7"],[],[],[]],"sim_cycles":310,"cache":"hit"}"#;
    check(good, hello, &reference, false).unwrap();
    assert!(check(good, hello, &reference, true).is_err(), "a hit where a miss is required");
    assert!(check(&good.replace("\"7\"", "\"8\""), hello, &reference, false).is_err());
    assert!(check(&good.replace("310", "311"), hello, &reference, false).is_err());
    let div = w.templates.iter().find(|t| t.name == "div_zero_vm").unwrap();
    let err =
        r#"{"ok":false,"id":"r2","error":{"kind":"runtime","message":"proc 0: division by zero"}}"#;
    check(err, div, &reference, false).unwrap();
    assert!(check(&err.replace("runtime", "internal"), div, &reference, false).is_err());
    assert!(check(&err.replace("division", "modulo"), div, &reference, false).is_err());
    assert!(check(good, div, &reference, false).is_err());
}

#[test]
fn quiet_quarter_keeps_the_fastest_quarter_of_whole_block_windows() {
    // 80 completions, one every 0.1 s; all seconds but the third and
    // the seventh are three times slower.
    let samples: Vec<Sample> = (0..80)
        .map(|i| Sample {
            template: 0,
            done_s: (i + 1) as f64 / 10.0,
            latency_ms: if i / 10 == 2 || i / 10 == 6 { 1.0 } else { 3.0 },
            late_ms: 0.0,
        })
        .collect();
    let q = quiet_quarter(&samples, 1.0, 5);
    assert_eq!(q.windows, (2, 8));
    assert_eq!(q.samples.len(), 20);
    assert!(q.latency_ms().iter().all(|&ms| ms == 1.0));
    // Throughput counts every sample: 80 completions in 8 s.
    assert!((rate(&samples) - 10.0).abs() < 1e-9, "{}", rate(&samples));
    // Windows hold whole blocks: 0.5 s would be 5 completions, a block 4.
    assert_eq!(quiet_quarter(&samples, 0.5, 4).windows.1, 20);
}
