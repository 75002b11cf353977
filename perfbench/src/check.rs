//! The correctness gate: every response is checked against the
//! reference table (recorded once from the AST reference engine, see
//! `perfbench record-reference`) and the two repo-wide goldens.

use std::collections::BTreeMap;

use skil_serve::json::{self, obj, Json};

use crate::workload::{Expect, Template};

/// Golden `sim_cycles` on the default 2x2 mesh, pinned repo-wide.
pub const GOLDENS: [(&str, u64); 2] =
    [("shortest_paths@2x2", 2_397_316), ("gauss@2x2", 11_906_936)];

/// One reference entry: per-processor output lines and virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-processor `print` lines.
    pub results: Vec<Vec<String>>,
    /// Virtual run time.
    pub sim_cycles: u64,
}

/// `program@mesh` → clean-run outcome.
#[derive(Debug, Clone, Default)]
pub struct Reference(pub BTreeMap<String, Outcome>);

fn results_of(v: &Json) -> Option<Vec<Vec<String>>> {
    let Json::Arr(procs) = v else { return None };
    procs
        .iter()
        .map(|p| match p {
            Json::Arr(lines) => lines.iter().map(|l| l.as_str().map(str::to_string)).collect(),
            _ => None,
        })
        .collect()
}

impl Reference {
    /// Parse the table's JSON form.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let Json::Obj(map) = json::parse(text)? else {
            return Err("reference table must be a JSON object".into());
        };
        let mut table = BTreeMap::new();
        for (key, v) in map {
            let results =
                v.get("results").and_then(results_of).ok_or(format!("{key}: bad results"))?;
            let sim_cycles = v
                .get("sim_cycles")
                .and_then(Json::as_u64)
                .ok_or(format!("{key}: bad sim_cycles"))?;
            table.insert(key, Outcome { results, sim_cycles });
        }
        Ok(Reference(table))
    }

    /// The committed table.
    pub fn committed() -> Reference {
        Reference::parse(include_str!("../reference.json"))
            .expect("perfbench/reference.json is valid")
    }

    /// The table's JSON form, one entry per line.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(key, o)| {
                let results = Json::Arr(
                    o.results
                        .iter()
                        .map(|l| Json::Arr(l.iter().cloned().map(Json::Str).collect()))
                        .collect(),
                );
                let entry =
                    obj(vec![("sim_cycles", Json::Num(o.sim_cycles as f64)), ("results", results)]);
                format!("  {}: {}", Json::Str(key.clone()), entry)
            })
            .collect();
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }
}

/// Check one response line against its template's expectation. With
/// `want_miss`, a clean run must also report a compiled-program cache
/// miss.
pub fn check(
    response: &str,
    t: &Template,
    reference: &Reference,
    want_miss: bool,
) -> Result<(), String> {
    let v = json::parse(response).map_err(|e| format!("response is not JSON ({e}): {response}"))?;
    let ok = matches!(v.get("ok"), Some(Json::Bool(true)));
    match t.expect {
        Expect::Ok => {
            if !ok {
                return Err(format!("{}: expected a clean run, got {response}", t.name));
            }
            let key = t.reference_key();
            let want = reference.0.get(&key).ok_or(format!("no reference entry for {key}"))?;
            let results = v.get("results").and_then(results_of).ok_or("missing results")?;
            let cycles = v.get("sim_cycles").and_then(Json::as_u64).ok_or("missing sim_cycles")?;
            if results != want.results {
                return Err(format!(
                    "{}: results {results:?} != reference {:?}",
                    t.name, want.results
                ));
            }
            if cycles != want.sim_cycles {
                return Err(format!(
                    "{}: sim_cycles {cycles} != reference {}",
                    t.name, want.sim_cycles
                ));
            }
            if let Some((_, golden)) = GOLDENS.iter().find(|(k, _)| *k == key) {
                if cycles != *golden {
                    return Err(format!("{}: sim_cycles {cycles} != golden {golden}", t.name));
                }
            }
            if want_miss && v.get("cache").and_then(Json::as_str) != Some("miss") {
                return Err(format!("{}: expected a compiled-program cache miss", t.name));
            }
            Ok(())
        }
        Expect::Err(kind, contains) => {
            let err = v
                .get("error")
                .filter(|_| !ok)
                .ok_or(format!("{}: expected an error, got {response}", t.name))?;
            let got_kind = err.get("kind").and_then(Json::as_str).unwrap_or("");
            let message = err.get("message").and_then(Json::as_str).unwrap_or("");
            if got_kind != kind || !message.contains(contains) {
                return Err(format!(
                    "{}: expected {kind} error containing {contains:?}, got {response}",
                    t.name
                ));
            }
            Ok(())
        }
    }
}

/// The id a response echoes, if any.
pub fn response_id(response: &str) -> Option<String> {
    json::parse(response).ok()?.get("id").and_then(Json::as_str).map(str::to_string)
}
