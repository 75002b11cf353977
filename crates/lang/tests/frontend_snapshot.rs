//! Front-end snapshot oracle: every output the front end produces for
//! the example programs, and the exact diagnostic for a corpus of bad
//! programs, pinned to `frontend_snapshot.txt`.
//!
//! Large outputs (bytecode listings, emitted C and Rust, the first-order
//! program) are pinned by their FNV-1a 64 hash; `OptStats` and every
//! diagnostic are pinned as text. On a mismatch the actual snapshot is
//! written next to the test binaries and its path printed, so a
//! deliberate output change is reviewed as a plain diff.

use std::fmt::Write as _;
use std::path::Path;

use skil_lang::{compile_opt, OptLevel};

const HELLO: &str = "void main() { if (procId == 0) { print(procId + 7); } }";

const FOLD: &str = "int initf(Index ix) { return ix[0] + ix[1]; } \
                    int conv(int v, Index ix) { return v; } \
                    void main() { \
                      array<int> a = array_create(1, {16,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT); \
                      int total = array_fold(conv, (+), a); \
                      if (procId == 0) { print(total); } \
                    }";

/// Ill-formed and ill-typed programs, one per line of the snapshot.
const BAD: &[&str] = &[
    // lexer
    "a $ b",
    "/* unterminated",
    "a ~ b",
    "99999999999999999999",
    "void main() { é }",
    // parser
    "void main() { int x = 1 }",
    "42;",
    "pardata p <int>;",
    "void main() { x = (1 + ; }",
    "struct s { if x; };",
    // type checker
    "int f() { return 1; }",
    "void main() { int x = 1.5; }",
    "void main() { float y = 1.0 + 1; }",
    "void main() { float y = 1.5 % 2.0; }",
    "void main() { x = 1; }",
    "void main() { int x = nope; }",
    "$a bad($a x) { return x + 1; }\nvoid main() { }",
    "int above(float t, float e, Index ix) { return 1; }\n\
     int zero(Index ix) { return 0; }\n\
     void main() {\n\
       array<int> a = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
       array<int> b = array_create(1, {8,1}, {0,0}, {0-1,0-1}, zero, DISTR_DEFAULT);\n\
       float t = 3.0;\n\
       array_map(above(t), a, b);\n\
     }",
    "struct elemrec { float val; };\n\
     void main() { elemrec e = elemrec{1.5}; int v = e.val; }",
    "struct elemrec { float val; };\n\
     void main() { elemrec e = elemrec{1.5}; float v = e.bogus; }",
    "struct holder { array<int> a; int n; };\nvoid main() { }",
    "int zero(Index ix) { return 0; }\nvoid main() { array< array<int> > a; }",
    "int array_map(int x) { return x; }\nvoid main() { }",
    "void main() { int x = nil(); }",
    "$a twice($a x, $b y) { return x; }\nvoid main() { float z = twice(1, 2.0); }",
    "int f(int x) { return x; }\nvoid main() { int y = f(1, 2); }",
    "void main() { int x = 3; int y = x(1); }",
    "void main() { Index i = {1, 2, 3}; }",
    "void main() { int x = 1; float b = x.lowerBd; }",
    // instantiation
    "int add(int a, int b) { return a + b; }\nvoid main() { int x = add(1); }",
    "$a id($a x) { return x; }\nvoid main() { print(len(id(nil()))); }",
    "int apply(int f(int), int x) { print(f); return x; }\n\
     int inc(int x) { return x + 1; }\n\
     void main() { print(apply(inc, 1)); }",
    "void main() { print((+)); }",
    "void main() { print((+)(1)); }",
    "$b apply($b f($a), $a x) { return f(x); }\n\
     $a pick($a x, $a y) { return y; }\n\
     void main() { print(apply(pick(1), 2.5)); }",
    "pardata tree <$t>;\nvoid main() { tree<int> t; }",
];

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn programs() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/skil");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/skil")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "skil"))
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).expect("read example"))
        })
        .collect();
    out.push(("HELLO".into(), HELLO.into()));
    out.push(("FOLD".into(), FOLD.into()));
    out
}

fn snapshot() -> String {
    let mut out = String::new();
    for (name, src) in programs() {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let c = compile_opt(&src, level).unwrap_or_else(|e| panic!("{name}: {e}"));
            let tag = format!("{name} {level:?}");
            let fo = format!("{:?}\n{:?}", c.fo.structs, c.fo.funcs);
            for (what, text) in [
                ("fo", fo),
                ("raw", c.disassemble_raw()),
                ("bytecode", c.disassemble()),
                ("c", c.emit_c()),
                ("rust", c.emit_rust()),
            ] {
                let _ = writeln!(out, "{tag} {what} {:016x}", fnv1a64(&text));
            }
            let _ = writeln!(out, "{tag} stats {:?}", c.opt_stats);
        }
    }
    for (i, src) in BAD.iter().enumerate() {
        let diag = match compile_opt(src, OptLevel::O2) {
            Ok(_) => "compiles".to_string(),
            Err(d) => format!("{:?} {} {}", d.phase, d.pos, d.msg),
        };
        let _ = writeln!(out, "diag {i:02} {diag}");
    }
    out
}

#[test]
fn front_end_output_matches_snapshot() {
    let expected_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/frontend_snapshot.txt");
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_default();
    let actual = snapshot();
    if actual != expected {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend_snapshot.actual");
        std::fs::write(&dump, &actual).expect("write actual snapshot");
        let first = actual
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("first difference:\n  expected: {e}\n  actual:   {a}"))
            .unwrap_or_else(|| "the snapshots differ in length".into());
        panic!(
            "front-end output differs from {}\n{first}\nactual snapshot written to {}",
            expected_path.display(),
            dump.display()
        );
    }
}
