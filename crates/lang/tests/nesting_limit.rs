//! The parser's nesting limit: every nesting construct is rejected past
//! [`MAX_NESTING`] with a `parse` diagnostic, and the deepest accepted
//! program of each kind compiles and runs on a 2 MiB thread stack, the
//! size of a `skild` worker's.

use skil_lang::parser::MAX_NESTING;
use skil_lang::{compile, Engine, Phase};
use skil_runtime::{Machine, MachineConfig};

/// Well-typed programs nesting one construct `n` times; `main`'s body
/// block and the statement around the nest open the first levels.
fn nest(kind: &str, n: usize) -> String {
    let r = |s: &str, k: usize| s.repeat(k);
    match kind {
        "parens" => format!("void main() {{ int x = {}1{}; print(x); }}", r("(", n), r(")", n)),
        "unary" => format!("void main() {{ int x = {}1; print(x); }}", r("-", n)),
        "not" => format!("void main() {{ int x = {}1; print(x); }}", r("!", n)),
        "chain" => format!("void main() {{ int x = 1{}; print(x); }}", r(" + 1", n)),
        // a call argument opens two levels: the call and the argument
        "calls" => format!(
            "int f(int a) {{ return a; }} void main() {{ int x = {}1{}; print(x); }}",
            r("f(", n / 2),
            r(")", n / 2)
        ),
        "ifs" => format!("void main() {{ int x = 0; {} x = 1; print(x); }}", r("if (1) ", n)),
        "blocks" => format!(
            "void main() {{ int x = 0; {} x = 1; {} print(x); }}",
            r("while (x) {", n),
            r("}", n)
        ),
        "types" => format!("void main() {{ {}int{} x; }}", r("list<", n), r(">", n)),
        other => unreachable!("{other}"),
    }
}

/// The stack the tests run on: a `skild` worker's 2 MiB in optimized
/// builds. Unoptimized frames are several times larger (the whole
/// pipeline at the limit needs under 512 KiB optimized, but more than
/// 2 MiB unoptimized), so debug builds get 16 MiB.
const STACK: usize = if cfg!(debug_assertions) { 16 << 20 } else { 2 << 20 };

/// Run `f` on a thread with [`STACK`] bytes of stack.
fn on_worker_stack(f: impl FnOnce() + Send + 'static) {
    let worker = std::thread::Builder::new().stack_size(STACK).spawn(f).expect("spawn");
    worker.join().expect("no stack overflow");
}

const KINDS: [&str; 8] = ["parens", "unary", "not", "chain", "calls", "ifs", "blocks", "types"];

#[test]
fn nesting_past_the_limit_is_a_parse_error() {
    on_worker_stack(past_the_limit);
}

fn past_the_limit() {
    for depth in [MAX_NESTING + 1, 10 * MAX_NESTING, 100_000] {
        let braces =
            format!("void main() {{ Index x = {}1{}; }}", "{".repeat(depth), "}".repeat(depth));
        let sources = KINDS.iter().map(|k| (*k, nest(k, depth))).chain([("braces", braces)]);
        for (kind, src) in sources {
            let err = compile(&src).err().unwrap_or_else(|| panic!("{kind} at {depth} compiled"));
            assert_eq!(err.phase, Phase::Parse, "{kind} at {depth}: {err}");
            assert!(err.msg.contains("nesting too deep"), "{kind} at {depth}: {err}");
        }
    }
}

#[test]
fn the_deepest_accepted_programs_compile_and_run_on_a_2_mib_stack() {
    on_worker_stack(|| {
        let machine = Machine::new(MachineConfig::procs(1).expect("one proc"));
        for kind in KINDS {
            let deepest = (0..=MAX_NESTING)
                .rev()
                .find(|&n| compile(&nest(kind, n)).is_ok())
                .unwrap_or_else(|| panic!("{kind}: no depth compiles"));
            assert!(deepest + 4 >= MAX_NESTING, "{kind}: only {deepest} levels accepted");
            let program = compile(&nest(kind, deepest)).expect("compiles");
            for engine in [Engine::Vm, Engine::Ast] {
                program.try_run_with(engine, &machine).unwrap_or_else(|e| panic!("{kind}: {e}"));
            }
        }
    });
}
