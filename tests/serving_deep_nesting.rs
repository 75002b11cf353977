//! Hostile input through the serving layer: programs nested far deeper
//! than the parser's limit must come back as one structured `compile`
//! error each, never take the daemon down, and leave the server able to
//! serve the next request.

use skil::lang::parser::MAX_NESTING;
use skil_serve::json::{self, Json};
use skil_serve::Server;

fn request(id: &str, program: &str) -> String {
    let mut line = String::from("{\"id\":\"");
    line.push_str(id);
    line.push_str("\",\"program\":");
    line.push_str(&Json::Str(program.to_string()).to_string());
    line.push('}');
    line
}

/// Send one request that must succeed; the raw response line.
fn ok(server: &Server, id: &str, program: &str) -> String {
    let line = server.handle_line(&request(id, program));
    let resp = json::parse(&line).expect("the response is one JSON object");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some(id));
    line
}

fn parens(depth: usize) -> String {
    format!("void main() {{ int x = {}1{}; print(x); }}", "(".repeat(depth), ")".repeat(depth))
}

#[test]
fn over_deep_programs_get_one_compile_error_and_the_server_keeps_serving() {
    let server = Server::new();
    for depth in [1_000, 100_000] {
        let id = format!("deep{depth}");
        let resp = json::parse(&server.handle_line(&request(&id, &parens(depth))))
            .expect("the response is one JSON object");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "depth {depth}");
        assert_eq!(resp.get("id").and_then(Json::as_str), Some(id.as_str()));
        let error = resp.get("error").expect("structured error");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("compile"), "depth {depth}");
        let message = error.get("message").and_then(Json::as_str).expect("message");
        assert!(
            message.starts_with("parse error") && message.contains("nesting too deep"),
            "depth {depth}: {message}"
        );
    }
    let resp = ok(&server, "after", "void main() { if (procId == 0) { print(40 + 2); } }");
    assert!(resp.contains("[[\"42\"],[],[],[]]"), "{resp}");
    let stats = server.stats();
    assert_eq!((stats.ok, stats.errors), (1, 2));
}

#[test]
fn programs_at_the_nesting_limit_still_compile_and_run() {
    // parentheses inside `main`'s body and an initializer: the body
    // block and the initializer expression open two levels
    let server = Server::new();
    let resp = ok(&server, "edge", &parens(MAX_NESTING - 2));
    assert!(resp.contains("[[\"1\"],[\"1\"],[\"1\"],[\"1\"]]"), "{resp}");
    let resp = server.handle_line(&request("over", &parens(MAX_NESTING - 1)));
    assert!(resp.contains("nesting too deep"), "{resp}");
}
