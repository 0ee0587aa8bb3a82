//! Workspace-level analysis properties: the call graph and the thread
//! topology are deterministic (byte-identical dumps) and total (malformed
//! input degrades to `unknown` nodes or absent sites, never a panic), and
//! cross-crate resolution stitches `use`-imported calls.

use ig_lint::{callgraph_json_for_units, threads_json_for_units, SourceUnit};

fn unit(rel: &str, src: &str) -> SourceUnit {
    SourceUnit::classified(rel, src.to_string())
}

#[test]
fn callgraph_dump_is_deterministic() {
    let units = vec![
        unit(
            "crates/core/src/lib.rs",
            "pub mod features;\npub fn entry() { features::compute(); }\n",
        ),
        unit(
            "crates/core/src/features.rs",
            "pub fn compute() { helper(); helper(); }\nfn helper() {}\n",
        ),
        unit(
            "crates/runtime/src/lib.rs",
            "use ig_core::entry;\npub fn drive() { entry(); std::fs::write(\"x\", \"y\").ok(); }\n",
        ),
    ];
    let a = callgraph_json_for_units(&units);
    let b = callgraph_json_for_units(&units);
    assert_eq!(a, b, "same units must produce byte-identical dumps");
    assert!(a.contains("\"nodes\""));
    assert!(a.contains("\"edges\""));
}

#[test]
fn callgraph_resolves_cross_crate_use_imports() {
    let units = vec![
        unit(
            "crates/core/src/lib.rs",
            "pub fn shared_entry() { internal(); }\nfn internal() {}\n",
        ),
        unit(
            "crates/runtime/src/lib.rs",
            "use ig_core::shared_entry;\npub fn drive() { shared_entry(); }\n",
        ),
    ];
    let json = callgraph_json_for_units(&units);
    // `drive` must link to the *fn node* for ig_core::shared_entry, not an
    // unknown: the label appears exactly once (one node, kind fn).
    let label = "\"label\": \"ig_core::shared_entry\"";
    assert_eq!(json.matches(label).count(), 1, "dump:\n{json}");
    let line = json
        .lines()
        .find(|l| l.contains(label))
        .expect("node present");
    assert!(line.contains("\"kind\": \"fn\""), "line: {line}");
}

#[test]
fn callgraph_is_total_on_malformed_and_unresolvable_input() {
    let units = vec![
        unit("crates/core/src/broken.rs", "fn broken(((( {\n"),
        unit(
            "crates/core/src/partial.rs",
            "fn ok() { std::mem::transmute_garbage::<<>(); some_external_fn(); }\nfn also_ok() { ok(); }\n",
        ),
        unit("crates/core/src/empty.rs", ""),
        unit(
            "crates/core/src/weird.rs",
            "fn w() { (1 + 2).undefined_method(); crate::no::such::path(); }\n",
        ),
    ];
    // Must not panic, and whatever could not resolve shows up as
    // `unknown` nodes instead of being dropped.
    let json = callgraph_json_for_units(&units);
    assert!(json.contains("\"kind\": \"unknown\""), "dump:\n{json}");
    assert!(json.contains(".undefined_method"), "dump:\n{json}");
}

#[test]
fn callgraph_interns_unknowns_by_label() {
    let units = vec![unit(
        "crates/core/src/lib.rs",
        "pub fn a() { std::fs::write(\"x\", \"1\").ok(); }\npub fn b() { std::fs::write(\"y\", \"2\").ok(); }\n",
    )];
    let json = callgraph_json_for_units(&units);
    assert_eq!(
        json.matches("\"label\": \"std::fs::write\"").count(),
        1,
        "two call sites, one interned unknown node; dump:\n{json}"
    );
}

#[test]
fn threads_dump_is_deterministic_and_ordered() {
    let units = vec![
        unit(
            "crates/runtime/src/pool.rs",
            "pub fn fan_out(n: usize) {\n    std::thread::scope(|scope| {\n        for shard in 0..n {\n            scope.spawn(move || shard + 1);\n        }\n    });\n}\n",
        ),
        unit(
            "crates/core/src/driver.rs",
            "pub fn background(tx: Sender<u32>) {\n    let h = std::thread::spawn(move || tx.send(1));\n    h.join().unwrap();\n}\n",
        ),
    ];
    let a = threads_json_for_units(&units);
    let b = threads_json_for_units(&units);
    assert_eq!(a, b, "same units must produce byte-identical dumps");
    // Sites come out in (file, line) order: core/driver.rs before
    // runtime/pool.rs, and all three spawn kinds are classified.
    let core_at = a.find("driver.rs").expect("driver site");
    let pool_at = a.find("pool.rs").expect("pool site");
    assert!(core_at < pool_at, "dump:\n{a}");
    for kind in ["\"thread-spawn\"", "\"scope\"", "\"scoped-spawn\""] {
        assert!(a.contains(kind), "missing {kind}; dump:\n{a}");
    }
    // The worker closure's escape set names the captured binding.
    assert!(a.contains("\"tx\""), "dump:\n{a}");
}

#[test]
fn threads_dump_is_total_on_malformed_input() {
    let units = vec![
        unit(
            "crates/core/src/broken.rs",
            "fn broken(((( {\n    std::thread::spawn(|| 1);\n",
        ),
        unit("crates/core/src/empty.rs", ""),
        unit(
            "crates/core/src/ok.rs",
            "pub fn go() {\n    let h = std::thread::spawn(|| 2);\n    h.join().unwrap();\n}\n",
        ),
    ];
    // Must not panic; whatever the recovered AST holds is classified and
    // the dump stays well-formed.
    let json = threads_json_for_units(&units);
    assert!(json.contains("\"version\": 1"), "dump:\n{json}");
    assert!(json.contains("ok.rs"), "dump:\n{json}");
}
