//! The invariant rules. Each rule is a pure function from a
//! [`FileContext`] to diagnostics; suppression via allow annotations and
//! malformed-annotation reporting happen in the shared runner here.

mod a1_atomic_ordering;
mod c1_lock_discipline;
mod d1_nondeterminism;
mod d1_salt;
mod d2_hash_iter;
mod f1_fingerprint;
mod n1_float_eq;
mod n2_lossy_cast;
mod p1_panic;
mod p1_stage_purity;

use std::collections::BTreeMap;

use crate::annotations::AllowIndex;
use crate::callgraph::CallGraph;
use crate::context::{FileClass, FileContext};
use crate::report::Diagnostic;
use crate::symbols::Symbols;
use crate::threads::ThreadTopology;

/// Canonical rule names, as written in `allow(…)` annotations.
///
/// `bad-annotation` is reserved for the runner itself and cannot be
/// allowed away.
pub const RULE_NAMES: &[&str] = &[
    "nondeterminism",           // D0
    "hash-iter",                // D2
    "panic",                    // PF1
    "float-eq",                 // N1
    "lossy-cast",               // N2
    "fingerprint-completeness", // F1
    "stage-purity",             // P1
    "lock-discipline",          // C1
    "atomic-ordering",          // A1
    "salt-determinism",         // D1
];

/// Run every rule over one file, honoring allow annotations, and report
/// malformed annotations as violations in their own right.
pub fn check_file(ctx: &FileContext) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();
    d1_nondeterminism::check(ctx, &mut raw);
    d2_hash_iter::check(ctx, &mut raw);
    p1_panic::check(ctx, &mut raw);
    n1_float_eq::check(ctx, &mut raw);
    n2_lossy_cast::check(ctx, &mut raw);

    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !ctx.allows.is_allowed(&d.rule, d.line))
        .collect();

    // Annotation hygiene only matters where annotations have force; exempt
    // crates (including this linter, whose docs discuss the syntax) are not
    // policed.
    if ctx.class != FileClass::Exempt {
        for bad in &ctx.allows.bad {
            out.push(Diagnostic {
                rule: "bad-annotation".to_string(),
                path: ctx.path.to_string(),
                line: bad.line,
                col: 1,
                message: bad.problem.clone(),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    out
}

/// Run the workspace-level rule families (F1 fingerprint-completeness,
/// P1 stage-purity, C1 lock-discipline, A1 atomic-ordering, D1
/// salt-determinism) over the symbol table + call graph + thread
/// topology, honoring each firing file's allow annotations.
pub fn check_workspace_rules(
    ctxs: &[FileContext],
    sy: &Symbols,
    graph: &CallGraph,
    topo: &ThreadTopology,
    out: &mut Vec<Diagnostic>,
) {
    let mut raw: Vec<Diagnostic> = Vec::new();
    f1_fingerprint::check(ctxs, sy, graph, &mut raw);
    p1_stage_purity::check(ctxs, sy, graph, &mut raw);
    c1_lock_discipline::check(ctxs, sy, graph, &mut raw);
    a1_atomic_ordering::check(ctxs, sy, topo, &mut raw);
    d1_salt::check(ctxs, sy, graph, &mut raw);
    let allows: BTreeMap<&str, &AllowIndex> = ctxs.iter().map(|c| (c.path, c.allows)).collect();
    out.extend(raw.into_iter().filter(|d| {
        allows
            .get(d.path.as_str())
            .is_none_or(|a| !a.is_allowed(&d.rule, d.line))
    }));
}

/// Catalog entry for one rule: identity, family, where it applies, and why.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Short id (`PF1`), used in docs and the `rules` subcommand.
    pub id: &'static str,
    /// Canonical name, as written in `allow(…)` annotations.
    pub name: &'static str,
    /// Rule family grouping related invariants.
    pub family: &'static str,
    /// Where the rule fires.
    pub scope: &'static str,
    pub description: &'static str,
}

/// Full rule catalog, for `ig-lint rules` and the docs.
pub fn rule_catalog() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            id: "D0",
            name: "nondeterminism",
            family: "determinism",
            scope: "library crates, non-test code",
            description: "no thread_rng()/from_entropy()/SystemTime::now()/Instant::now() outside \
                 crates/experiments, perfbench, and examples — clean runs must be \
                 bit-for-bit reproducible from the seed alone",
        },
        RuleInfo {
            id: "D2",
            name: "hash-iter",
            family: "determinism",
            scope: "library crates, non-test code",
            description: "no iteration over HashMap/HashSet in result-producing code — iteration \
                 order is randomized per process; use BTreeMap or sort first",
        },
        RuleInfo {
            id: "PF1",
            name: "panic",
            family: "panic-freedom",
            scope: "library crates, non-test code",
            description: "no unwrap()/expect()/panic!/slice-indexing-by-literal in library crates \
                 outside #[cfg(test)] — recovery ladders need Result, not aborts",
        },
        RuleInfo {
            id: "N1",
            name: "float-eq",
            family: "numeric-safety",
            scope: "library crates, non-test code",
            description:
                "no bare float ==/!= — use ig_imaging::stats::{approx_eq, is_effectively_zero}",
        },
        RuleInfo {
            id: "N2",
            name: "lossy-cast",
            family: "numeric-safety",
            scope: "imaging/nn hot-path files (see HOT_PATH_FILES)",
            description: "no truncating float->int `as` casts in the imaging/nn hot paths — round \
                 explicitly or annotate why truncation is intended",
        },
        RuleInfo {
            id: "F1",
            name: "fingerprint-completeness",
            family: "stage-contract",
            scope: "every non-test `impl Stage` block in library crates",
            description: "every `self` field and keyed `ctx` accessor (`threads`, `plan`) \
                 the `run()` closure reads must be folded into `fingerprint()` — a missed \
                 input serves stale cached artifacts; the inverse (hashed but never \
                 read) silently over-invalidates the cache",
        },
        RuleInfo {
            id: "P1",
            name: "stage-purity",
            family: "stage-contract",
            scope: "code reachable from any `Stage::run` (interprocedural)",
            description: "no ambient effects — filesystem, env, wall clock, thread spawns, \
                 process launches — reachable from `run()` outside the blessed \
                 ig-runtime persistence modules (engines may spawn scoped threads); \
                 effects make memoized artifacts depend on machine state",
        },
        RuleInfo {
            id: "C1",
            name: "lock-discipline",
            family: "stage-contract",
            scope: "runtime store/disk, the imaging prepared-pattern cache and the feature engine's image slots",
            description: "lock acquisition must follow one partial order (no cycles), and no \
                 early exit may hold two guards at once",
        },
        RuleInfo {
            id: "D1",
            name: "salt-determinism",
            family: "determinism",
            scope: "library crates, non-test code (persistence modules exempt)",
            description: "every `ctx.rng(salt)` must take a compile-time-resolvable salt, no \
                 two distinct stages may share one (`seed ^ salt` would correlate their \
                 streams), and `seed_from_u64(seed)` must not bypass the salting \
                 discipline",
        },
        RuleInfo {
            id: "A1",
            name: "atomic-ordering",
            family: "concurrency",
            scope: "library crates, non-test code, over the thread topology",
            description: "`Ordering::Relaxed` only for statement-level counters: a Relaxed \
                 load may not gate control flow, a Relaxed store may not publish across \
                 a spawn boundary, a Relaxed RMW result may not be consumed as a \
                 handshake — bless counters per-field with a reason",
        },
        RuleInfo {
            id: "A0",
            name: "bad-annotation",
            family: "hygiene",
            scope: "everywhere annotations have force (non-exempt files)",
            description:
                "every `ig-lint: allow(...)` must list known rules and carry a `-- reason`",
        },
    ]
}
