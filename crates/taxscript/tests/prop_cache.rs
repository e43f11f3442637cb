//! Property-based determinism tests for the verified-script cache: for
//! arbitrary generated programs, a cache hit returns a result
//! byte-identical to the cold-path `analyze()` — cache == eager,
//! mirroring the briefcase CoW parity properties.

use proptest::prelude::*;
use tacoma_taxscript::analysis::{analyze, AnalysisCache, AnalysisFailure};
use tacoma_taxscript::{compile_source, Program};

/// A random-but-compiling agent: a handful of statements drawn from the
/// folder/travel/arith repertoire, so the generated corpus exercises
/// every analysis pass (verifier joins, capabilities, flow, lints).
fn arb_agent() -> impl Strategy<Value = String> {
    let folder = prop_oneof![
        Just("RESULTS".to_owned()),
        Just("TRACE".to_owned()),
        Just("SCRATCH".to_owned()),
        Just("HOSTS".to_owned()),
        "[A-Z]{2,8}",
    ];
    let host = prop_oneof![
        Just("h1".to_owned()),
        Just("h2".to_owned()),
        Just("hub".to_owned()),
        "[a-z]{2,8}",
    ];
    let stmt = prop_oneof![
        (folder.clone(), any::<i32>()).prop_map(|(f, v)| format!("bc_append(\"{f}\", {v});")),
        (folder.clone(), any::<i32>()).prop_map(|(f, v)| format!("bc_set(\"{f}\", {v});")),
        folder
            .clone()
            .prop_map(|f| format!("display(bc_len(\"{f}\"));")),
        folder
            .clone()
            .prop_map(|f| format!("bc_remove(\"{f}\", 0);")),
        folder.prop_map(|f| format!("bc_append(\"{f}\", host_name());")),
        host.clone()
            .prop_map(|h| format!("if (go(\"tacoma://{h}/vm_script\")) {{ display(\"x\"); }}")),
        host.prop_map(|h| format!("spawn(\"tacoma://{h}/vm_script\");")),
        (any::<i32>(), any::<i32>()).prop_map(|(a, b)| format!("let v = {a} + {b}; display(v);")),
        (1u8..4).prop_map(|n| {
            format!("let i = 0; while (i < {n}) {{ bc_append(\"LOOP\", i); i = i + 1; }}")
        }),
    ];
    proptest::collection::vec(stmt, 0..8)
        .prop_map(|stmts| format!("fn main() {{ {} exit(0); }}", stmts.join(" ")))
}

proptest! {
    /// Warm-cache results are byte-identical to the eager pipeline: same
    /// report (structural and rendered) for the same program bytes.
    #[test]
    fn cache_hit_equals_cold_analysis(src in arb_agent()) {
        let program = compile_source(&src).expect("generated agents compile");
        let wire = program.encode();
        let cache = AnalysisCache::new(4);

        // Prime, then hit.
        let (cold_cached, hit0) = cache.analyze_bytes(&wire);
        let (warm, hit1) = cache.analyze_bytes(&wire);
        prop_assert!(!hit0);
        prop_assert!(hit1);

        // Eager path: decode + analyze from scratch, no cache at all.
        let decoded = Program::decode(&wire).expect("own encoding decodes");
        match (warm, analyze(&decoded)) {
            (Ok(verified), Ok(eager)) => {
                prop_assert_eq!(&verified.report, &eager);
                // Byte-identical, not merely structurally equal.
                prop_assert_eq!(
                    format!("{:?}", verified.report),
                    format!("{eager:?}")
                );
                prop_assert_eq!(&verified.program, &decoded);
                let cold = cold_cached.expect("cold path agreed");
                prop_assert_eq!(&cold.report, &eager);
            }
            (Err(AnalysisFailure::Verify(warm_err)), Err(eager_err)) => {
                prop_assert_eq!(warm_err, eager_err);
            }
            (warm, eager) => {
                panic!("cache and eager disagree: {warm:?} vs {eager:?}");
            }
        }
    }

    /// One cache shared by many programs behaves like a fresh one per
    /// program (no state leakage between distinct programs: keying is by
    /// content hash), through hits and evictions alike.
    #[test]
    fn reused_cache_agrees_with_eager(srcs in proptest::collection::vec(arb_agent(), 1..12)) {
        let cache = AnalysisCache::new(4);
        for src in srcs.iter().chain(srcs.iter().rev()) {
            let program = compile_source(src).expect("generated agents compile");
            let (result, _) = cache.analyze_bytes(&program.encode());
            match (result, analyze(&program)) {
                (Ok(verified), Ok(eager)) => prop_assert_eq!(&verified.report, &eager),
                (Err(AnalysisFailure::Verify(a)), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => {
                    panic!("reused cache and eager disagree: {a:?} vs {b:?}");
                }
            }
        }
    }
}
