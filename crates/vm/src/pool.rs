//! Warm-launch infrastructure: the compiled-program cache, the VM
//! execution pool, and the per-host set that bundles them with the
//! analysis cache.
//!
//! A mobile agent pays its launch cost at *every* hop: decode (or
//! compile) the program, lower it to the execution tier, allocate the
//! VM's stacks. The analysis cache memoizes compile or decode plus
//! verification of untrusted code ([`LaunchCaches::compile`] and
//! `verify`); this module closes the two remaining gaps:
//!
//! * [`ProgramCache`] — a bounded LRU of decoded [`Program`]s keyed by a
//!   domain-tagged content hash of the wire bytes, for the binaries
//!   `vm_bin` and `ag_exec` run as *trusted* code, skipping analysis. Because
//!   a [`Program`] caches its lowered execution form behind an `Arc`,
//!   a cache hit also skips superinstruction lowering — the whole
//!   compile tier is paid once per distinct program, not once per hop.
//! * [`VmPool`] — a bounded free-list of warm
//!   [`ExecScratch`](tacoma_taxscript::ExecScratch) instances (value
//!   stack, locals arena, frame stack). A launch checks one out, runs,
//!   and checks it back in; steady-state agent traffic reuses the same
//!   grown-to-size buffers instead of reallocating them per hop.
//!
//! [`LaunchCaches`] is one host's set of all three, at the fixed
//! capacities below. A host builds one set; its firewall admission and
//! every VM on it share that set, so an agent admitted at the door is a
//! warm hit in the VM. There is no process-wide set: a standalone VM or
//! admission check owns a fresh one, and the counters the firewall folds
//! into `FirewallStats` (`taxsh stats`) belong to that host alone.

use std::fmt;
use std::sync::{Arc, Mutex};

use tacoma_security::Digest;
use tacoma_taxscript::analysis::{
    self, tagged_hash, AnalysisCache, CacheStats, ContentLru, VerifiedScript,
};
use tacoma_taxscript::{ExecScratch, Program};

use crate::VmError;

/// Domain-separation tag for [`ProgramCache`] keys. Distinct from the
/// analysis cache's tags so a trusted-path entry can never alias a
/// verified-path entry for the same bytes.
const TAG_PROGRAM: &[u8] = b"vm:cache:program\0";

/// Default number of programs the cache retains.
pub const PROGRAM_CACHE_CAPACITY: usize = 256;

/// Default number of warm scratches the pool retains.
pub const VM_POOL_CAPACITY: usize = 32;

/// A bounded LRU of decoded programs keyed by content hash (the analysis
/// cache's [`ContentLru`] core under this module's own domain tag).
#[derive(Debug)]
pub struct ProgramCache {
    lru: ContentLru<Arc<Program>>,
}

impl ProgramCache {
    /// Creates a cache retaining at most `capacity` programs (min 1).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            lru: ContentLru::new(capacity),
        }
    }

    /// The content-hash key for program wire bytes.
    pub fn key_for(wire: &[u8]) -> Digest {
        tagged_hash(TAG_PROGRAM, wire)
    }

    /// Decodes `wire`, memoized by content hash. On a hit the returned
    /// program already carries its lowered execution form. Returns the
    /// program and whether it was served warm.
    ///
    /// Decode failures are **not** cached: the trusted `vm_bin` paths
    /// reject unsigned garbage before reaching this point, so negative
    /// entries would only dilute the capacity.
    ///
    /// # Errors
    ///
    /// [`VmError::BadArtifact`]-compatible decode errors, exactly as
    /// the uncached `Program::decode`.
    pub fn decode(&self, wire: &[u8]) -> Result<(Arc<Program>, bool), VmError> {
        self.lru.memoize(Self::key_for(wire), || {
            let program = Program::decode(wire)?;
            program.prepare();
            Ok(Arc::new(program))
        })
    }

    /// Cumulative counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

struct PoolInner {
    free: Vec<ExecScratch>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded free-list of warm [`ExecScratch`] instances.
///
/// `checkout` pops a warm scratch (or allocates a cold one); `checkin`
/// clears it and returns it for the next launch, dropping it instead
/// when the pool is already full. A pooled scratch therefore carries
/// capacity but never the last agent's values, whether its run
/// finished, faulted or moved.
pub struct VmPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
}

impl fmt::Debug for VmPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("VmPool")
            .field("capacity", &self.capacity)
            .field("warm", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl VmPool {
    /// Creates a pool retaining at most `capacity` warm scratches
    /// (min 1).
    pub fn new(capacity: usize) -> Self {
        VmPool {
            capacity: capacity.max(1),
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Takes a warm scratch, or allocates a cold one on a miss.
    pub fn checkout(&self) -> ExecScratch {
        let mut inner = self.inner.lock().expect("vm pool poisoned");
        match inner.free.pop() {
            Some(scratch) => {
                inner.hits += 1;
                scratch
            }
            None => {
                inner.misses += 1;
                ExecScratch::new()
            }
        }
    }

    /// Clears a scratch and returns it for reuse; drops it if the pool
    /// is full.
    pub fn checkin(&self, mut scratch: ExecScratch) {
        scratch.clear();
        let mut inner = self.inner.lock().expect("vm pool poisoned");
        if inner.free.len() < self.capacity {
            inner.free.push(scratch);
        } else {
            inner.evictions += 1;
        }
    }

    /// Cumulative counters plus the current number of warm scratches.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("vm pool poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.free.len(),
        }
    }
}

/// One host's launch caches: verified scripts, decoded programs and warm
/// VM scratches, each at its fixed default capacity. Shared through an
/// `Arc` by the host's firewall admission and all of its VMs.
#[derive(Debug)]
pub struct LaunchCaches {
    analysis: AnalysisCache,
    programs: ProgramCache,
    pool: VmPool,
}

impl LaunchCaches {
    /// A fresh, empty set.
    pub fn new() -> Self {
        LaunchCaches {
            analysis: AnalysisCache::new(analysis::DEFAULT_CAPACITY),
            programs: ProgramCache::new(PROGRAM_CACHE_CAPACITY),
            pool: VmPool::new(VM_POOL_CAPACITY),
        }
    }

    /// The verified-script cache (firewall admission, [`Self::compile`],
    /// `verify`).
    pub fn analysis(&self) -> &AnalysisCache {
        &self.analysis
    }

    /// Compiles and verifies `source`, memoized by content hash: the one
    /// source path (`vm_script`, `vm_c`, `ag_cc`).
    ///
    /// # Errors
    ///
    /// [`VmError::Compile`] or [`VmError::Unverifiable`], cached or cold.
    pub fn compile(&self, source: &str) -> Result<Arc<VerifiedScript>, VmError> {
        Ok(self.analysis.analyze_source(source).0?)
    }

    /// Decodes and verifies untrusted bytecode, memoized by content hash
    /// in the entries firewall admission shares (`vm_script`).
    ///
    /// # Errors
    ///
    /// [`VmError::Runtime`] if it does not decode, [`VmError::Unverifiable`].
    pub(crate) fn verify(&self, wire: &[u8]) -> Result<Arc<VerifiedScript>, VmError> {
        Ok(self.analysis.analyze_bytes(wire).0?)
    }

    /// The compiled-program cache (`vm_bin` and `ag_exec`, which run
    /// trusted binaries unverified).
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// The warm-scratch pool (every launch).
    pub fn pool(&self) -> &VmPool {
        &self.pool
    }
}

impl Default for LaunchCaches {
    fn default() -> Self {
        LaunchCaches::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_briefcase::Briefcase;
    use tacoma_taxscript::{
        compile_source, GoDecision, HostHooks, NullHooks, Outcome, RuntimeError, Vm,
    };

    #[test]
    fn program_cache_hits_on_second_decode() {
        let cache = ProgramCache::new(8);
        let wire = compile_source("fn main() { exit(4); }").unwrap().encode();
        let (first, hit1) = cache.decode(&wire).unwrap();
        let (second, hit2) = cache.decode(&wire).unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second), "hit shares the entry");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn cached_programs_run() {
        let cache = ProgramCache::new(8);
        let wire = compile_source("fn main() { exit(7); }").unwrap().encode();
        cache.decode(&wire).unwrap();
        let (program, hit) = cache.decode(&wire).unwrap();
        assert!(hit);
        let mut bc = Briefcase::new();
        let outcome = Vm::new(&program, NullHooks::default()).run(&mut bc);
        assert_eq!(outcome, Ok(Outcome::Exit(7)));
    }

    #[test]
    fn decode_failures_are_not_cached() {
        let cache = ProgramCache::new(8);
        assert!(cache.decode(b"garbage").is_err());
        assert!(cache.decode(b"garbage").is_err());
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 0));
    }

    #[test]
    fn program_cache_evicts_least_recent() {
        let cache = ProgramCache::new(2);
        let wires: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                compile_source(&format!("fn main() {{ exit({i}); }}"))
                    .unwrap()
                    .encode()
            })
            .collect();
        cache.decode(&wires[0]).unwrap();
        cache.decode(&wires[1]).unwrap();
        // Touch 0 so 1 is the victim.
        assert!(cache.decode(&wires[0]).unwrap().1);
        cache.decode(&wires[2]).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.decode(&wires[0]).unwrap().1, "0 survived");
        assert!(!cache.decode(&wires[1]).unwrap().1, "1 was evicted");
    }

    #[test]
    fn cache_keys_do_not_alias_analysis_cache_keys() {
        use tacoma_taxscript::analysis::AnalysisCache;
        let wire = compile_source("fn main() { }").unwrap().encode();
        assert_ne!(
            ProgramCache::key_for(&wire),
            AnalysisCache::key_for_bytes(&wire)
        );
    }

    #[test]
    fn pool_reuses_scratches() {
        let pool = VmPool::new(4);
        let a = pool.checkout(); // miss
        pool.checkin(a);
        let _b = pool.checkout(); // hit
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 0));
    }

    #[test]
    fn pool_drops_overflow() {
        let pool = VmPool::new(1);
        let a = pool.checkout();
        let b = pool.checkout();
        pool.checkin(a);
        pool.checkin(b); // over capacity: dropped
        let s = pool.stats();
        assert_eq!((s.evictions, s.entries), (1, 1));
    }

    #[test]
    fn pooled_scratch_carries_capacity_across_launches() {
        let pool = VmPool::new(4);
        let program =
            compile_source("fn main() { let i = 0; while (i < 100) { i = i + 1; } exit(0); }")
                .unwrap();
        let mut scratch = pool.checkout();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, NullHooks::default());
        assert_eq!(
            vm.run_with_scratch(&mut bc, &mut scratch),
            Ok(Outcome::Exit(0))
        );
        assert!(scratch.capacity() > 0, "run grew the scratch buffers");
        pool.checkin(scratch);
        let warm = pool.checkout();
        assert!(warm.capacity() > 0, "checked-in capacity survives");
    }

    /// Accepts every `go`, so a run can end `Moved`.
    struct Mover;

    impl HostHooks for Mover {
        fn display(&mut self, _: &str) {}
        fn go(&mut self, _: &str, _: &Briefcase) -> GoDecision {
            GoDecision::Moved
        }
        fn spawn(&mut self, _: &str, _: &Briefcase) -> Option<String> {
            None
        }
        fn activate(&mut self, _: &str, _: &Briefcase) -> bool {
            false
        }
        fn meet(&mut self, _: &str, _: &Briefcase) -> Option<Briefcase> {
            None
        }
        fn await_bc(&mut self, _: i64) -> Option<Briefcase> {
            None
        }
        fn now_ms(&mut self) -> i64 {
            0
        }
        fn host_name(&mut self) -> String {
            "h1".into()
        }
    }

    #[test]
    fn pooled_scratches_hold_no_values_after_any_outcome() {
        let pool = VmPool::new(4);
        let runs = [
            (
                r#"fn main() { let url = "https://a/x"; let l = [url, url]; exit(0); }"#,
                Ok(Outcome::Exit(0)),
            ),
            (
                r#"fn main() { let url = "https://a/x"; let n = url - 1; }"#,
                Err(RuntimeError::TypeError {
                    op: "subtract",
                    got: "string and int".into(),
                }),
            ),
            (
                r#"fn main() { let next = "tacoma://h2/vm"; go(next); }"#,
                Ok(Outcome::Moved {
                    to: "tacoma://h2/vm".into(),
                }),
            ),
        ];
        let mut used = Vec::new();
        for (src, expected) in runs {
            let program = compile_source(src).unwrap();
            let mut scratch = pool.checkout();
            let mut bc = Briefcase::new();
            let outcome = Vm::new(&program, Mover).run_with_scratch(&mut bc, &mut scratch);
            assert_eq!(outcome, expected, "{src}");
            assert!(!scratch.is_empty(), "the run left values behind: {src}");
            used.push(scratch);
        }
        for scratch in used {
            pool.checkin(scratch);
        }
        for _ in 0..3 {
            let warm = pool.checkout();
            assert!(warm.is_empty(), "a pooled scratch holds no values");
            assert!(warm.capacity() > 0, "but keeps its capacity");
        }
        assert_eq!(pool.stats().hits, 3);
    }
}
