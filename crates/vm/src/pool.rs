//! Warm-launch infrastructure: the compiled-program cache and the VM
//! execution pool.
//!
//! A mobile agent pays its launch cost at *every* hop: decode (or
//! compile) the program, lower it to the execution tier, allocate the
//! VM's stacks. The analysis cache (PR 6) already memoizes decode +
//! verification for `vm_script`'s bytecode path; this module closes the
//! two remaining gaps:
//!
//! * [`ProgramCache`] — a bounded LRU of decoded [`Program`]s keyed by a
//!   domain-tagged content hash of the wire bytes, for the `vm_bin`
//!   paths that run *trusted* code and therefore skip analysis. Because
//!   a [`Program`] caches its lowered execution form behind an `Arc`,
//!   a cache hit also skips superinstruction lowering — the whole
//!   compile tier is paid once per distinct program, not once per hop.
//! * [`VmPool`] — a bounded free-list of warm
//!   [`ExecScratch`](tacoma_taxscript::ExecScratch) instances (value
//!   stack, locals arena, frame stack). A launch checks one out, runs,
//!   and checks it back in; steady-state agent traffic reuses the same
//!   grown-to-size buffers instead of reallocating them per hop.
//!
//! Both expose cumulative counters that the firewall folds into
//! `FirewallStats`, so `taxsh stats` shows hit rates in production.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use tacoma_security::Digest;
use tacoma_taxscript::analysis::{tagged_hash, CacheStats, ContentLru};
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

    /// The process-wide cache shared by every `vm_bin` launch.
    pub fn shared() -> &'static ProgramCache {
        static SHARED: OnceLock<ProgramCache> = OnceLock::new();
        SHARED.get_or_init(|| ProgramCache::new(PROGRAM_CACHE_CAPACITY))
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

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.lru.clear();
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
/// returns it for the next launch, dropping it instead when the pool is
/// already full. Scratches are cleared by the dispatcher on entry, so a
/// returned scratch carries capacity but never values — checking in a
/// scratch used on a faulted run is safe.
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

    /// The process-wide pool shared by every VM launch.
    pub fn shared() -> &'static VmPool {
        static SHARED: OnceLock<VmPool> = OnceLock::new();
        SHARED.get_or_init(|| VmPool::new(VM_POOL_CAPACITY))
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

    /// Returns a scratch for reuse; drops it if the pool is full.
    pub fn checkin(&self, scratch: ExecScratch) {
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

    /// Drops every warm scratch (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().expect("vm pool poisoned").free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_briefcase::Briefcase;
    use tacoma_taxscript::{compile_source, NullHooks, Outcome, Vm};

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
}
