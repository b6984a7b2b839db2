//! The per-tenant compiled-program cache.
//!
//! The serving front end sees the same program text over and over (clients
//! re-send their query library on every request), so each tenant keeps a
//! bounded cache of compiled artifacts, keyed by
//! [`CompiledProgram::fingerprint`](srl_core::CompiledProgram::fingerprint) —
//! the structural FNV hash of the parsed program, computed once when it
//! compiles.
//! Two texts that parse to the same structure (whitespace, comments,
//! definition formatting) share one entry.
//!
//! Lookup is two-level: a text-hash index in front of the fingerprint map
//! means a *byte-identical* resend skips the parser entirely, while a
//! reformatted program still hits the compiled entry after one parse. Both
//! levels count as a **hit** — a hit is "the compile stage was skipped",
//! which is what the `cache` object in every `run` response reports.
//!
//! Each entry owns a pooled [`Evaluator`] minted once from its artifact and
//! reused across queries (statistics are reset per query). This leans on the
//! hardened-execution rollback invariant: an evaluator whose previous query
//! failed — deadline, panicked shard worker, runtime error — answers its
//! next query byte-identically to a freshly minted one, so pooling is
//! observationally free (`reuse_after_error_leaves_the_pooled_evaluator
//! _fresh` in `tests/serve.rs` pins this end to end).
//!
//! Eviction is least-recently-used at a fixed capacity; the eviction count
//! is surfaced alongside hits and misses.

use std::collections::HashMap;

use srl_core::eval::Evaluator;
use srl_core::pipeline::{Compiled, Pipeline, Source};
use srl_syntax::frontend::{FrontendError, TextFrontend};

/// One cached compiled program with its pooled evaluator.
pub struct CacheEntry {
    /// The compiled artifact (program + lowered arena + limits + backend).
    pub artifact: Compiled,
    /// The pooled evaluator, reused across queries of this program.
    pub evaluator: Evaluator,
    last_used: u64,
}

/// A bounded LRU cache of compiled programs, keyed by structural
/// fingerprint with a text-hash fast path.
pub struct ProgramCache {
    cap: usize,
    tick: u64,
    /// FNV(text) → fingerprint: the parse-skipping front level.
    by_text: HashMap<u64, u64>,
    /// fingerprint → entry: the compile-skipping level.
    entries: HashMap<u64, CacheEntry>,
    /// Queries answered from the cache (either level).
    pub hits: u64,
    /// Queries that had to compile.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

impl ProgramCache {
    /// An empty cache holding at most `cap` compiled programs (min 1).
    pub fn new(cap: usize) -> Self {
        ProgramCache {
            cap: cap.max(1),
            tick: 0,
            by_text: HashMap::new(),
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of compiled programs currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// FNV-1a over the raw text — the front-level key.
    fn text_hash(text: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Resolves `text` to a resident compiled entry, compiling through
    /// `pipeline` on a miss. Returns the entry's fingerprint and whether
    /// the compile stage was skipped (a cache hit).
    ///
    /// Frontend (parse/check) errors are **not** cached: a tenant fixing a
    /// typo should not need to outwait a negative entry, and an attacker
    /// cannot fill the cache with garbage programs that never compiled.
    pub fn lookup_or_compile(
        &mut self,
        pipeline: &Pipeline,
        text: &str,
    ) -> Result<(u64, bool), FrontendError> {
        self.tick += 1;
        let th = Self::text_hash(text);
        if let Some(&fp) = self.by_text.get(&th) {
            if let Some(entry) = self.entries.get_mut(&fp) {
                entry.last_used = self.tick;
                self.hits += 1;
                return Ok((fp, true));
            }
            // The text mapping survived its entry's eviction; fall through
            // and recompile.
        }
        let source = Source::new("<request>", text.to_string());
        let artifact = pipeline.compile_source(&source)?;
        let fp = artifact.compiled().fingerprint();
        self.by_text.insert(th, fp);
        if let Some(entry) = self.entries.get_mut(&fp) {
            // Same structure under different formatting: still a hit (the
            // compile above was wasted once; the text index now remembers).
            entry.last_used = self.tick;
            self.hits += 1;
            return Ok((fp, true));
        }
        self.misses += 1;
        let evaluator = artifact.evaluator();
        self.entries.insert(
            fp,
            CacheEntry {
                artifact,
                evaluator,
                last_used: self.tick,
            },
        );
        if self.entries.len() > self.cap {
            self.evict_lru();
        }
        Ok((fp, false))
    }

    /// The entry for a fingerprint returned by
    /// [`lookup_or_compile`](Self::lookup_or_compile) this query — present
    /// by construction.
    pub fn entry_mut(&mut self, fingerprint: u64) -> &mut CacheEntry {
        self.entries
            .get_mut(&fingerprint)
            .expect("entry_mut is only called with a fingerprint lookup_or_compile returned")
    }

    fn evict_lru(&mut self) {
        if let Some((&fp, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
            self.entries.remove(&fp);
            self.by_text.retain(|_, v| *v != fp);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::pipeline::Pipeline;

    const SINGLETON: &str = "singleton(x) = insert(x, emptyset)";

    #[test]
    fn byte_identical_resends_hit_without_reparsing() {
        let pipeline = Pipeline::new();
        let mut cache = ProgramCache::new(4);
        let (fp1, hit1) = cache.lookup_or_compile(&pipeline, SINGLETON).unwrap();
        let (fp2, hit2) = cache.lookup_or_compile(&pipeline, SINGLETON).unwrap();
        assert_eq!(fp1, fp2);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!((cache.hits, cache.misses, cache.evictions), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reformatted_programs_share_one_entry_by_fingerprint() {
        let pipeline = Pipeline::new();
        let mut cache = ProgramCache::new(4);
        let (fp1, _) = cache.lookup_or_compile(&pipeline, SINGLETON).unwrap();
        // Different bytes, same structure: second level catches it.
        let (fp2, hit2) = cache
            .lookup_or_compile(&pipeline, "singleton(x) =\n  insert(x, emptyset)")
            .unwrap();
        assert_eq!(fp1, fp2, "fingerprint is structural");
        assert!(hit2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let pipeline = Pipeline::new();
        let mut cache = ProgramCache::new(2);
        cache.lookup_or_compile(&pipeline, "a(x) = x").unwrap();
        cache.lookup_or_compile(&pipeline, "b(x) = [x, x]").unwrap();
        // Touch `a` so `b` is the least recently used…
        cache.lookup_or_compile(&pipeline, "a(x) = x").unwrap();
        cache
            .lookup_or_compile(&pipeline, "c(x) = insert(x, emptyset)")
            .unwrap();
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.len(), 2);
        // …so `a` is still a hit and `b` recompiles.
        let (_, hit_a) = cache.lookup_or_compile(&pipeline, "a(x) = x").unwrap();
        assert!(hit_a);
        let (_, hit_b) = cache.lookup_or_compile(&pipeline, "b(x) = [x, x]").unwrap();
        assert!(!hit_b, "the evicted entry must recompile");
    }

    #[test]
    fn frontend_errors_are_not_cached() {
        let pipeline = Pipeline::new();
        let mut cache = ProgramCache::new(4);
        assert!(cache.lookup_or_compile(&pipeline, "f(x = ").is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.hits, cache.misses), (0, 0));
    }
}
