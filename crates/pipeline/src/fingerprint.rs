//! Stable fingerprints of stage input closures.
//!
//! Every pipeline stage is keyed by a [`Fingerprint`] of its *full*
//! input closure: the code-schema version, the stage domain tag, and
//! every configuration field that can change the stage's output. Two
//! invocations share a cache entry exactly when their fingerprints are
//! equal, so the hash must be
//!
//! * **stable** across processes and platforms (no `std` `Hasher`
//!   randomization, no pointer identity, fixed endianness), and
//! * **sensitive** to every output-affecting input (floats hashed by
//!   bit pattern, strings length-prefixed, enums tagged).
//!
//! The implementation is a 128-bit FNV-1a pair: two independent 64-bit
//! FNV-1a streams over the same byte sequence, the second offset by a
//! domain constant. This is not cryptographic — the store also carries
//! an integrity hash per artifact — but 128 bits make accidental
//! collisions between the few thousand artifacts a workflow produces
//! vanishingly unlikely.

use std::fmt;

/// Bump when any generator / trainer / serializer behavior change makes
/// previously cached artifacts unreproducible by the current code. The
/// version participates in every fingerprint (and in the on-disk
/// header), so a bump atomically invalidates the whole store.
pub const SCHEMA_VERSION: u32 = 1;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Arbitrary odd constant decorrelating the second FNV stream.
const STREAM2_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 128-bit stable content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Canonical lowercase 32-hex-digit rendering (the on-disk file
    /// stem of the artifact).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Fingerprint::to_hex`] rendering back into a key.
    /// Accepts exactly 1–32 hex digits (case-insensitive); anything
    /// else — empty, overlong, or non-hex — returns `None`. The inverse
    /// direction the serve registry needs to look artifacts up from
    /// request-supplied keys.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental fingerprint builder with explicitly typed writes.
///
/// Field order is part of the key: callers write each field in a fixed
/// documented order, tagging variable-length data with lengths so no
/// two distinct closures can serialize to the same byte stream.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    lo: u64,
    hi: u64,
}

impl FingerprintHasher {
    /// Starts a hasher for one stage domain. The domain tag and
    /// [`SCHEMA_VERSION`] are folded in first, so equal payloads in
    /// different domains (a dataset vs. a tree) never collide and every
    /// schema bump invalidates every key.
    pub fn new(domain: &str) -> Self {
        let mut h = FingerprintHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET ^ STREAM2_SALT,
        };
        h.write_u32(SCHEMA_VERSION);
        h.write_str(domain);
        h
    }

    fn write_byte(&mut self, b: u8) {
        self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds raw bytes (no length tag; prefer the typed writers).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Writes one `u32` little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Writes one `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64` (platform-independent key).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_byte(u8::from(v));
    }

    /// Writes an `f64` by IEEE-754 bit pattern, so `-0.0 != 0.0` and
    /// every NaN payload is distinguished — bit-identity is the cache's
    /// contract.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Writes an `Option<f64>` with a presence tag.
    pub fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.write_bool(false),
            Some(x) => {
                self.write_bool(true);
                self.write_f64(x);
            }
        }
    }

    /// Writes an `Option<&str>` with a presence tag.
    pub fn write_opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.write_bool(false),
            Some(s) => {
                self.write_bool(true);
                self.write_str(s);
            }
        }
    }

    /// Finalizes the 128-bit fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint((u128::from(self.hi) << 64) | u128::from(self.lo))
    }
}

/// A value whose full output-affecting state can be folded into a
/// [`FingerprintHasher`].
pub trait Fingerprintable {
    /// Writes every output-affecting field, in a fixed order.
    fn fingerprint_into(&self, h: &mut FingerprintHasher);
}

impl Fingerprintable for workloads::generator::GeneratorConfig {
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        // CounterConfig.
        h.write_u64(self.counters.interval_instructions);
        h.write_usize(self.counters.programmable_counters);
        h.write_bool(self.counters.multiplexing_noise);
        // CostModel.
        h.write_f64(self.cost.noise_sigma);
        h.write_f64(self.cost.contention);
    }
}

impl Fingerprintable for modeltree::M5Config {
    /// Every field except `n_threads`: training is bit-identical for
    /// any thread count (enforced by the testkit differential suite),
    /// so thread count is an execution hint, not part of the closure.
    fn fingerprint_into(&self, h: &mut FingerprintHasher) {
        h.write_usize(self.min_leaf);
        h.write_usize(self.min_split);
        h.write_f64(self.sd_fraction);
        h.write_usize(self.max_depth);
        h.write_bool(self.prune);
        h.write_f64(self.pruning_multiplier);
        h.write_bool(self.attribute_elimination);
        h.write_bool(self.smoothing);
        h.write_f64(self.smoothing_k);
    }
}

/// Content fingerprint of a suite definition: identifier, generation,
/// environment, and the complete phase-mixture parameterization of
/// every benchmark model (each event's density spec, in
/// [`EventId::ALL`](perfcounters::EventId::ALL) order). This is how
/// registry suites without a frozen legacy token are identified in
/// dataset cache keys — any change to a suite's content re-keys its
/// artifacts, and the key is independent of where the suite sits in a
/// registry (content only, no insertion order).
pub fn suite_def_fingerprint(def: &workloads::SuiteDef) -> Fingerprint {
    use workloads::phases::EventSpec;
    let mut h = FingerprintHasher::new("suite-def");
    h.write_str(def.tag);
    h.write_str(def.display_name);
    h.write_u32(u32::from(def.generation));
    h.write_str(match def.environment {
        workloads::Environment::SingleThreaded => "single-threaded",
        workloads::Environment::MultiThreaded => "multi-threaded",
    });
    let benchmarks = (def.benchmarks)();
    h.write_usize(benchmarks.len());
    for b in &benchmarks {
        h.write_str(b.name());
        h.write_f64(b.weight());
        h.write_usize(b.phases().len());
        for p in b.phases() {
            h.write_str(p.name());
            h.write_f64(p.weight());
            for e in perfcounters::EventId::ALL {
                match p.spec(e) {
                    EventSpec::Independent(d) => {
                        h.write_bool(false);
                        h.write_f64(d.mean);
                        h.write_f64(d.cv);
                    }
                    EventSpec::Linked { source, ratio, cv } => {
                        h.write_bool(true);
                        h.write_usize(source.index());
                        h.write_f64(ratio);
                        h.write_f64(cv);
                    }
                }
            }
        }
    }
    h.finish()
}

/// Content fingerprint of a dataset's full observable state (samples,
/// labels, name table), bit-exact over every float. Used to key stages
/// whose input is an externally supplied dataset (e.g. `specrepro fit
/// --data file.csv`) rather than a generated one.
pub fn dataset_content_fingerprint(data: &perfcounters::Dataset) -> Fingerprint {
    let mut h = FingerprintHasher::new("dataset-content");
    h.write_usize(data.benchmark_count());
    for name in data.benchmark_names() {
        h.write_str(name);
    }
    h.write_usize(data.len());
    let cols = data.columns();
    for &cpi in cols.cpi() {
        h.write_f64(cpi);
    }
    for e in perfcounters::EventId::ALL {
        for &v in cols.event(e) {
            h.write_f64(v);
        }
    }
    for i in 0..data.len() {
        h.write_u32(data.label(i));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use modeltree::M5Config;
    use workloads::generator::GeneratorConfig;

    fn fp<T: Fingerprintable>(domain: &str, v: &T) -> Fingerprint {
        let mut h = FingerprintHasher::new(domain);
        v.fingerprint_into(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_calls() {
        let c = M5Config::default();
        assert_eq!(fp("t", &c), fp("t", &c));
    }

    #[test]
    fn domain_separates() {
        let c = M5Config::default();
        assert_ne!(fp("tree", &c), fp("dataset", &c));
    }

    #[test]
    fn every_m5_field_changes_key() {
        let base = M5Config::default();
        let variants = [
            base.with_min_leaf(5),
            M5Config {
                min_split: 10,
                ..base
            },
            base.with_sd_fraction(0.06),
            base.with_max_depth(7),
            base.with_prune(false),
            base.with_pruning_multiplier(1.5),
            base.with_attribute_elimination(false),
            base.with_smoothing(false),
            M5Config {
                smoothing_k: 16.0,
                ..base
            },
        ];
        let k0 = fp("t", &base);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(k0, fp("t", v), "variant {i} did not change the key");
        }
    }

    #[test]
    fn n_threads_is_not_part_of_the_key() {
        let a = M5Config::default().with_n_threads(1);
        let b = M5Config::default().with_n_threads(8);
        assert_eq!(fp("t", &a), fp("t", &b));
    }

    #[test]
    fn generator_config_fields_change_key() {
        let base = GeneratorConfig::default();
        let mut noise = base;
        noise.cost.noise_sigma = 0.05;
        let mut cont = base;
        cont.cost.contention = 1.5;
        let mut mux = base;
        mux.counters.multiplexing_noise = false;
        let k0 = fp("d", &base);
        for v in [&noise, &cont, &mux] {
            assert_ne!(k0, fp("d", v));
        }
    }

    #[test]
    fn float_bit_sensitivity() {
        let mut a = FingerprintHasher::new("x");
        a.write_f64(0.0);
        let mut b = FingerprintHasher::new("x");
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_rendering() {
        let k = FingerprintHasher::new("x").finish();
        let hex = k.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, format!("{k}"));
    }

    #[test]
    fn dataset_content_fingerprint_sensitive() {
        use perfcounters::{Dataset, EventId, Sample};
        let mut a = Dataset::new();
        let l = a.add_benchmark("x");
        a.push(Sample::zeros(1.0), l);
        let mut b = a.clone();
        let mut s = Sample::zeros(1.0);
        s.set(EventId::Load, 1e-9);
        b.push(s, l);
        assert_ne!(
            dataset_content_fingerprint(&a),
            dataset_content_fingerprint(&b)
        );
        assert_eq!(
            dataset_content_fingerprint(&a),
            dataset_content_fingerprint(&a.clone())
        );
    }

    #[test]
    fn hex_round_trip() {
        for fp in [
            Fingerprint(0),
            Fingerprint(1),
            Fingerprint(u128::MAX),
            Fingerprint(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210),
        ] {
            assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        }
        assert_eq!(Fingerprint::from_hex("ABCDEF"), Some(Fingerprint(0xabcdef)));
        assert_eq!(Fingerprint::from_hex(""), None);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(&"f".repeat(33)), None);
        assert_eq!(Fingerprint::from_hex("0x12"), None);
    }
}
