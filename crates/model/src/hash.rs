//! Cheap, deterministic 128-bit structural hashing of instances, specs
//! and outcomes.
//!
//! The batch engine memoizes solve outcomes keyed on *(instance, spec)*,
//! serve quarantines requests by the same key, and repro bundles record
//! outcome digests. Every scalar of the value (f64 bit patterns, lengths,
//! enum variant indices) is fed into two independently mixed 64-bit
//! lanes; the resulting 128-bit digest is:
//!
//! * **deterministic across runs and processes** (fixed seeds, no
//!   `RandomState`), so cache behavior is reproducible;
//! * **structure-sensitive**: lengths and variant indices are hashed
//!   before their payloads, so `[1.0, 2.0] ++ []` and `[1.0] ++ [2.0]`
//!   differ, as do `None` and `Some(0)`;
//! * **collision-safe in practice**: with two independent 64-bit lanes a
//!   false cache hit needs a full 128-bit collision between two *live*
//!   keys — probability ≈ `k²/2^129` for `k` cached entries, i.e.
//!   negligible next to cosmic-ray rates for any feasible cache size.
//!   (The hash is *not* adversarially secure; the cache is a performance
//!   device over the caller's own workload, not a trust boundary.)
//!
//! # Derivation rule
//!
//! The digest stream is derived from each type's `#[derive(Serialize)]`:
//! `&mut StructuralHasher` is a [`serde::Serializer`], so a field added to
//! a type enters its digest with no hashing code to update. The stream:
//!
//! * integers → [`StructuralHasher::write_u64`], `bool` →
//!   [`StructuralHasher::write_bool`], `f64` → [`StructuralHasher::write_f64`]
//!   (bit pattern: `-0.0 ≠ 0.0`, NaN payloads distinct), strings →
//!   [`StructuralHasher::write_str`];
//! * `None` → `0`; `Some(v)` → `1`, then `v`;
//! * sequences and maps write their length before their items;
//! * enums write their variant index before their payload;
//! * struct, field and variant names are not hashed (renaming a field
//!   keeps digests; reordering fields or variants changes them).
//!
//! **The single exclusion:** fields marked `#[serde(skip_serializing)]`
//! stay out of the digest. Today that is only `Application::work_prefix`,
//! a prefix-sum cache derived from the stages.

use crate::application::AppSet;
use crate::platform::Platform;
use crate::spec::{ProblemSpec, SolveOutcome};
use serde::ser::{self, Serialize};
use std::fmt;

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Two-lane structural hasher (see the module docs).
#[derive(Debug, Clone)]
pub struct StructuralHasher {
    a: u64,
    b: u64,
}

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher::new()
    }
}

impl StructuralHasher {
    /// Fresh hasher with the fixed seeds.
    pub fn new() -> Self {
        StructuralHasher { a: 0x9E37_79B9_7F4A_7C15, b: 0xC2B2_AE3D_27D4_EB4F }
    }

    /// Feed one 64-bit word.
    pub fn write_u64(&mut self, v: u64) {
        self.a = mix(self.a ^ v);
        self.b = mix(self.b.rotate_left(23) ^ v.wrapping_mul(0xA24B_AED4_963E_E407));
    }

    /// Feed an f64 by bit pattern (`-0.0 ≠ 0.0`, NaN payloads distinct —
    /// exactly the distinctions bitwise-deterministic solvers care about).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feed a length / index.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feed a bool.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Feed a string (length-prefixed, 8 bytes per word).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feed a byte string (length-prefixed, 8 bytes per word).
    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// Error from the hashing serializer. Derived `Serialize` impls never
/// raise it; only a hand-written impl calling [`ser::Error::custom`] or a
/// sequence of unknown length can.
#[derive(Debug)]
pub struct HashError(String);

impl fmt::Display for HashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot hash: {}", self.0)
    }
}

impl std::error::Error for HashError {}

impl ser::Error for HashError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        HashError(msg.to_string())
    }
}

type Hashed = Result<(), HashError>;

/// Integers and `char`s hash as one word, `v as u64` (signed integers
/// sign-extend).
macro_rules! hash_words {
    ($($method:ident: $t:ty),* $(,)?) => {$(
        fn $method(self, v: $t) -> Hashed {
            self.write_u64(v as u64);
            Ok(())
        }
    )*};
}

/// The derivation rule of the module docs, as a serde data format.
impl ser::Serializer for &mut StructuralHasher {
    type Ok = ();
    type Error = HashError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Hashed {
        self.write_bool(v);
        Ok(())
    }
    hash_words! {
        serialize_i8: i8,
        serialize_i16: i16,
        serialize_i32: i32,
        serialize_i64: i64,
        serialize_u8: u8,
        serialize_u16: u16,
        serialize_u32: u32,
        serialize_u64: u64,
        serialize_char: char,
    }
    fn serialize_f32(self, v: f32) -> Hashed {
        self.serialize_f64(v.into())
    }
    fn serialize_f64(self, v: f64) -> Hashed {
        self.write_f64(v);
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Hashed {
        self.write_str(v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Hashed {
        self.write_bytes(v);
        Ok(())
    }
    fn serialize_none(self) -> Hashed {
        self.serialize_u64(0)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Hashed {
        self.write_u64(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Hashed {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Hashed {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        index: u32,
        _variant: &'static str,
    ) -> Hashed {
        self.serialize_u32(index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Hashed {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Hashed {
        self.write_u64(index.into());
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, HashError> {
        self.write_usize(len.ok_or_else(|| HashError("sequence of unknown length".into()))?);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, HashError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, HashError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, HashError> {
        self.write_u64(index.into());
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, HashError> {
        self.serialize_seq(len)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, HashError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, HashError> {
        self.write_u64(index.into());
        Ok(self)
    }
}

/// The compound halves: every element, field, key and value is hashed in
/// order; names are not.
macro_rules! hash_compound {
    ($($compound:ident :: $method:ident ($($name:ident)?)),* $(,)?) => {$(
        impl ser::$compound for &mut StructuralHasher {
            type Ok = ();
            type Error = HashError;
            fn $method<T: Serialize + ?Sized>(
                &mut self,
                $($name: &'static str,)?
                value: &T,
            ) -> Hashed {
                value.serialize(&mut **self)
            }
            fn end(self) -> Hashed {
                Ok(())
            }
        }
    )*};
}

hash_compound! {
    SerializeSeq::serialize_element(),
    SerializeTuple::serialize_element(),
    SerializeTupleStruct::serialize_field(),
    SerializeTupleVariant::serialize_field(),
    SerializeStruct::serialize_field(_field),
    SerializeStructVariant::serialize_field(_field),
}

impl ser::SerializeMap for &mut StructuralHasher {
    type Ok = ();
    type Error = HashError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Hashed {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Hashed {
        value.serialize(&mut **self)
    }
    fn end(self) -> Hashed {
        Ok(())
    }
}

/// 128-bit digest of any serializable value, by the derivation rule.
fn digest<T: Serialize + ?Sized>(value: &T) -> u128 {
    let mut h = StructuralHasher::new();
    value.serialize(&mut h).expect("derived Serialize impls always hash");
    h.finish()
}

/// 128-bit digest of an instance (applications + platform).
pub fn hash_instance(apps: &AppSet, platform: &Platform) -> u128 {
    // A tuple hashes as its elements back to back (no length word).
    digest(&(apps, platform))
}

/// 128-bit digest of a problem spec.
pub fn hash_spec(spec: &ProblemSpec) -> u128 {
    digest(spec)
}

/// 128-bit digest of a solve outcome — every field bitwise (objectives and
/// front points by f64 bit pattern, mappings structurally), so two
/// outcomes digest equal iff they are bit-for-bit the same answer. This is
/// what repro bundles record and what `replay` compares: it survives NaN
/// contamination that JSON round-trips cannot represent.
pub fn hash_outcome(outcome: &SolveOutcome) -> u128 {
    digest(outcome)
}

/// Canonical lower-hex rendering of a 128-bit digest (for bundles, file
/// names and structured panic reasons).
pub fn digest_hex(d: u128) -> String {
    format!("{d:032x}")
}

/// Parse [`digest_hex`] output back (accepts an optional `0x` prefix).
pub fn parse_digest_hex(s: &str) -> Option<u128> {
    u128::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::CommModel;
    use crate::generator::section2_example;
    use crate::io::json_value::{from_value, to_value, Value};
    use crate::mapping::{Interval, Mapping};
    use crate::objective::Thresholds;
    use crate::platform::{Links, Processor};
    use crate::replication::{ReplicatedAssignment, ReplicatedMapping};
    use crate::spec::{FrontEntry, Objective, SolvedMapping, SolvedPoint, SolverHints, Strategy};
    use crate::topology::{CommTopology, MultistageNetwork};
    use serde::de::DeserializeOwned;

    fn spec() -> ProblemSpec {
        ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.5])
    }

    #[test]
    fn equal_values_hash_equal() {
        let (apps, pf) = section2_example();
        assert_eq!(hash_instance(&apps, &pf), hash_instance(&apps.clone(), &pf.clone()));
        assert_eq!(hash_spec(&spec()), hash_spec(&spec()));
    }

    /// Replace leaf `target` (depth-first order over number, bool and
    /// string leaves) with a different value of the same JSON type.
    /// Returns `false` once `target` is past the last leaf.
    fn perturb_leaf(v: &mut Value, target: &mut usize) -> bool {
        let hit = |target: &mut usize| std::mem::replace(target, target.wrapping_sub(1)) == 0;
        match v {
            Value::Null => false,
            Value::Num(x) => {
                hit(target) && {
                    *x = *x * 2.0 + 1.0;
                    true
                }
            }
            Value::Bool(b) => {
                hit(target) && {
                    *b = !*b;
                    true
                }
            }
            Value::Str(s) => {
                hit(target) && {
                    s.push('x');
                    true
                }
            }
            Value::Arr(items) => items.iter_mut().any(|item| perturb_leaf(item, target)),
            Value::Obj(map) => map.values_mut().any(|item| perturb_leaf(item, target)),
        }
    }

    /// Perturb every leaf of `value`'s JSON form in turn and assert each
    /// perturbation that still deserializes changes the digest. Returns
    /// how many leaves were skipped because the deserializers reject the
    /// perturbed form (a unit variant's name no longer names a variant).
    fn assert_every_leaf_is_hashed<T: Serialize + DeserializeOwned + fmt::Debug>(
        value: &T,
    ) -> usize {
        let base = digest(value);
        let tree = to_value(value).expect("renders");
        let (mut checked, mut skipped) = (0, 0);
        for leaf in 0.. {
            let mut perturbed = tree.clone();
            if !perturb_leaf(&mut perturbed, &mut leaf.clone()) {
                break;
            }
            match from_value::<T>(perturbed) {
                Ok(changed) => {
                    assert_ne!(digest(&changed), base, "leaf {leaf} of {value:?} is not hashed");
                    checked += 1;
                }
                Err(_) => skipped += 1,
            }
        }
        assert!(checked > 0, "no leaf of {value:?} was checked");
        skipped
    }

    #[test]
    fn every_serialized_leaf_enters_the_digest() {
        let (mut apps, pf) = section2_example();
        apps.apps[0].name = "renamed".into();
        let procs =
            vec![Processor::new(vec![1.0, 2.0]).unwrap(), Processor::new(vec![3.0]).unwrap()];
        let hetero = Platform::new(
            procs.clone(),
            Links::Heterogeneous {
                inter: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
                input: vec![vec![1.0, 1.5], vec![2.0, 2.5]],
                output: vec![vec![3.0, 3.5], vec![4.0, 4.5]],
            },
        )
        .unwrap();
        let per_app = Platform::new(procs, Links::PerApp(vec![1.0, 2.0])).unwrap();
        let multistage = pf
            .clone()
            .with_topology(CommTopology::Multistage(MultistageNetwork::new(1.0, 0.25).unwrap()))
            .unwrap();
        let mut full_spec = spec();
        full_spec.constraints = Thresholds {
            period: Some(vec![2.0, 2.5]),
            latency: Some(vec![9.0]),
            energy: Some(40.0),
        };
        full_spec.hints = SolverHints {
            exact_fallback: true,
            heuristic_fallback: false,
            sweep_threads: Some(2),
            local_search_iterations: Some(100),
            seed: Some(7),
        };
        let mapping = Mapping::new().with(Interval::new(0, 0, 2), 0, 1);
        let plain = SolvedMapping::Plain(mapping.with(Interval::new(1, 0, 3), 2, 0));
        let replicated = SolvedMapping::Replicated(ReplicatedMapping {
            assignments: vec![ReplicatedAssignment {
                interval: Interval::new(0, 1, 2),
                procs: vec![0, 2],
                modes: vec![1, 0],
            }],
        });
        let outcomes = [
            SolveOutcome::Solution(SolvedPoint { objective: 46.0, mapping: plain.clone() }),
            SolveOutcome::Front(vec![
                FrontEntry { achieved: 2.0, objective: 46.0, mapping: plain },
                FrontEntry { achieved: 3.0, objective: 30.0, mapping: replicated },
            ]),
            SolveOutcome::Infeasible { reason: "period bound too tight".into() },
            SolveOutcome::Unsupported { reason: "no solver".into() },
        ];

        // Only unit-variant names are skipped: `Dedicated` in a platform,
        // objective/strategy/comm in a spec. Every other leaf is checked.
        assert_eq!(assert_every_leaf_is_hashed(&apps), 0);
        for p in [&pf, &hetero, &per_app] {
            assert_eq!(assert_every_leaf_is_hashed(p), 1);
        }
        assert_eq!(assert_every_leaf_is_hashed(&multistage), 0);
        assert_eq!(assert_every_leaf_is_hashed(&full_spec), 3);
        for o in &outcomes {
            assert_eq!(assert_every_leaf_is_hashed(o), 0);
        }
    }

    #[test]
    fn structure_is_not_flattened_away() {
        // Moving a value across a boundary must change the digest even
        // though the flat scalar stream would look similar.
        let split = |period: Vec<f64>, latency: Vec<f64>| {
            hash_spec(&ProblemSpec {
                constraints: Thresholds {
                    period: Some(period),
                    latency: Some(latency),
                    energy: None,
                },
                ..spec()
            })
        };
        assert_ne!(split(vec![1.0, 2.0], vec![]), split(vec![1.0], vec![2.0]));

        let energy = |energy: Option<f64>| {
            hash_spec(&ProblemSpec {
                constraints: Thresholds { energy, ..Thresholds::none() },
                ..spec()
            })
        };
        assert_ne!(energy(None), energy(Some(0.0)));
    }

    #[test]
    fn topology_variants_produce_distinct_digests() {
        let (apps, pf) = section2_example();
        let dedicated = hash_instance(&apps, &pf);

        let net = MultistageNetwork::new(1.0, 0.0).unwrap();
        let ms = pf.clone().with_topology(CommTopology::Multistage(net)).unwrap();
        let multistage = hash_instance(&apps, &ms);
        assert_ne!(dedicated, multistage, "topology tag must enter the digest");

        // Same -0.0 / NaN bit discipline as the Links fields: hop
        // latencies 0.0 and -0.0 are distinct digests, and NaN hashes
        // stably by bit pattern.
        let mut neg = ms.clone();
        neg.topology =
            CommTopology::Multistage(MultistageNetwork { link_bandwidth: 1.0, hop_latency: -0.0 });
        assert_ne!(hash_instance(&apps, &neg), multistage);
        let nan = CommTopology::Multistage(MultistageNetwork {
            link_bandwidth: 1.0,
            hop_latency: f64::NAN,
        });
        assert_eq!(digest(&nan), digest(&nan.clone()), "NaN hashes by bit pattern");
    }

    #[test]
    fn zero_and_negative_zero_differ() {
        assert_ne!(digest(&0.0f64), digest(&-0.0f64));
    }
}
