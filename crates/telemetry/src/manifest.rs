//! Run provenance manifests.
//!
//! Every traced run opens its stream with one
//! `{"type":"run_manifest",...}` line describing *what produced the
//! bytes that follow*: manifest schema version, master seed, scheme
//! name, a fingerprint of the semantic training configuration, the
//! resolved worker count, the trace mode (full or digest), the fleet
//! size, and the build profile. The read side
//! ([`crate::analyze::Trace`]) collects these into
//! [`crate::analyze::Trace::manifests`], and cross-run comparison
//! ([`crate::diff`]) refuses to diff traces whose manifests are
//! [incompatible](RunManifest::compatible) — comparing a seed-7 HELCFL
//! run against a seed-9 FedCS run produces numbers, but not evidence.
//!
//! Identity versus environment: a [`RunIdentity`] (`seed`, `scheme`,
//! `config_fingerprint`, `fleet_size`) defines the *experiment*, and
//! [`RunIdentity::first_difference`] is the one place that decides
//! whether two runs are the same experiment: trace diffs and checkpoint
//! resume both ask it, each wording the refusal its own way. `threads`,
//! `trace_mode`, and `build_profile` describe *how it was recorded* —
//! histories are bit-identical across all three by construction, so
//! they are allowed to differ (that is exactly the comparison a perf
//! investigation wants: same experiment, different environment).

use crate::json::{FieldError, JsonObject, JsonValue};

/// Version of the `run_manifest` line format. Bump on any breaking
/// change to the field set; readers refuse to compare across versions.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit hash, rendered as 16 lowercase hex digits.
///
/// The workspace's standard cheap fingerprint (the fault-determinism
/// suite pins histories with the same function); used here to reduce a
/// training configuration to a comparable token.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The fields that name an experiment: two runs that agree on all four
/// ran the same experiment, whatever their environment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunIdentity {
    /// Master seed of the run.
    pub seed: u64,
    /// Scheme / selector name (`"helcfl"`, `"fedcs"`, …).
    pub scheme: String,
    /// Fingerprint over the semantic training configuration (fields
    /// that change the simulated experiment; trace shape, worker count,
    /// and the seed itself are excluded).
    pub config_fingerprint: String,
    /// Device population size.
    pub fleet_size: usize,
}

impl RunIdentity {
    /// The first identity field on which `self` and `other` differ, in
    /// the order `seed`, `scheme`, `config_fingerprint`, `fleet_size`,
    /// as `(field, self's value, other's value)`; `None` when both name
    /// the same experiment. Callers word the refusal around it.
    pub fn first_difference(&self, other: &Self) -> Option<(&'static str, String, String)> {
        let fields = [
            ("seed", self.seed.to_string(), other.seed.to_string()),
            ("scheme", format!("{:?}", self.scheme), format!("{:?}", other.scheme)),
            (
                "config_fingerprint",
                self.config_fingerprint.clone(),
                other.config_fingerprint.clone(),
            ),
            ("fleet_size", self.fleet_size.to_string(), other.fleet_size.to_string()),
        ];
        fields.into_iter().find(|(_, a, b)| a != b)
    }
}

/// Provenance of one traced run. See the module docs for which fields
/// are identity and which are environment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// [`MANIFEST_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// The experiment the run belongs to.
    pub identity: RunIdentity,
    /// Resolved worker-thread count (environment; may differ).
    pub threads: usize,
    /// `"full"` or `"digest"` (environment; may differ).
    pub trace_mode: String,
    /// `"release"` or `"debug"` (environment; may differ).
    pub build_profile: String,
    /// Checkpoint lineage: the FNV-1a checksum of the checkpoint this
    /// run resumed from, absent for uninterrupted runs. Lineage
    /// describes *how the bytes were produced*, not what experiment
    /// they describe — a resumed run is pinned bit-identical to the
    /// uninterrupted one, so lineage never affects
    /// [`RunManifest::compatible`].
    pub resumed_from: Option<String>,
    /// First round the resumed process executed (1-based), absent for
    /// uninterrupted runs.
    pub start_round: Option<u64>,
}

impl RunManifest {
    /// Renders the manifest as its one JSONL trace line.
    pub fn to_json_line(&self) -> String {
        let id = &self.identity;
        let mut o = JsonObject::new();
        o.field("type", "run_manifest")
            .field("schema_version", u64::from(self.schema_version))
            .field("seed", id.seed)
            .field("scheme", &id.scheme)
            .field("config_fingerprint", &id.config_fingerprint)
            .field("threads", self.threads)
            .field("trace_mode", &self.trace_mode)
            .field("fleet_size", id.fleet_size)
            .field("build_profile", &self.build_profile);
        if let Some(resumed_from) = &self.resumed_from {
            o.field("resumed_from", resumed_from);
        }
        if let Some(start_round) = self.start_round {
            o.field("start_round", start_round);
        }
        o.finish()
    }

    /// Decodes a parsed `run_manifest` JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        Self::read(v).map_err(|e| format!("run_manifest: {e}"))
    }

    fn read(v: &JsonValue) -> Result<Self, FieldError> {
        let text = |key| v.field::<&str>(key).map(str::to_string);
        Ok(Self {
            schema_version: v.field("schema_version")?,
            identity: RunIdentity {
                seed: v.field("seed")?,
                scheme: text("scheme")?,
                config_fingerprint: text("config_fingerprint")?,
                fleet_size: v.field("fleet_size")?,
            },
            threads: v.field("threads")?,
            trace_mode: text("trace_mode")?,
            build_profile: text("build_profile")?,
            // Lineage fields are optional: pre-checkpoint traces (and
            // every uninterrupted run) simply don't carry them.
            resumed_from: v.optional::<&str>("resumed_from")?.map(str::to_string),
            start_round: v.optional("start_round")?,
        })
    }

    /// Whether two runs are comparable, i.e. describe the same
    /// experiment.
    ///
    /// The schema version and the [`RunIdentity`] must match;
    /// environment fields (`threads`, `trace_mode`, `build_profile`)
    /// may differ —
    /// histories are pinned bit-identical across those by the
    /// determinism suites, so comparing them is the point.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatched identity field and
    /// both values.
    pub fn compatible(&self, other: &RunManifest) -> Result<(), String> {
        if self.schema_version != other.schema_version {
            return Err(format!(
                "schema_version differs: baseline v{}, candidate v{}",
                self.schema_version, other.schema_version
            ));
        }
        match self.identity.first_difference(&other.identity) {
            Some((field, baseline, candidate)) => Err(format!(
                "{field} differs: baseline {baseline}, candidate {candidate}"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn manifest() -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            identity: RunIdentity {
                seed: 42,
                scheme: "helcfl".to_string(),
                config_fingerprint: "deadbeefdeadbeef".to_string(),
                fleet_size: 100,
            },
            threads: 4,
            trace_mode: "full".to_string(),
            build_profile: "release".to_string(),
            resumed_from: None,
            start_round: None,
        }
    }

    #[test]
    fn json_line_round_trips() {
        let m = manifest();
        let line = m.to_json_line();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("run_manifest"));
        let back = RunManifest::from_json(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn decode_names_the_missing_field() {
        let line = manifest().to_json_line().replace("\"seed\":42,", "");
        let v = parse(&line).unwrap();
        let err = RunManifest::from_json(&v).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn every_missing_or_ill_typed_field_is_refused_by_name() {
        let mut m = manifest();
        m.resumed_from = Some("deadbeefdeadbeef".to_string());
        m.start_round = Some(17);
        let v = parse(&m.to_json_line()).unwrap();
        for (key, without, wrong) in crate::json::corruptions(&v) {
            if key == "type" {
                continue; // the trace reader dispatches on it
            }
            let named = |err: String| assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
            match RunManifest::from_json(&without) {
                // Lineage is absent from every uninterrupted run.
                Ok(_) => assert!(key == "resumed_from" || key == "start_round", "{key}"),
                Err(err) => named(err),
            }
            named(RunManifest::from_json(&wrong).unwrap_err());
        }
    }

    #[test]
    fn a_schema_version_beyond_u32_is_refused_not_truncated() {
        let line = manifest()
            .to_json_line()
            .replace("\"schema_version\":1,", "\"schema_version\":4294967297,");
        let err = RunManifest::from_json(&parse(&line).unwrap()).unwrap_err();
        assert!(err.contains("\"schema_version\""), "{err}");
    }

    #[test]
    fn identity_mismatches_are_refused_by_name() {
        let base = manifest();
        type Mutator = Box<dyn Fn(&mut RunManifest)>;
        let cases: [(&str, Mutator); 5] = [
            ("schema_version", Box::new(|m| m.schema_version = 2)),
            ("seed", Box::new(|m| m.identity.seed = 7)),
            ("scheme", Box::new(|m| m.identity.scheme = "fedcs".to_string())),
            ("config_fingerprint", Box::new(|m| {
                m.identity.config_fingerprint = "0000000000000000".to_string();
            })),
            ("fleet_size", Box::new(|m| m.identity.fleet_size = 99)),
        ];
        for (field, mutate) in cases {
            let mut other = base.clone();
            mutate(&mut other);
            let err = base.compatible(&other).unwrap_err();
            assert!(err.contains(field), "field {field} not named in {err:?}");
        }
    }

    #[test]
    fn environment_differences_stay_compatible() {
        let base = manifest();
        let mut other = base.clone();
        other.threads = 8;
        other.trace_mode = "digest".to_string();
        other.build_profile = "debug".to_string();
        assert!(base.compatible(&other).is_ok());
        assert!(other.compatible(&base).is_ok());
    }

    #[test]
    fn lineage_round_trips_and_never_breaks_compatibility() {
        let mut resumed = manifest();
        resumed.resumed_from = Some("deadbeefdeadbeef".to_string());
        resumed.start_round = Some(17);
        let line = resumed.to_json_line();
        let back = RunManifest::from_json(&parse(&line).unwrap()).unwrap();
        assert_eq!(back, resumed);
        // Resumed-vs-uninterrupted is exactly the comparison the chaos
        // harness makes: lineage is provenance, not identity.
        let uninterrupted = manifest();
        assert!(resumed.compatible(&uninterrupted).is_ok());
        assert!(uninterrupted.compatible(&resumed).is_ok());
        // A pre-lineage line (no fields) parses to None, not an error.
        assert_eq!(back.resumed_from.as_deref(), Some("deadbeefdeadbeef"));
        let old = manifest().to_json_line();
        let old_back = RunManifest::from_json(&parse(&old).unwrap()).unwrap();
        assert_eq!(old_back.resumed_from, None);
        assert_eq!(old_back.start_round, None);
    }

    #[test]
    fn fnv_fingerprint_is_stable_and_input_sensitive() {
        // Pinned vector: FNV-1a 64 of the empty input is the offset
        // basis; any drift here silently invalidates every recorded
        // manifest.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), fnv1a_hex(b"a"));
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
    }
}
