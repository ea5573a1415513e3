//! Consuming engine profiles in the bench harness.
//!
//! The engine's `--profile-json` output (see `blossom_core::obs`) is a
//! stable, versioned schema; this module is the harness-side consumer:
//! a key-presence validator the verify script and tests run against real
//! profiles.

use blossom_core::PROFILE_SCHEMA_VERSION;

/// Top-level keys every current-version profile must contain.
pub const PROFILE_KEYS: &[&str] = &[
    "blossom_profile",
    "query",
    "strategy",
    "fallbacks",
    "operators",
    "totals",
    "phases_us",
    "cache",
    "counters_enabled",
];

/// Check that `json` looks like a current-version profile: every schema
/// key is present and the version stamp matches [`PROFILE_SCHEMA_VERSION`].
pub fn validate_profile_json(json: &str) -> Result<(), String> {
    for key in PROFILE_KEYS {
        if !json.contains(&format!("\"{key}\"")) {
            return Err(format!("profile JSON is missing key {key:?}"));
        }
    }
    let stamp = format!("\"blossom_profile\": {PROFILE_SCHEMA_VERSION}");
    if !json.contains(&stamp) {
        return Err(format!("profile JSON does not carry schema version {PROFILE_SCHEMA_VERSION}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blossom_core::{Engine, EngineOptions, Strategy};

    fn traced_engine() -> Engine {
        Engine::with_options(
            blossom_xml::Document::parse_str("<r><a><b/></a><a/></r>").unwrap(),
            EngineOptions { trace: true, ..EngineOptions::default() },
        )
    }

    #[test]
    fn real_profiles_validate() {
        let engine = traced_engine();
        let (_, trace) = engine.eval_path_traced("//a//b", Strategy::Auto).unwrap();
        validate_profile_json(&trace.to_json()).unwrap();
    }

    #[test]
    fn missing_keys_are_reported() {
        let err = validate_profile_json("{}").unwrap_err();
        assert!(err.contains("blossom_profile"), "{err}");
    }
}
