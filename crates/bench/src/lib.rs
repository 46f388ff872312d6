//! Shared helpers for the table/figure generator binaries and benches.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `table1`          | Table 1 — capacity, crosspoints, converters per model |
//! | `table2`          | Table 2 — crossbar vs multistage costs |
//! | `figures`         | Figs. 1–10 — constructions, censuses, the blocking scenario |
//! | `verify_lemmas`   | Lemmas 1–3 — brute force vs closed forms |
//! | `verify_theorems` | Theorems 1–2 — churn experiments at/below the bounds |
//! | `asymptotics`     | §3.4 — growth of `m` and crosspoints with `N` |
//!
//! CSV copies of every table land in `experiments/` at the workspace root.
//!
//! Nothing here measures a rate of the served system: throughput and
//! latency are `BENCHMARK.json`'s (the `benchmark/` package), and the
//! seeded counts the curve binaries print are pinned by `==` tests next
//! to the code that produces them.

pub mod repack_drive;

use std::path::PathBuf;

/// Directory where generator binaries drop their CSV outputs
/// (`<workspace>/experiments`). Overridable with `WDM_EXPERIMENTS_DIR`.
pub fn experiments_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("WDM_EXPERIMENTS_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench/ → workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("experiments"))
        .unwrap_or_else(|| PathBuf::from("experiments"))
}

/// Render a `BigUint` compactly: exact when short, `~10^d` when long.
pub fn compact(x: &wdm_bignum::BigUint) -> String {
    let digits = x.digit_count();
    if digits <= 15 {
        x.to_string()
    } else {
        format!("~1.{:02}e{}", first_digits(x), digits - 1)
    }
}

fn first_digits(x: &wdm_bignum::BigUint) -> u32 {
    let s = x.to_decimal_string();
    s[1..3.min(s.len())].parse().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_bignum::BigUint;

    #[test]
    fn compact_short_is_exact() {
        assert_eq!(compact(&BigUint::from(123456u64)), "123456");
    }

    #[test]
    fn compact_long_is_scientific() {
        let x = BigUint::from(10u64).pow(30).mul_u64(17); // 1.7e31
        let s = compact(&x);
        assert!(s.starts_with("~1."), "{s}");
        assert!(s.ends_with("e31"), "{s}");
    }

    #[test]
    fn experiments_dir_env_override() {
        std::env::set_var("WDM_EXPERIMENTS_DIR", "/tmp/xyz");
        assert_eq!(experiments_dir(), PathBuf::from("/tmp/xyz"));
        std::env::remove_var("WDM_EXPERIMENTS_DIR");
        assert!(experiments_dir().ends_with("experiments"));
    }
}
