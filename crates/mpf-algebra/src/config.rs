//! Typed parsing for the engine's environment knobs.
//!
//! The engine reads two environment variables, here and nowhere else:
//! `MPF_THREADS` (worker threads, [`default_threads`]) and
//! `MPF_CACHE_BYTES` (the engine view-cache byte budget,
//! [`cache_bytes_from_env`]). Both are read and parsed once per process
//! and cached, so building a context or a planner config on a hot query
//! path costs no environment lookup and no `available_parallelism()`
//! probe.
//!
//! Every read parses strictly. The runtime defaults then take the
//! knob's default when its value does not parse, so a library user's hot
//! path never errors on configuration; a *service* should instead refuse
//! to start on a knob it cannot honor. [`validate_env`] is that startup
//! check: it returns a typed [`ConfigError`] naming the variable, the
//! rejected value, and what would have been accepted.
//! `Database::from_env` and the `mpf_serve` binary call it before serving
//! anything.
//!
//! Representation choice (rows, sparse, dense) is not an environment
//! knob: it is cost-based by default and set only through the Rust API
//! ([`crate::ReprMode`] on contexts, planner configs, and databases).

use std::sync::OnceLock;

/// A configuration knob held a value that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable (e.g. `MPF_THREADS`).
    pub var: String,
    /// The rejected value, verbatim.
    pub value: String,
    /// What the knob accepts, for the error message.
    pub expected: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}=`{}`: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// Environment knobs validated at service startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnvKnobs {
    /// `MPF_THREADS`, when set and valid.
    pub threads: Option<usize>,
    /// `MPF_CACHE_BYTES`, when set and valid (`0` disables the cache).
    pub cache_bytes: Option<u64>,
}

/// Parse an `MPF_THREADS` value: a positive integer.
pub fn parse_threads(value: &str) -> Result<usize, ConfigError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ConfigError {
            var: "MPF_THREADS".into(),
            value: value.into(),
            expected: "a positive integer",
        }),
    }
}

/// Parse an `MPF_CACHE_BYTES` value: a non-negative integer byte count,
/// optionally with a binary `k`/`m`/`g` suffix (`64m` = 64 MiB). `0`
/// disables the engine view cache.
pub fn parse_cache_bytes(value: &str) -> Result<u64, ConfigError> {
    let err = || ConfigError {
        var: "MPF_CACHE_BYTES".into(),
        value: value.into(),
        expected: "a non-negative byte count, optionally with a k/m/g suffix",
    };
    let t = value.trim().to_ascii_lowercase();
    let (digits, shift) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 10u32),
        Some(b'm') => (&t[..t.len() - 1], 20),
        Some(b'g') => (&t[..t.len() - 1], 30),
        _ => (t.as_str(), 0),
    };
    // A bare suffix (`k`) or anything non-numeric is rejected; so is a
    // count that overflows u64 once scaled.
    let n: u64 = if digits.is_empty() {
        return Err(err());
    } else {
        digits.parse().map_err(|_| err())?
    };
    n.checked_shl(shift)
        .filter(|scaled| scaled >> shift == n)
        .ok_or_else(err)
}

/// Each knob as strictly parsed from the environment: unset is
/// `Ok(None)`, malformed is the typed error.
#[derive(Debug)]
struct Env {
    threads: Result<Option<usize>, ConfigError>,
    cache_bytes: Result<Option<u64>, ConfigError>,
    /// The machine's available parallelism, probed once.
    machine_threads: usize,
}

/// The process-wide environment read, done on first use.
fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        fn read<T>(
            var: &str,
            parse: fn(&str) -> Result<T, ConfigError>,
        ) -> Result<Option<T>, ConfigError> {
            std::env::var(var).ok().map(|v| parse(&v)).transpose()
        }
        Env {
            threads: read("MPF_THREADS", parse_threads),
            cache_bytes: read("MPF_CACHE_BYTES", parse_cache_bytes),
            machine_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// Worker threads used when [`crate::ExecLimits::threads`] is unset:
/// `MPF_THREADS` when it parses, else the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    let env = env();
    env.threads
        .as_ref()
        .ok()
        .copied()
        .flatten()
        .unwrap_or(env.machine_threads)
}

/// The view-cache byte budget for runtime defaults: `MPF_CACHE_BYTES`
/// when it parses, else `0` (cache disabled).
pub fn cache_bytes_from_env() -> u64 {
    env()
        .cache_bytes
        .as_ref()
        .ok()
        .copied()
        .flatten()
        .unwrap_or(0)
}

/// Every environment knob, rejecting a malformed value instead of
/// falling back. Unset variables are fine (`None`).
pub fn validate_env() -> Result<EnvKnobs, ConfigError> {
    let env = env();
    Ok(EnvKnobs {
        threads: env.threads.clone()?,
        cache_bytes: env.cache_bytes.clone()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1").unwrap(), 1);
        assert_eq!(parse_threads(" 8 ").unwrap(), 8);
    }

    #[test]
    fn threads_rejects_malformed_values() {
        for bad in ["0", "-2", "four", "", "1.5", "0x4"] {
            let e = parse_threads(bad).unwrap_err();
            assert_eq!(e.var, "MPF_THREADS");
            assert_eq!(e.value, bad);
            assert!(e.to_string().contains("positive integer"), "{e}");
        }
    }

    #[test]
    fn cache_bytes_accepts_counts_and_suffixes() {
        assert_eq!(parse_cache_bytes("0").unwrap(), 0);
        assert_eq!(parse_cache_bytes(" 4096 ").unwrap(), 4096);
        assert_eq!(parse_cache_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_cache_bytes("64M").unwrap(), 64 << 20);
        assert_eq!(parse_cache_bytes("2g").unwrap(), 2 << 30);
    }

    #[test]
    fn cache_bytes_rejects_malformed_values() {
        for bad in ["", "k", "-1", "lots", "1.5m", "99999999999999999999g"] {
            let e = parse_cache_bytes(bad).unwrap_err();
            assert_eq!(e.var, "MPF_CACHE_BYTES");
            assert_eq!(e.value, bad);
            assert!(e.to_string().contains("byte count"), "{e}");
        }
        // Overflow after scaling, not just in the digits.
        assert!(parse_cache_bytes("18446744073709551615k").is_err());
    }

}
