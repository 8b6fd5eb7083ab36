//! Error types for the STKDE engine.

use std::fmt;

/// Errors from STKDE computations.
///
/// The paper's experiments hit real resource limits (PB-SYM-DR and small-
/// decomposition PB-SYM-PD-REP run out of memory on the Flu/eBird high-
/// resolution instances, Figures 8 and 14); this library surfaces those as
/// typed [`StkdeError::MemoryLimit`] errors rather than aborting, so
/// harnesses can report them the way the paper's figures do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StkdeError {
    /// The algorithm's memory requirement exceeds the configured budget.
    MemoryLimit {
        /// Bytes the algorithm would need.
        required: usize,
        /// The configured budget in bytes.
        limit: usize,
        /// What the memory is for (e.g. "domain replicas").
        what: &'static str,
    },
    /// Invalid configuration (e.g. zero threads).
    InvalidConfig(String),
    /// A rank of a distributed run broke the exchange protocol (it
    /// received a message its protocol phase does not expect).
    Comm(String),
}

impl fmt::Display for StkdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StkdeError::MemoryLimit {
                required,
                limit,
                what,
            } => write!(
                f,
                "out of memory: {what} needs {:.1} MiB but the budget is {:.1} MiB",
                *required as f64 / (1024.0 * 1024.0),
                *limit as f64 / (1024.0 * 1024.0)
            ),
            StkdeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StkdeError::Comm(msg) => write!(f, "communication failure: {msg}"),
        }
    }
}

impl std::error::Error for StkdeError {}

/// Default memory budget: `MemAvailable` from `/proc/meminfo` when
/// readable (Linux), otherwise 8 GiB.
pub(crate) fn default_memory_budget() -> usize {
    const FALLBACK: usize = 8 << 30;
    let Ok(info) = std::fs::read_to_string("/proc/meminfo") else {
        return FALLBACK;
    };
    for line in info.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<usize>().ok())
            {
                return kb * 1024;
            }
        }
    }
    FALLBACK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_memory_limit() {
        let e = StkdeError::MemoryLimit {
            required: 64 << 20,
            limit: 32 << 20,
            what: "domain replicas",
        };
        let s = e.to_string();
        assert!(s.contains("domain replicas"));
        assert!(s.contains("64.0 MiB"));
        assert!(s.contains("32.0 MiB"));
    }

    #[test]
    fn display_invalid_config() {
        let e = StkdeError::InvalidConfig("threads must be > 0".into());
        assert!(e.to_string().contains("threads"));
    }

    #[test]
    fn default_budget_positive() {
        assert!(default_memory_budget() > 0);
    }
}
