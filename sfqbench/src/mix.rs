//! The `service_mixed` job mix: one splitmix64 draw per job index, so a
//! seed fixes every job's kind.

/// How many cache variants the repeat jobs cycle through.
pub const VARIANTS: u64 = 4;

/// What one job of the service mix asks the daemon to do, and therefore
/// which terminal state it must end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobKind {
    /// A healthy solve with one of [`VARIANTS`] fixed seeds: after the
    /// first of its variant, a cache hit. Ends `done`.
    Repeat {
        /// Which fixed seed, `0..VARIANTS`.
        variant: u64,
    },
    /// A healthy solve with a seed no other job uses: a cache miss. Ends
    /// `done`.
    Unique,
    /// A solve that never converges, cancelled right after submission.
    /// Ends `cancelled`.
    Cancel,
    /// Admitted with `deadline_ms: 0`. Ends `deadline_exceeded`.
    ZeroDeadline,
    /// Panics in the worker. Ends `failed`.
    Panic,
    /// NaN-poisoned from the first cost evaluation: diverges, is retried
    /// once, diverges again. Ends `failed`.
    Poison,
}

/// `splitmix64`: the standard 64-bit mixing generator.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kind of job number `index` under `seed`. Nominal shares: 50%
/// repeat, 20% unique, 10% cancel, 10% zero-deadline, 5% panic, 5% poison.
#[must_use]
pub fn job_kind(seed: u64, index: u64) -> JobKind {
    let h = splitmix64(seed ^ splitmix64(index));
    match h % 20 {
        0..=9 => JobKind::Repeat {
            variant: (h / 20) % VARIANTS,
        },
        10..=13 => JobKind::Unique,
        14 | 15 => JobKind::Cancel,
        16 | 17 => JobKind::ZeroDeadline,
        18 => JobKind::Panic,
        _ => JobKind::Poison,
    }
}
