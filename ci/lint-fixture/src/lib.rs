//! One violation per rule of the root `clippy.toml`, and of rustc's
//! `unexpected_cfgs`, each under the `#[expect]` that a real site would
//! carry, and one conforming counterpart of each that carries none. Each
//! `#[expect]` covers exactly one entry, so deleting that entry from
//! `clippy.toml` leaves it unfulfilled.

// `disallowed_macros` takes its level from the crate root, whatever item
// the macro expands in (as in `tests/alloc_budget.rs`): P3's expectation.
#![expect(clippy::disallowed_macros, reason = "fixture")]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// D1: unordered containers, and their ordered counterparts.
pub mod d1 {
    use super::*;

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn hash_map() -> usize {
        std::collections::HashMap::<u32, u32>::new().len()
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn hash_set() -> usize {
        std::collections::HashSet::<u32>::new().len()
    }

    pub fn ordered() -> usize {
        BTreeMap::<u32, u32>::new().len() + BTreeSet::<u32>::new().len()
    }
}

/// D2: wall clock, environment, file system and thread identity; time and
/// inputs come from the caller instead.
pub mod d2 {
    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn instant() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn system_time() -> std::time::SystemTime {
        std::time::SystemTime::UNIX_EPOCH
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn thread_id(id: std::thread::ThreadId) -> String {
        format!("{id:?}")
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn thread_current() -> bool {
        std::thread::current().name().is_some()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn args() -> usize {
        std::env::args().count()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn args_os() -> usize {
        std::env::args_os().count()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn var() -> bool {
        std::env::var("SEED").is_ok()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn var_os() -> bool {
        std::env::var_os("SEED").is_some()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn vars() -> usize {
        std::env::vars().count()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn vars_os() -> usize {
        std::env::vars_os().count()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn set_var() {
        std::env::set_var("SEED", "1")
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn remove_var() {
        std::env::remove_var("SEED")
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn current_dir() -> bool {
        std::env::current_dir().is_ok()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn set_current_dir() -> bool {
        std::env::set_current_dir("/").is_ok()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn current_exe() -> bool {
        std::env::current_exe().is_ok()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn temp_dir() -> bool {
        std::env::temp_dir().is_absolute()
    }

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn home_dir() -> bool {
        std::env::home_dir().is_some()
    }

    pub fn from_caller(now_ns: u64, args: &[String]) -> u64 {
        now_ns + args.len() as u64
    }
}

/// D3: a partial float order, and the total one.
pub mod d3 {
    use super::*;

    #[expect(clippy::disallowed_methods, reason = "fixture")]
    pub fn partial(a: f64, b: f64) -> Option<Ordering> {
        a.partial_cmp(&b)
    }

    pub fn total(a: f64, b: f64) -> Ordering {
        a.total_cmp(&b)
    }
}

/// D4: a bare truncating cast in a byte-accounting module, and a checked one.
pub mod d4 {
    #![deny(clippy::cast_possible_truncation)]

    #[expect(clippy::cast_possible_truncation, reason = "fixture")]
    pub fn bare(bytes: u64) -> u32 {
        bytes as u32
    }

    pub fn checked(bytes: u64) -> Option<u32> {
        u32::try_from(bytes).ok()
    }
}

/// P1: process-global locked or mutable state, and plain immutable statics.
/// A `static mut` is reachable only through `unsafe`, which `Cargo.toml`'s
/// `[lints.rust]` denies here as the root workspace's does.
pub mod p1 {
    static mut COUNT: u32 = 0;

    #[expect(unsafe_code, reason = "fixture")]
    pub fn static_mut() -> u32 {
        unsafe {
            COUNT += 1;
            COUNT
        }
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub static MUTEX: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub static RW_LOCK: std::sync::RwLock<u32> = std::sync::RwLock::new(0);

    pub static TABLE: [u32; 2] = [1, 2];
}

/// P2: shared ownership and interior mutability, and a state with one owner.
pub mod p2 {
    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn rc() -> std::rc::Rc<u32> {
        std::rc::Rc::new(0)
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn ref_cell() -> std::cell::RefCell<u32> {
        std::cell::RefCell::new(0)
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn cell() -> std::cell::Cell<u32> {
        std::cell::Cell::new(0)
    }

    #[expect(clippy::disallowed_types, reason = "fixture")]
    pub fn unsafe_cell() -> std::cell::UnsafeCell<u32> {
        std::cell::UnsafeCell::new(0)
    }

    pub fn owned(state: &mut u32) {
        *state += 1;
    }
}

/// P3: per-thread state, and a value the caller threads through.
pub mod p3 {
    pub fn thread_local() -> u32 {
        std::thread_local! {
            static COUNT: u32 = const { 0 };
        }
        COUNT.with(|c| *c)
    }

    pub fn threaded(count: u32) -> u32 {
        count + 1
    }
}

/// G1: a cfg naming a cargo feature, which forks the source text. rustc's
/// `unexpected_cfgs` fails it in every package that declares no feature,
/// as this one and all but two workspace crates do; a cfg rustc knows
/// passes. The lint is held by a module-level `#[expect]`: an item-level
/// one does not hold it.
pub mod g1 {
    #[expect(unexpected_cfgs, reason = "fixture")]
    mod forked {
        #[cfg(feature = "ledger")]
        fn forked() {}
    }

    pub const AUDITED: bool = cfg!(debug_assertions);
}
