//! Memory substrate for `jpmd`: the disk cache and its power management.
//!
//! This crate models everything the paper calls "memory" (§III, §IV-B):
//!
//! * [`RdramModel`] — the RDRAM datasheet power model of paper Fig. 1(a)
//!   with the derived constants of §V-A (0.656 mW/MB nap, 0.809 mJ/MB
//!   dynamic, 129 µs power-down timeout).
//! * [`BankArray`] — exact lazy energy accounting for an array of
//!   independently managed banks under an [`IdlePolicy`] (nap,
//!   power-down-after-timeout, disable-after-timeout).
//! * [`DiskCache`] — the LRU page cache with bank-granular resize and
//!   invalidation ("when a memory bank is turned off, all pages in the same
//!   bank are invalidated").
//! * [`StackProfiler`] / [`AccessLog`] — the paper's *extended LRU list*
//!   (Fig. 3): exact stack distances that predict the number of disk
//!   accesses at every candidate memory size at once. An access costs one
//!   hash lookup, one popcount and three walks of a Fenwick tree over
//!   64-slot words, O(log(n / 64)). Memory is O(distinct pages): the
//!   page → id map, and per slot 4 bytes of slot → id table and 1.5 bits
//!   of marks, with one to two slots per distinct page.
//! * [`MemoryManager`] — the assembled subsystem the system simulator
//!   drives. It profiles only for a policy that reads the access log
//!   ([`MemoryManager::set_profiling`]), and keeps at most one pending
//!   disable timer per bank and kind.
//!
//! # Example
//!
//! ```
//! use jpmd_mem::{IdlePolicy, MemConfig, MemoryManager, RdramModel};
//!
//! let config = MemConfig {
//!     page_bytes: 1 << 20, // 1 MiB pages (see DESIGN.md scale note)
//!     bank_pages: 16,      // 16 MiB banks
//!     total_banks: 64,
//!     initial_banks: 64,
//!     model: RdramModel::default(),
//!     policy: IdlePolicy::Nap,
//! };
//! let mut mem = MemoryManager::new(config);
//! let hit = mem.access(123, 0.0);
//! assert!(!hit); // cold miss -> the simulator sends this to the disk
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod banks;
mod cache;
mod fenwick;
mod manager;
mod power;
mod stack;

pub use banks::{BankArray, IdlePolicy};
pub use cache::{CacheAccess, DiskCache, Replacement};
pub use manager::{MemConfig, MemoryManager};
pub use power::{MemEnergy, RdramModel};
pub use stack::{AccessLog, StackDistance, StackProfiler};
