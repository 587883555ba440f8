//! Contended-resource timelines.
//!
//! Every shared unit in the SSD (a flash channel, a flash die, a DRAM bank,
//! the DRAM bus, a controller core, the PCIe link) is modelled as a
//! [`SharedResource`]: a single server that runs one reservation at a time.
//! Groups of interchangeable units (dies, banks, cores) form a
//! [`ResourcePool`].
//!
//! This is the mechanism behind two of Conduit's cost-function features:
//! the *resource queueing delay* (how long until the unit is free) and the
//! implicit contention captured in data-movement times.
//!
//! # Work-conserving timelines
//!
//! A unit's timeline is its busy-until time and its *idle gaps*: the
//! disjoint intervals before busy-until in which it runs nothing.
//!
//! * [`SharedResource::reserve`] starts work arriving at `earliest` in the
//!   first gap at or after `earliest` that holds its whole service time, at
//!   the later of the gap's start and `earliest`, and carves that interval
//!   out of the gap. When no gap holds it, the work starts at
//!   `max(earliest, busy_until)`, and a start after busy-until opens a gap
//!   from busy-until to the start. So a reservation whose operands arrive
//!   late no longer holds its unit idle for everything behind it: work that
//!   is ready runs in the gap, as a real core, die, bank or link would run
//!   it. A zero-length reservation carves nothing, and a gap that would
//!   start where the last one ends extends it instead.
//! * Backfilling never moves busy-until, and it adds to a unit's busy time
//!   and completed count exactly what appending would.
//! * Gaps are run-scoped. `RuntimeEngine::run_with_plan` in the `conduit`
//!   crate drops them when a run ends ([`crate::SsdDevice::end_run`]). That
//!   is exact: every gap ends at or before the run's finish, and the next
//!   run on the device issues at or after it, so no later reservation could
//!   start in one. Checkpoints are taken between runs and hold no gaps, and
//!   a restore starts with none.
//!
//! # The gap index
//!
//! A unit keeps its gaps in one vector sorted by start; being disjoint,
//! their ends ascend too. A new gap lies after every existing one, so
//! opening one is a push. The gaps a reservation can use end at or after
//! its `earliest`, and they sit just before busy-until: a lookup gallops
//! back from the last gap to the first one ending at or after `earliest`,
//! then scans forward from there for the first that holds the service time.
//! Every gap after that first one starts after `earliest`, so the scan
//! compares lengths only. A carve shrinks, splits or removes that one gap,
//! moving only the gaps after it. So each step costs at most O(k) in the
//! number k of gaps ending at or after `earliest`, not in the number the run
//! has opened, and work arriving at or after busy-until does no lookup at
//! all.
//!
//! # The pool index
//!
//! A pool answers its hot queries without walking its units. It keeps a
//! min-tree (tournament tree) over the units' busy-until times, with the
//! leaves padded to a power of two by [`SimTime::MAX`], each unit's total
//! busy time in nanoseconds, and one past the highest unit that has been
//! busy. Every reservation updates its unit's entries, and the path to the
//! root when busy-until moved; a checkpoint restore rebuilds all of it.
//! None of it is serialized, and pool equality compares the units only.
//!
//! * [`ResourcePool::reserve`] chooses the unit whose backlog clears first,
//!   the one that minimizes `max(busy_until, earliest)`, breaking ties
//!   towards the lowest unit index, and backfills on that unit only. That
//!   minimum is `t = max(earliest, root)`, and the lowest-index unit
//!   reaching it is the leftmost unit whose busy-until is at most `t`: one
//!   descent from the root finds it. Its gaps can hold the work only when
//!   every unit is busy at `earliest`, so only then does it look one up.
//! * [`ResourcePool::queue_delay`] reads the root: the wait for the unit
//!   whose backlog clears first. With backfilling it is an upper bound on
//!   the wait, since the work may start in a gap.
//! * [`ResourcePool::reserve_gang`] serves `count` equal sub-operations
//!   arriving together at `earliest` (a PuD vector's row-wide sub-operations
//!   on the bank pool) with one query. A scan collects the leftmost units
//!   free at `earliest`, up to `count`: one descent finds the first, and
//!   each next one is the leftmost free unit of the nearest right sibling
//!   subtree that holds one, so busy subtrees are skipped whole. The caller
//!   turns how many it found into the service time, those units are
//!   reserved together, and each of their ancestors is refreshed once. The
//!   sub-operations left over, when fewer units are free than `count`, go
//!   through [`ResourcePool::reserve`]'s unit choice and backfill one at a
//!   time. The result is exactly that of counting the free units and then
//!   making `count` sequential reservations: each of those takes the
//!   leftmost unit still free at `earliest`, which stops being free once its
//!   reservation ends after `earliest`. A reservation that ends *at*
//!   `earliest` (zero service) leaves its unit free for the next call, so
//!   then every sub-operation goes one at a time. A gang opens no gaps: a
//!   vector's waves start together at `earliest`, so the idle time a free
//!   unit had before it is left unrecorded.
//! * [`ResourcePool::utilization`] is an in-order sum over the units up to
//!   the highest one that has ever been busy, one division per unit. A unit
//!   that has never been busy adds exactly `+0.0` to a non-negative partial
//!   sum, so stopping there changes no bit of the answer.

use conduit_types::bytes::{put_u64, Reader};
use conduit_types::{ConduitError, Duration, Result, SimTime};

/// A single contended unit: a busy-until timeline and the idle gaps before
/// it. Work starts in the first gap at or after its arrival that holds it,
/// and otherwise at `max(arrival, busy-until)`, opening a gap when that is
/// after busy-until. Gaps last until the run that opened them ends
/// ([`SsdDevice::end_run`](crate::SsdDevice::end_run)).
///
/// # Examples
///
/// ```
/// use conduit_sim::SharedResource;
/// use conduit_types::{Duration, SimTime};
///
/// let us = |v| SimTime::ZERO + Duration::from_us(v);
/// let mut ch = SharedResource::new();
/// let (s1, e1) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// let (s2, _e2) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1); // second request queues behind the first
/// // Late operands leave the unit idle from 6 to 20 us; ready work runs there.
/// ch.reserve(us(20.0), Duration::from_us(3.0));
/// assert_eq!(ch.reserve(us(8.0), Duration::from_us(3.0)), (us(8.0), us(11.0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedResource {
    busy_until: SimTime,
    total_busy: Duration,
    completed: u64,
    /// The idle gaps before `busy_until`: non-empty, disjoint, not touching
    /// one another, and sorted by start.
    gaps: Vec<Gap>,
}

/// Room reserved for idle gaps when a unit opens its first in a run.
const GAPS_RESERVED: usize = 32;

/// An idle interval `[start, end)` on a unit's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gap {
    start: SimTime,
    end: SimTime,
}

impl Gap {
    /// Where work arriving at `earliest` would start in this gap, if the
    /// gap holds all of its `service`.
    #[inline]
    fn fit(&self, earliest: SimTime, service: Duration) -> Option<SimTime> {
        let start = self.start.max(earliest);
        (start + service <= self.end).then_some(start)
    }
}

/// Index of the first of `gaps` (sorted, so their ends ascend) that ends at
/// or after `at`. The search gallops back from the last gap, so it costs
/// O(log k) in the number k of gaps it skips over from the back.
#[inline]
fn first_ending_at_or_after(gaps: &[Gap], at: SimTime) -> usize {
    let mut hi = gaps.len();
    let mut step = 1;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if gaps[probe].end < at {
            return probe + 1 + gaps[probe + 1..hi].partition_point(|g| g.end < at);
        }
        hi = probe;
        step *= 2;
    }
    0
}

impl SharedResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SharedResource::default()
    }

    /// Reserves the resource for `service` time, starting no earlier than
    /// `earliest`: in the first idle gap at or after `earliest` that holds
    /// it, otherwise at `max(earliest, busy_until)`. Returns the actual
    /// `(start, end)` interval.
    pub fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime) {
        self.completed += 1;
        self.place(earliest, service, true)
    }

    /// Reserves `count` back-to-back slots of `service` each, the first
    /// starting no earlier than `earliest`, as **one** reservation of
    /// `service · count` that counts as `count` completions. Returns the
    /// `(start, end)` of the whole window; slot `i` occupies
    /// `[start + service·i, start + service·(i+1))`.
    ///
    /// Equivalent to `count` chained [`SharedResource::reserve`] calls, each
    /// call's `earliest` at or before the previous end, when no idle gap
    /// ends after `earliest`: `busy_until`, `total_busy`, `completed` and
    /// the gaps land on the same values because all the arithmetic is
    /// integer picoseconds. The engine reserves a strip's offloader-core
    /// windows this way, on the offload clock, which never falls behind a
    /// gap on that core.
    pub fn commit_batch(
        &mut self,
        earliest: SimTime,
        service: Duration,
        count: u64,
    ) -> (SimTime, SimTime) {
        self.completed += count;
        self.place(earliest, service * count, true)
    }

    /// Places `service` on the timeline per the backfill rule, and adds it
    /// to the busy time. A start after busy-until records the idle time
    /// before it as a gap only when `open_gap` is set.
    #[inline]
    fn place(
        &mut self,
        earliest: SimTime,
        service: Duration,
        open_gap: bool,
    ) -> (SimTime, SimTime) {
        self.total_busy += service;
        let start = if earliest < self.busy_until {
            if let Some(start) = self.backfill(earliest, service) {
                return (start, start + service);
            }
            self.busy_until
        } else {
            if open_gap && earliest > self.busy_until {
                match self.gaps.last_mut() {
                    Some(last) if last.end == self.busy_until => last.end = earliest,
                    _ => {
                        // A unit that opens one gap in a run opens about 16
                        // on average at paper scale; growing from the
                        // default four would reallocate three times.
                        if self.gaps.capacity() == 0 {
                            self.gaps.reserve_exact(GAPS_RESERVED);
                        }
                        self.gaps.push(Gap {
                            start: self.busy_until,
                            end: earliest,
                        });
                    }
                }
            }
            earliest
        };
        self.busy_until = start + service;
        (start, self.busy_until)
    }

    /// Finds the first gap at or after `earliest` that holds `service` and
    /// carves the work's interval out of it. Returns the start, or `None`
    /// when no gap holds the work.
    #[inline]
    fn backfill(&mut self, earliest: SimTime, service: Duration) -> Option<SimTime> {
        let first = first_ending_at_or_after(&self.gaps, earliest);
        let (k, start) = match self.gaps.get(first)?.fit(earliest, service) {
            Some(start) => (first, start),
            None => {
                // Every later gap starts after `earliest`, so it holds the
                // work exactly when it is long enough.
                let k = first
                    + 1
                    + self.gaps[first + 1..]
                        .iter()
                        .position(|gap| gap.start + service <= gap.end)?;
                (k, self.gaps[k].start)
            }
        };
        if service.is_zero() {
            return Some(start);
        }
        let end = start + service;
        let gap = &mut self.gaps[k];
        match (gap.start < start, end < gap.end) {
            (true, true) => {
                let after = Gap {
                    start: end,
                    end: gap.end,
                };
                gap.end = start;
                self.gaps.insert(k + 1, after);
            }
            (true, false) => gap.end = start,
            (false, true) => gap.start = end,
            (false, false) => {
                self.gaps.remove(k);
            }
        }
        Some(start)
    }

    /// Drops every idle gap (a run has ended; see the module
    /// documentation), returning when the last one ended.
    pub(crate) fn clear_gaps(&mut self) -> Option<SimTime> {
        let last = self.gaps.last().map(|gap| gap.end);
        self.gaps.clear();
        last
    }

    /// How long a request arriving at `at` would wait for the resource's
    /// backlog to clear (the queueing delay feature of the cost function):
    /// an upper bound on its wait, which ends sooner when an idle gap holds
    /// the work.
    pub fn queue_delay(&self, at: SimTime) -> Duration {
        self.busy_until.saturating_since(at)
    }

    /// When the resource's backlog clears (its busy-until time); it may be
    /// idle in gaps before then.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated so far.
    pub fn total_busy(&self) -> Duration {
        self.total_busy
    }

    /// Number of reservations served.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Appends the timeline's state (busy-until, total busy time, completed
    /// count) to `out`. Idle gaps are run-scoped and never written.
    fn encode_timeline(&self, out: &mut Vec<u8>) {
        put_u64(out, self.busy_until.as_ps());
        put_u64(out, self.total_busy.as_ps());
        put_u64(out, self.completed);
    }

    /// Restores the timeline state written by
    /// [`SharedResource::encode_timeline`].
    fn restore_timeline(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.gaps.clear();
        self.busy_until = SimTime::from_ps(r.counter()?);
        self.total_busy = Duration::from_ps(r.counter()?);
        self.completed = r.counter()?;
        Ok(())
    }

    /// Whether the timeline carries no state worth serializing (never
    /// reserved and back at time zero).
    fn is_untouched(&self) -> bool {
        self.busy_until == SimTime::ZERO && self.total_busy.is_zero() && self.completed == 0
    }

    /// Appends the timeline to `out` as a flag byte, followed by its
    /// busy-until, total busy time and completed count only when it has
    /// been used: an untouched timeline costs one byte instead of 24 zeros.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        if self.is_untouched() {
            out.push(0);
        } else {
            out.push(1);
            self.encode_timeline(out);
        }
    }

    /// Restores the state serialized by [`SharedResource::encode_into`].
    pub(crate) fn restore_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        match r.u8()? {
            0 => {
                *self = SharedResource::new();
                Ok(())
            }
            1 => self.restore_timeline(r),
            flag => Err(ConduitError::corrupt_checkpoint(format!(
                "resource timeline flag must be 0 or 1, found {flag}"
            ))),
        }
    }

    /// Fraction of the interval `[ZERO, now]` this resource spent busy.
    /// Returns 0 when `now` is time zero.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(SimTime::ZERO);
        if elapsed.is_zero() {
            0.0
        } else {
            (self.total_busy.as_ns() / elapsed.as_ns()).min(1.0)
        }
    }
}

/// A pool of interchangeable [`SharedResource`] units (e.g. the flash dies,
/// the DRAM banks, or the ISP compute cores), indexed so that reservations
/// and queue-delay queries never walk the units (see the module
/// documentation for the index and the unit-selection rule).
///
/// # Examples
///
/// ```
/// use conduit_sim::ResourcePool;
/// use conduit_types::{Duration, SimTime};
///
/// let mut dies = ResourcePool::new(2);
/// // Two requests run in parallel on different units, the third queues.
/// let (_, e1, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// let (_, e2, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// let (s3, _, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// assert_eq!(e1, e2);
/// assert_eq!(s3, e1);
/// ```
#[derive(Debug, Clone)]
pub struct ResourcePool {
    units: Vec<SharedResource>,
    /// Min-tree over the units' busy-until times. Node 1 is the root, node
    /// `k` holds the minimum of nodes `2k` and `2k + 1`, and leaf
    /// `leaves + i` holds unit `i`; leaves past the last unit hold
    /// [`SimTime::MAX`]. Node 0 is unused.
    free_at: Vec<SimTime>,
    /// Each unit's total busy time in nanoseconds (the numerator of its
    /// utilization), refreshed whenever that unit is reserved.
    busy_ns: Vec<f64>,
    /// One past the highest unit with nonzero busy time: every unit from
    /// here on adds `+0.0` to [`ResourcePool::utilization`]'s sum.
    busy_prefix: usize,
    /// Scratch for [`ResourcePool::reserve_gang`]: the units it collects.
    /// Empty between calls.
    gang: Vec<usize>,
}

impl PartialEq for ResourcePool {
    /// Pools are equal when their units are: the index is derived state.
    fn eq(&self, other: &Self) -> bool {
        self.units == other.units
    }
}

impl Eq for ResourcePool {}

impl ResourcePool {
    /// Creates a pool of `count` idle units.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "resource pool must have at least one unit");
        let mut pool = ResourcePool {
            units: vec![SharedResource::new(); count],
            free_at: vec![SimTime::MAX; 2 * count.next_power_of_two()],
            busy_ns: vec![0.0; count],
            busy_prefix: 0,
            gang: Vec::new(),
        };
        pool.rebuild_index();
        pool
    }

    /// Number of units in the pool.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the pool has no units (never true; pools are non-empty).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Reserves `service` time, starting no earlier than `earliest`, on the
    /// unit whose backlog clears first (the lowest-index one among equals),
    /// backfilling an idle gap of that unit when one holds the work. Returns
    /// `(start, end, unit_index)`.
    pub fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime, usize) {
        let idx = self.first_to_clear(earliest);
        let (start, end) = self.reserve_at(idx, earliest, service, true);
        (start, end, idx)
    }

    /// The unit that minimizes `max(busy_until, earliest)`, the lowest-index
    /// one among equals.
    #[inline]
    fn first_to_clear(&self, earliest: SimTime) -> usize {
        // The earliest start any unit's backlog allows; the leftmost unit
        // free by then is the lowest-index unit that allows it.
        let first_start = earliest.max(self.free_at[1]);
        let leaves = self.leaves();
        let mut node = 1;
        while node < leaves {
            node = if self.free_at[2 * node] <= first_start {
                2 * node
            } else {
                2 * node + 1
            };
        }
        node - leaves
    }

    /// Reserves a *specific* unit (e.g. the die where an operand physically
    /// lives); the index wraps modulo the pool size. Returns `(start, end)`.
    pub fn reserve_unit(
        &mut self,
        unit: usize,
        earliest: SimTime,
        service: Duration,
    ) -> (SimTime, SimTime) {
        self.reserve_at(unit % self.units.len(), earliest, service, true)
    }

    /// Queueing delay a request arriving at `at` would see on the unit whose
    /// backlog clears first: an upper bound on its wait, which ends sooner
    /// when an idle gap holds the work.
    pub fn queue_delay(&self, at: SimTime) -> Duration {
        self.free_at[1].saturating_since(at)
    }

    /// Reserves `count` sub-operations arriving at `earliest`, each for the
    /// same service time, exactly as `count` sequential
    /// [`ResourcePool::reserve`] calls that open no gaps would (see the
    /// module documentation). `service` receives how many units are free at
    /// `earliest`, counting no further than `count`, and returns the service
    /// time. Returns that service time and when the last sub-operation ends
    /// (`earliest` when `count` is zero).
    pub fn reserve_gang(
        &mut self,
        earliest: SimTime,
        count: usize,
        service: impl FnOnce(usize) -> Duration,
    ) -> (Duration, SimTime) {
        let mut gang = std::mem::take(&mut self.gang);
        self.collect_free(earliest, count.min(self.units.len()), &mut gang);
        let service = service(gang.len());
        let end = earliest + service;
        let mut ready = earliest;
        let mut left = count;
        if end > earliest && !gang.is_empty() {
            for &idx in &gang {
                self.reserve_leaf(idx, earliest, service, false);
            }
            left -= gang.len();
            ready = end;
            self.refresh_ancestors(&gang);
        }
        for _ in 0..left {
            let idx = self.first_to_clear(earliest);
            let (_, end) = self.reserve_at(idx, earliest, service, false);
            ready = ready.max(end);
        }
        gang.clear();
        self.gang = gang;
        (service, ready)
    }

    /// Mean utilization of the pool over `[ZERO, now]`: the in-order sum of
    /// each unit's busy fraction (clamped to 1) over the unit count.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(SimTime::ZERO);
        if elapsed.is_zero() {
            return 0.0;
        }
        let elapsed_ns = elapsed.as_ns();
        // At least one term: an empty `f64` sum is -0.0, the full sum of an
        // idle pool is +0.0.
        self.busy_ns[..self.busy_prefix.max(1)]
            .iter()
            .map(|&busy| (busy / elapsed_ns).min(1.0))
            .sum::<f64>()
            / self.units.len() as f64
    }

    /// Total busy time across all units.
    pub fn total_busy(&self) -> Duration {
        self.units.iter().map(|u| u.total_busy()).sum()
    }

    /// Total reservations served across all units.
    pub fn completed(&self) -> u64 {
        self.units.iter().map(|u| u.completed()).sum()
    }

    /// Appends the pool to `out`: the unit count, the number of touched
    /// units, then `(index, timeline)` pairs for the touched units only, in
    /// strictly increasing index order, so an idle pool costs 16 bytes
    /// regardless of its size.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.units.len() as u64);
        let touched = self.units.iter().filter(|u| !u.is_untouched()).count();
        put_u64(out, touched as u64);
        for (i, unit) in self.units.iter().enumerate() {
            if !unit.is_untouched() {
                put_u64(out, i as u64);
                unit.encode_timeline(out);
            }
        }
    }

    /// Restores the pool serialized by [`ResourcePool::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] if the stored unit count
    /// does not match the configuration, if more units are marked touched
    /// than exist, or if the touched indices are not strictly increasing and
    /// in range.
    pub(crate) fn restore_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let count = r.u64()? as usize;
        if count != self.units.len() {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "pool checkpoint has {count} units but the configuration describes {}",
                self.units.len()
            )));
        }
        let touched = r.u64()? as usize;
        if touched > count {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "pool checkpoint marks {touched} of {count} units as touched"
            )));
        }
        self.units.fill(SharedResource::new());
        let mut prev: Option<u64> = None;
        let restored = (0..touched).try_for_each(|_| {
            let idx = r.u64()?;
            if prev.is_some_and(|p| idx <= p) || idx >= count as u64 {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "touched unit index {idx} is out of order or out of range"
                )));
            }
            prev = Some(idx);
            self.units[idx as usize].restore_timeline(r)
        });
        self.rebuild_index();
        restored
    }

    /// Number of leaves in the min-tree (the unit count rounded up to a
    /// power of two).
    fn leaves(&self) -> usize {
        self.free_at.len() / 2
    }

    /// Reserves unit `idx` (opening a gap on a late start only when
    /// `open_gap` is set) and refreshes its busy-time column entry, and its
    /// leaf and the path to the root when its busy-until moved.
    fn reserve_at(
        &mut self,
        idx: usize,
        earliest: SimTime,
        service: Duration,
        open_gap: bool,
    ) -> (SimTime, SimTime) {
        let leaf = self.leaves() + idx;
        let before = self.free_at[leaf];
        let interval = self.reserve_leaf(idx, earliest, service, open_gap);
        if self.free_at[leaf] != before {
            let mut node = leaf;
            while node > 1 {
                node /= 2;
                self.refresh(node);
            }
        }
        interval
    }

    /// Reserves unit `idx` and refreshes its leaf and busy-time column
    /// entry, leaving its ancestors to the caller.
    fn reserve_leaf(
        &mut self,
        idx: usize,
        earliest: SimTime,
        service: Duration,
        open_gap: bool,
    ) -> (SimTime, SimTime) {
        let leaves = self.leaves();
        let unit = &mut self.units[idx];
        unit.completed += 1;
        let interval = unit.place(earliest, service, open_gap);
        self.busy_ns[idx] = unit.total_busy.as_ns();
        if !unit.total_busy.is_zero() {
            self.busy_prefix = self.busy_prefix.max(idx + 1);
        }
        self.free_at[leaves + idx] = unit.busy_until;
        interval
    }

    /// Drops every unit's idle gaps (a run has ended; see the module
    /// documentation), returning when the last of them ended.
    pub(crate) fn clear_gaps(&mut self) -> Option<SimTime> {
        self.units
            .iter_mut()
            .filter_map(SharedResource::clear_gaps)
            .max()
    }

    /// Recomputes internal node `node` from its children.
    #[inline]
    fn refresh(&mut self, node: usize) {
        self.free_at[node] = self.free_at[2 * node].min(self.free_at[2 * node + 1]);
    }

    /// Refreshes every ancestor of the units in `units` (ascending indices)
    /// once: each unit's walk to the root stops below the node where its
    /// path meets the next unit's, which that unit's walk refreshes later.
    fn refresh_ancestors(&mut self, units: &[usize]) {
        let leaves = self.leaves();
        for (k, &idx) in units.iter().enumerate() {
            let mut node = leaves + idx;
            // Node 0 is nobody's ancestor: the last unit walks to the root.
            let mut next = units.get(k + 1).map_or(0, |&j| leaves + j);
            while node > 1 {
                node /= 2;
                next /= 2;
                if node == next {
                    break;
                }
                self.refresh(node);
            }
        }
    }

    /// Recomputes the whole index from the units (at construction and after
    /// a restore).
    fn rebuild_index(&mut self) {
        let leaves = self.leaves();
        for (i, unit) in self.units.iter().enumerate() {
            self.free_at[leaves + i] = unit.busy_until;
            self.busy_ns[i] = unit.total_busy.as_ns();
        }
        for node in (1..leaves).rev() {
            self.refresh(node);
        }
        self.busy_prefix = self
            .units
            .iter()
            .rposition(|unit| !unit.total_busy.is_zero())
            .map_or(0, |i| i + 1);
    }

    /// Appends to `out`, left to right, the units free at `at`, until `out`
    /// holds `cap`. One descent finds the leftmost; from each unit the scan
    /// climbs to the nearest right sibling that holds a free unit and
    /// descends to that subtree's leftmost, so it skips busy subtrees whole
    /// and reaches a free neighbour in a step or two. Padding leaves read as
    /// free only when `at` is [`SimTime::MAX`], after every real unit, and
    /// the scan stops at the first of them.
    fn collect_free(&self, at: SimTime, cap: usize, out: &mut Vec<usize>) {
        if cap == 0 || self.free_at[1] > at {
            return;
        }
        let leaves = self.leaves();
        let mut node = 1;
        loop {
            while node < leaves {
                node = if self.free_at[2 * node] <= at {
                    2 * node
                } else {
                    2 * node + 1
                };
            }
            let idx = node - leaves;
            if idx >= self.units.len() {
                return;
            }
            out.push(idx);
            if out.len() == cap {
                return;
            }
            loop {
                if node == 1 {
                    return;
                }
                if node % 2 == 0 && self.free_at[node + 1] <= at {
                    node += 1;
                    break;
                }
                node /= 2;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::FaultPlan;

    fn us(v: f64) -> Duration {
        Duration::from_us(v)
    }

    #[test]
    fn shared_resource_serializes_work() {
        let mut r = SharedResource::new();
        let (s1, e1) = r.reserve(SimTime::ZERO, us(5.0));
        let (s2, e2) = r.reserve(SimTime::ZERO, us(5.0));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, e1);
        assert_eq!(e2.saturating_since(SimTime::ZERO), us(10.0));
        assert_eq!(r.total_busy(), us(10.0));
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn commit_batch_equals_chained_reserves() {
        // One batched window lands on exactly the state of `count` chained
        // reservations, each queued behind the previous one.
        let mut batched = SharedResource::new();
        let mut chained = SharedResource::new();
        batched.reserve(SimTime::ZERO, us(2.0));
        chained.reserve(SimTime::ZERO, us(2.0));

        let got = batched.commit_batch(SimTime::ZERO + us(1.0), us(3.0), 4);
        let first = chained.reserve(SimTime::ZERO + us(1.0), us(3.0));
        let mut last = first;
        for _ in 1..4 {
            last = chained.reserve(SimTime::ZERO + us(1.0), us(3.0));
        }

        assert_eq!(got, (first.0, last.1));
        assert_eq!(got.0, SimTime::ZERO + us(2.0));
        assert_eq!(batched, chained);
        assert_eq!(batched.completed(), 5);
        assert_eq!(batched.total_busy(), us(2.0) + us(12.0));
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut r = SharedResource::new();
        assert_eq!(r.queue_delay(SimTime::ZERO), Duration::ZERO);
        r.reserve(SimTime::ZERO, us(8.0));
        assert_eq!(r.queue_delay(SimTime::ZERO), us(8.0));
        assert_eq!(r.queue_delay(SimTime::ZERO + us(3.0)), us(5.0));
        assert_eq!(r.queue_delay(SimTime::ZERO + us(20.0)), Duration::ZERO);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut r = SharedResource::new();
        r.reserve(SimTime::ZERO, us(2.0));
        // Next request arrives much later; the gap is idle.
        r.reserve(SimTime::ZERO + us(100.0), us(2.0));
        assert_eq!(r.total_busy(), us(4.0));
        let util = r.utilization(SimTime::ZERO + us(102.0));
        assert!((util - 4.0 / 102.0).abs() < 1e-9);
    }

    #[test]
    fn work_arriving_inside_an_idle_gap_starts_there() {
        let at = |v: f64| SimTime::ZERO + us(v);
        let mut r = SharedResource::new();
        r.reserve(SimTime::ZERO, us(2.0));
        // Operands that arrive late leave the unit idle from 2 to 10 us.
        assert_eq!(r.reserve(at(10.0), us(2.0)), (at(10.0), at(12.0)));
        // Work that is ready at 3 us runs in that gap instead of queueing
        // behind the late reservation, leaving [2, 3) and [7, 10) idle.
        assert_eq!(r.reserve(at(3.0), us(4.0)), (at(3.0), at(7.0)));
        assert_eq!(r.free_at(), at(12.0));
        // First fit: the first gap that holds the work, not the first gap.
        assert_eq!(r.reserve(SimTime::ZERO, us(2.0)), (at(7.0), at(9.0)));
        assert_eq!(r.reserve(SimTime::ZERO, us(1.0)), (at(2.0), at(3.0)));
        // Zero service starts at the first idle instant, even the end of a
        // gap, and carves nothing.
        assert_eq!(r.reserve(at(10.0), Duration::ZERO), (at(10.0), at(10.0)));
        assert_eq!(r.reserve(SimTime::ZERO, Duration::ZERO), (at(9.0), at(9.0)));
        assert_eq!(r.reserve(SimTime::ZERO, us(1.0)), (at(9.0), at(10.0)));
        // No gap is left: work queues at busy-until again.
        assert_eq!(r.reserve(SimTime::ZERO, us(1.0)), (at(12.0), at(13.0)));
        assert_eq!(r.total_busy(), us(13.0));
        assert_eq!(r.completed(), 9);
        // A run's end drops the gaps: afterwards, earlier arrivals queue.
        r.reserve(at(20.0), us(1.0));
        assert_eq!(r.clear_gaps(), Some(at(20.0)));
        assert_eq!(r.reserve(at(14.0), us(1.0)), (at(21.0), at(22.0)));
        assert_eq!(r.clear_gaps(), None);
    }

    #[test]
    fn pool_backfills_only_the_unit_whose_backlog_clears_first() {
        let at = |v: f64| SimTime::ZERO + us(v);
        let mut p = ResourcePool::new(2);
        // Unit 0 is idle from 2 to 10 us and busy until 12; unit 1 until 8.
        p.reserve_unit(0, SimTime::ZERO, us(2.0));
        p.reserve_unit(0, at(10.0), us(2.0));
        p.reserve_unit(1, SimTime::ZERO, us(8.0));
        // Both units are busy at 1 us and unit 1's backlog clears first, so
        // the work queues there, although unit 0 is idle from 2 us.
        assert_eq!(p.reserve(at(1.0), us(3.0)), (at(8.0), at(11.0), 1));
        assert_eq!(p.reserve(at(1.0), us(3.0)), (at(11.0), at(14.0), 1));
        // Now unit 0's clears first, and its gap holds the work.
        assert_eq!(p.reserve(at(1.0), us(3.0)), (at(2.0), at(5.0), 0));
        // The backlog (and so the queueing delay) does not move.
        assert_eq!(p.queue_delay(at(1.0)), us(11.0));
    }

    #[test]
    fn pool_spreads_work_across_units() {
        let mut p = ResourcePool::new(4);
        for _ in 0..4 {
            p.reserve(SimTime::ZERO, us(10.0));
        }
        assert_eq!(p.queue_delay(SimTime::ZERO), us(10.0));
        assert_eq!(p.completed(), 4);
        // A fifth request queues on whichever unit frees first.
        let (s, _, _) = p.reserve(SimTime::ZERO, us(1.0));
        assert_eq!(s, SimTime::ZERO + us(10.0));
    }

    #[test]
    fn pool_tie_breaks_on_lowest_unit_index() {
        let mut p = ResourcePool::new(3);
        // All units idle: ties must resolve to the lowest index, in order,
        // so simulations are deterministic regardless of pool size.
        let (_, _, i0) = p.reserve(SimTime::ZERO, us(5.0));
        let (_, _, i1) = p.reserve(SimTime::ZERO, us(5.0));
        let (_, _, i2) = p.reserve(SimTime::ZERO, us(5.0));
        assert_eq!((i0, i1, i2), (0, 1, 2));
        // All equally busy again: back to unit 0, queued behind its work.
        let (s, _, i3) = p.reserve(SimTime::ZERO, us(1.0));
        assert_eq!(i3, 0);
        assert_eq!(s, SimTime::ZERO + us(5.0));
    }

    #[test]
    fn pool_prefers_earliest_free_unit_over_index() {
        let mut p = ResourcePool::new(3);
        // Unit 0 busy for 10 us, unit 1 for 2 us, unit 2 for 6 us.
        p.reserve_unit(0, SimTime::ZERO, us(10.0));
        p.reserve_unit(1, SimTime::ZERO, us(2.0));
        p.reserve_unit(2, SimTime::ZERO, us(6.0));
        let (start, _, idx) = p.reserve(SimTime::ZERO, us(1.0));
        assert_eq!(idx, 1, "earliest-free unit must win over lower indices");
        assert_eq!(start, SimTime::ZERO + us(2.0));
    }

    #[test]
    fn pool_specific_unit_reservation() {
        let mut p = ResourcePool::new(2);
        p.reserve_unit(0, SimTime::ZERO, us(5.0));
        assert_eq!(p.queue_delay(SimTime::ZERO), Duration::ZERO);
        // Unit index 3 wraps to unit 1.
        p.reserve_unit(3, SimTime::ZERO, us(2.0));
        assert_eq!(p.queue_delay(SimTime::ZERO), us(2.0));
        let (start, _, idx) = p.reserve(SimTime::ZERO, us(1.0));
        assert_eq!((start, idx), (SimTime::ZERO + us(2.0), 1));
    }

    #[test]
    fn gang_reserves_the_leftmost_free_units_then_queues_the_rest() {
        let mut p = ResourcePool::new(4);
        p.reserve_unit(1, SimTime::ZERO, us(4.0));
        // Units 0, 2 and 3 are free: three of five sub-operations run at
        // once, for two waves of 2 us each. Then every unit frees at 4 us,
        // and the other two queue on units 0 and 1 (ties go to the lowest
        // index).
        let mut free_seen = None;
        let (service, ready) = p.reserve_gang(SimTime::ZERO, 5, |free| {
            free_seen = Some(free);
            us(2.0) * 5u64.div_ceil(free.max(1) as u64)
        });
        assert_eq!(free_seen, Some(3));
        assert_eq!(service, us(4.0));
        assert_eq!(ready, SimTime::ZERO + us(8.0));
        assert_eq!(p.completed(), 6);
        assert_eq!(p.units[0].free_at(), SimTime::ZERO + us(8.0));
        assert_eq!(p.units[1].free_at(), SimTime::ZERO + us(8.0));
        assert_eq!(p.units[2].free_at(), SimTime::ZERO + us(4.0));

        // Zero service leaves every unit free: all sub-operations land on
        // the leftmost free unit, as sequential reservations would.
        let mut p = ResourcePool::new(3);
        let (service, ready) = p.reserve_gang(SimTime::ZERO, 3, |_| Duration::ZERO);
        assert_eq!((service, ready), (Duration::ZERO, SimTime::ZERO));
        assert_eq!(p.units[0].completed(), 3);
        assert_eq!(p.completed(), 3);

        // A gang opens no gaps: its waves start together, so the units'
        // idle time before them stays unrecorded, and work arriving earlier
        // queues behind them.
        let at = |v: f64| SimTime::ZERO + us(v);
        let mut p = ResourcePool::new(2);
        assert_eq!(p.reserve_gang(at(5.0), 2, |_| us(1.0)), (us(1.0), at(6.0)));
        assert_eq!(p.reserve(SimTime::ZERO, us(1.0)), (at(6.0), at(7.0), 0));
        assert_eq!(p.clear_gaps(), None);
    }

    #[test]
    fn pool_utilization_averages_units() {
        let mut p = ResourcePool::new(2);
        p.reserve_unit(0, SimTime::ZERO, us(10.0));
        let util = p.utilization(SimTime::ZERO + us(10.0));
        assert!((util - 0.5).abs() < 1e-9);
        assert_eq!(p.total_busy(), us(10.0));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new(0);
    }

    #[test]
    fn sparse_resource_encoding_roundtrips_and_stays_small() {
        // Idle: one flag byte instead of 24 zeros.
        let idle = SharedResource::new();
        let mut buf = Vec::new();
        idle.encode_into(&mut buf);
        assert_eq!(buf, vec![0]);
        let mut back = SharedResource::new();
        back.reserve(SimTime::ZERO, us(3.0)); // stale state must be cleared
        back.restore_from(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, idle);

        // Busy: flag byte plus the timeline triple.
        let mut busy = SharedResource::new();
        busy.reserve(SimTime::ZERO, us(7.0));
        let mut buf = Vec::new();
        busy.encode_into(&mut buf);
        assert_eq!(buf.len(), 1 + 24);
        let mut back = SharedResource::new();
        // Stale state, an idle gap included, must be cleared.
        back.reserve(SimTime::ZERO + us(4.0), us(1.0));
        back.restore_from(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, busy);

        // Garbage flag is rejected.
        let mut r = Reader::new(&[7u8]);
        assert!(SharedResource::new().restore_from(&mut r).is_err());
    }

    #[test]
    fn sparse_pool_encoding_skips_idle_units() {
        let mut p = ResourcePool::new(16);
        p.reserve_unit(3, SimTime::ZERO, us(5.0));
        p.reserve_unit(11, SimTime::ZERO, us(2.0));
        let mut sparse = Vec::new();
        p.encode_into(&mut sparse);
        // 16 + 16 header, two touched units at 8 + 24 each.
        assert_eq!(sparse.len(), 16 + 2 * 32);

        let mut back = ResourcePool::new(16);
        back.reserve_unit(0, SimTime::ZERO, us(9.0)); // must be reset on restore
        back.restore_from(&mut Reader::new(&sparse)).unwrap();
        assert_eq!(back, p);

        // A fully idle pool costs only the 16-byte header.
        let idle = ResourcePool::new(64);
        let mut buf = Vec::new();
        idle.encode_into(&mut buf);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn sparse_pool_restore_rejects_malformed_indices() {
        let probe = |bytes: &[u8]| ResourcePool::new(4).restore_from(&mut Reader::new(bytes));
        let mut wrong_count = Vec::new();
        put_u64(&mut wrong_count, 5);
        put_u64(&mut wrong_count, 0);
        assert!(probe(&wrong_count).is_err());

        let mut too_many = Vec::new();
        put_u64(&mut too_many, 4);
        put_u64(&mut too_many, 5);
        assert!(probe(&too_many).is_err());

        let entry = |out: &mut Vec<u8>, idx: u64| {
            put_u64(out, idx);
            put_u64(out, 1);
            put_u64(out, 1);
            put_u64(out, 1);
        };
        let mut out_of_range = Vec::new();
        put_u64(&mut out_of_range, 4);
        put_u64(&mut out_of_range, 1);
        entry(&mut out_of_range, 4);
        assert!(probe(&out_of_range).is_err());

        let mut unordered = Vec::new();
        put_u64(&mut unordered, 4);
        put_u64(&mut unordered, 2);
        entry(&mut unordered, 2);
        entry(&mut unordered, 1);
        assert!(probe(&unordered).is_err());
    }

    /// Reference model of one unit: busy-until, totals and an explicit list
    /// of idle gaps, searched linearly from the first for the first that
    /// holds the work.
    #[derive(Debug, Clone, Default)]
    struct RefUnit {
        busy_until: SimTime,
        total_busy: Duration,
        completed: u64,
        gaps: Vec<(SimTime, SimTime)>,
    }

    impl RefUnit {
        fn reserve(
            &mut self,
            earliest: SimTime,
            service: Duration,
            open_gap: bool,
        ) -> (SimTime, SimTime) {
            self.total_busy += service;
            self.completed += 1;
            for k in 0..self.gaps.len() {
                let (gap_start, gap_end) = self.gaps[k];
                let start = gap_start.max(earliest);
                let end = start + service;
                if end <= gap_end {
                    if !service.is_zero() {
                        let left: Vec<(SimTime, SimTime)> = [(gap_start, start), (end, gap_end)]
                            .into_iter()
                            .filter(|(from, to)| from < to)
                            .collect();
                        self.gaps.splice(k..=k, left);
                    }
                    return (start, end);
                }
            }
            let start = earliest.max(self.busy_until);
            if open_gap && start > self.busy_until {
                match self.gaps.last_mut() {
                    Some(last) if last.1 == self.busy_until => last.1 = start,
                    _ => self.gaps.push((self.busy_until, start)),
                }
            }
            self.busy_until = start + service;
            (start, self.busy_until)
        }

        fn utilization(&self, now: SimTime) -> f64 {
            let elapsed = now.saturating_since(SimTime::ZERO);
            if elapsed.is_zero() {
                0.0
            } else {
                (self.total_busy.as_ns() / elapsed.as_ns()).min(1.0)
            }
        }
    }

    /// Reference model of [`ResourcePool`]: every query walks the units,
    /// each unit is a [`RefUnit`], and utilization divides each unit's busy
    /// time by the elapsed time in two `as_ns` conversions.
    #[derive(Debug, Clone)]
    struct ScanPool {
        units: Vec<RefUnit>,
    }

    impl ScanPool {
        fn new(size: usize) -> Self {
            ScanPool {
                units: vec![RefUnit::default(); size],
            }
        }

        /// The unit whose backlog clears first, the lowest index among
        /// equals.
        fn choose(&self, earliest: SimTime) -> usize {
            self.units
                .iter()
                .enumerate()
                .min_by_key(|(_, u)| u.busy_until.max(earliest))
                .map(|(i, _)| i)
                .expect("pools are non-empty")
        }

        fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime, usize) {
            let idx = self.choose(earliest);
            let (start, end) = self.units[idx].reserve(earliest, service, true);
            (start, end, idx)
        }

        fn reserve_unit(
            &mut self,
            unit: usize,
            earliest: SimTime,
            service: Duration,
        ) -> (SimTime, SimTime) {
            let idx = unit % self.units.len();
            self.units[idx].reserve(earliest, service, true)
        }

        fn queue_delay(&self, at: SimTime) -> Duration {
            self.units
                .iter()
                .map(|u| u.busy_until.saturating_since(at))
                .min()
                .expect("pools are non-empty")
        }

        fn free_units(&self, at: SimTime) -> usize {
            self.units.iter().filter(|u| u.busy_until <= at).count()
        }

        /// The reference for [`ResourcePool::reserve_gang`]: count the free
        /// units capped at `count`, compute the service time, then make
        /// `count` sequential reservations that open no gaps.
        fn reserve_gang(
            &mut self,
            earliest: SimTime,
            count: usize,
            service: impl FnOnce(usize) -> Duration,
        ) -> (Duration, SimTime) {
            let service = service(self.free_units(earliest).min(count));
            let mut ready = earliest;
            for _ in 0..count {
                let idx = self.choose(earliest);
                ready = ready.max(self.units[idx].reserve(earliest, service, false).1);
            }
            (service, ready)
        }

        fn clear_gaps(&mut self) -> Option<SimTime> {
            self.units
                .iter_mut()
                .filter_map(|u| std::mem::take(&mut u.gaps).last().map(|gap| gap.1))
                .max()
        }

        fn utilization(&self, now: SimTime) -> f64 {
            self.units.iter().map(|u| u.utilization(now)).sum::<f64>() / self.units.len() as f64
        }
    }

    /// Asserts that `pool` answers every query exactly as the reference
    /// does at each of the probe times.
    fn assert_matches(pool: &ResourcePool, model: &ScanPool, probes: &[SimTime], ctx: &str) {
        for (i, (unit, reference)) in pool.units.iter().zip(&model.units).enumerate() {
            let gaps: Vec<(SimTime, SimTime)> =
                unit.gaps.iter().map(|gap| (gap.start, gap.end)).collect();
            assert_eq!(
                (unit.busy_until, unit.total_busy, unit.completed, gaps),
                (
                    reference.busy_until,
                    reference.total_busy,
                    reference.completed,
                    reference.gaps.clone()
                ),
                "{ctx}: unit {i}"
            );
        }
        assert_eq!(pool.len(), model.units.len(), "{ctx}");
        assert_eq!(
            pool.completed(),
            model.units.iter().map(|u| u.completed).sum::<u64>(),
            "{ctx}"
        );
        assert_eq!(
            pool.total_busy(),
            model.units.iter().map(|u| u.total_busy).sum::<Duration>(),
            "{ctx}"
        );
        for &at in probes {
            assert_eq!(
                pool.queue_delay(at),
                model.queue_delay(at),
                "{ctx}: queue delay at {at:?}"
            );
            assert_eq!(
                pool.utilization(at).to_bits(),
                model.utilization(at).to_bits(),
                "{ctx}: utilization at {at:?}"
            );
            let mut gang = Vec::new();
            pool.collect_free(at, pool.len(), &mut gang);
            let free: Vec<usize> = (0..model.units.len())
                .filter(|&i| model.units[i].busy_until <= at)
                .collect();
            assert_eq!(gang, free, "{ctx}: units free at {at:?}");
        }
        assert!(pool.gang.is_empty(), "{ctx}: gang scratch left behind");
    }

    #[test]
    fn indexed_pool_matches_a_linear_scan_model() {
        // Sizes that are not powers of two exercise the padding leaves; the
        // one-unit pool piles the most gaps on one timeline.
        for size in [1, 3, 5, 64, 128] {
            for seed in [1, 2] {
                drive_against_model(size, seed);
            }
            busy_prefix_edges(size);
        }
    }

    /// The utilization sum stops past the highest busy unit. Checks the
    /// edges of that prefix against the full scan: an idle pool read after
    /// time zero, a pool busy only on its last unit, and restores that grow,
    /// shrink and empty the prefix.
    fn busy_prefix_edges(size: usize) {
        let probes = [
            SimTime::ZERO,
            SimTime::from_ps(1),
            SimTime::from_ps(2_000),
            SimTime::from_ps(9_000),
        ];
        let busy_on = |unit: Option<usize>| {
            let mut pool = ResourcePool::new(size);
            let mut model = ScanPool::new(size);
            if let Some(unit) = unit {
                pool.reserve_unit(unit, SimTime::ZERO, us(0.003));
                model.reserve_unit(unit, SimTime::ZERO, us(0.003));
            }
            (pool, model)
        };
        let idle = busy_on(None);
        let first = busy_on(Some(0));
        let last = busy_on(Some(size - 1));
        for (name, (pool, model)) in [("idle", &idle), ("first", &first), ("last", &last)] {
            assert_matches(pool, model, &probes, &format!("size {size}: {name} pool"));
        }
        // Each checkpoint restored over each other pool: onto the idle pool
        // the prefix grows, from the last unit to the first it shrinks, and
        // an idle checkpoint empties it.
        for (source, model) in [&idle, &first, &last] {
            for (target, _) in [&idle, &first, &last] {
                let ctx = format!("size {size}: restore");
                let mut bytes = Vec::new();
                source.encode_into(&mut bytes);
                let mut restored = target.clone();
                restored.restore_from(&mut Reader::new(&bytes)).unwrap();
                assert_matches(&restored, model, &probes, &ctx);
            }
        }
    }

    /// Drives an indexed pool through seeded reservations next to the
    /// reference model, checking every query after every step. Every few
    /// steps two copies restored from the pool's checkpoint join it, each
    /// with a copy of the model that has no gaps, as a restore has none;
    /// every pool continues alongside its own model. Every so often a run
    /// ends, and every pool and model drops its gaps.
    fn drive_against_model(size: usize, seed: u64) {
        const STEPS: usize = 240;
        const RESTORE_EVERY: usize = 9;
        const RUN_ENDS_EVERY: usize = 97;
        let mut rng = FaultPlan::new(seed * 1_000 + size as u64);
        let mut pairs = vec![(ResourcePool::new(size), ScanPool::new(size))];
        for step in 0..STEPS {
            let ctx = format!("size {size}, seed {seed}, step {step}");
            // Arrivals on a coarse grid around a random unit's busy-until:
            // before it (where gaps are looked up), exactly at it, after it
            // (opening a gap), inside or at the end of one of its gaps, or
            // at time zero. On the grid, ties between units are common.
            let unit = &pairs[0].1.units[rng.next_u64() as usize % size];
            let anchor = unit.busy_until.as_ps();
            let offset = 1_000 * (rng.next_u64() % 4);
            let gap = match unit.gaps.len() {
                0 => None,
                n => Some(unit.gaps[rng.next_u64() as usize % n]),
            };
            let earliest = SimTime::from_ps(match (rng.next_u64() % 6, gap) {
                (0, _) => anchor.saturating_sub(offset),
                (1, _) => anchor,
                (2, _) => anchor + offset,
                (3, Some((start, end))) => end.as_ps().min(start.as_ps() + offset),
                (4, Some((_, end))) => end.as_ps(),
                _ => 0,
            });
            // Sometimes exactly what is left of the chosen gap, so the work
            // ends where the gap does.
            let service = match gap {
                Some((_, end)) if rng.next_u64().is_multiple_of(3) => {
                    end.saturating_since(earliest)
                }
                _ => Duration::from_ps(1_000 * (rng.next_u64() % 6)),
            };
            let choice = rng.next_u64() % 6;
            let mut ends = Vec::new();
            if choice < 2 {
                // A gang of sub-operations, counted below, at and above both
                // the free units and the pool size (zero included); the
                // service time falls with the free count as PuD's waves do,
                // and is zero when `service` is.
                let free = pairs[0].1.free_units(earliest);
                let count = match rng.next_u64() % 6 {
                    0 => free.saturating_sub(1),
                    1 => free,
                    2 => free + 1 + rng.next_u64() as usize % 3,
                    3 => size.saturating_sub(1),
                    4 => size,
                    _ => size + 1 + rng.next_u64() as usize % (size + 1),
                };
                // At least one wave, so a zero-count gang still has a
                // service time to misapply.
                let waves = |free: usize| service * count.div_ceil(free.max(1)).max(1) as u64;
                for (pool, model) in &mut pairs {
                    let expected = model.reserve_gang(earliest, count, waves);
                    assert_eq!(pool.reserve_gang(earliest, count, waves), expected, "{ctx}");
                    ends.push(expected.1);
                }
            } else if choice < 4 {
                // A specific unit; indices up to twice the size wrap.
                let unit = rng.next_u64() as usize % (2 * size + 1);
                for (pool, model) in &mut pairs {
                    let expected = model.reserve_unit(unit, earliest, service);
                    assert_eq!(
                        pool.reserve_unit(unit, earliest, service),
                        expected,
                        "{ctx}"
                    );
                    ends.push(expected.1);
                }
            } else {
                for (pool, model) in &mut pairs {
                    let expected = model.reserve(earliest, service);
                    assert_eq!(pool.reserve(earliest, service), expected, "{ctx}");
                    ends.push(expected.1);
                }
            }
            if step % RUN_ENDS_EVERY == RUN_ENDS_EVERY - 1 {
                for (pool, model) in &mut pairs {
                    assert_eq!(pool.clear_gaps(), model.clear_gaps(), "{ctx}: run end");
                }
            }
            if step % RESTORE_EVERY == RESTORE_EVERY - 1 {
                let mut fresh = pairs[0].1.clone();
                fresh.clear_gaps();
                let copies = restored_copies(&pairs[0].0, &mut rng);
                pairs.truncate(1);
                pairs.extend(copies.map(|copy| (copy, fresh.clone())));
            }
            for ((pool, model), end) in pairs.iter().zip(ends) {
                // At `SimTime::MAX` the padding leaves read as free too.
                let probes = [
                    SimTime::ZERO,
                    earliest,
                    end,
                    SimTime::from_ps(1_000 * (step as u64 % 64)),
                    SimTime::MAX,
                ];
                assert_matches(pool, model, &probes, &ctx);
            }
        }
    }

    /// Two copies of `pool` restored from its checkpoint, each into a pool
    /// first dirtied by other reservations (so any index entry a restore
    /// failed to rebuild would show).
    fn restored_copies(pool: &ResourcePool, rng: &mut FaultPlan) -> [ResourcePool; 2] {
        let mut bytes = Vec::new();
        pool.encode_into(&mut bytes);
        [(); 2].map(|()| {
            let mut p = ResourcePool::new(pool.len());
            for _ in 0..1 + rng.next_u64() % 5 {
                let at = SimTime::from_ps(1_000 * (rng.next_u64() % 32));
                p.reserve(at, Duration::from_ps(1_000 * (1 + rng.next_u64() % 9)));
            }
            p.restore_from(&mut Reader::new(&bytes)).unwrap();
            p
        })
    }
}
