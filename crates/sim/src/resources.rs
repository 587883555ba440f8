//! Contended-resource timelines.
//!
//! Every shared unit in the SSD (a flash channel, a flash die, a DRAM bank,
//! the DRAM bus, a controller core, the PCIe link) is modelled as a
//! [`SharedResource`]: a single server whose next free time advances as work
//! is reserved on it. Groups of interchangeable units (dies, banks, cores)
//! form a [`ResourcePool`] that always serves new work on the
//! earliest-available unit.
//!
//! This is the mechanism behind two of Conduit's cost-function features:
//! the *resource queueing delay* (how long until the unit is free) and the
//! implicit contention captured in data-movement times.
//!
//! # The pool index
//!
//! A pool answers its hot queries without walking its units. It keeps a
//! min-tree (tournament tree) over the units' busy-until times, with the
//! leaves padded to a power of two by [`SimTime::MAX`], each unit's total
//! busy time in nanoseconds, and one past the highest unit that has been
//! busy. Every reservation updates its unit's entries and the path to the
//! root; a checkpoint restore rebuilds all of it. None of it is serialized,
//! and pool equality compares the units only.
//!
//! * [`ResourcePool::reserve`] serves work arriving at `earliest` on the
//!   unit that minimizes `max(busy_until, earliest)`, breaking ties towards
//!   the lowest unit index. That minimum is `t = max(earliest, root)`, and
//!   the lowest-index unit reaching it is the leftmost unit whose busy-until
//!   is at most `t`: one descent from the root finds it.
//! * [`ResourcePool::queue_delay`] reads the root.
//! * [`ResourcePool::reserve_gang`] serves `count` equal sub-operations
//!   arriving together at `earliest` (a PuD vector's row-wide sub-operations
//!   on the bank pool) with one query. A scan collects the leftmost units
//!   free at `earliest`, up to `count`: one descent finds the first, and
//!   each next one is the leftmost free unit of the nearest right sibling
//!   subtree that holds one, so busy subtrees are skipped whole. The caller
//!   turns how many it found into the service time, those units are
//!   reserved together, and each of their ancestors is refreshed once. The
//!   sub-operations left over, when fewer units are free than `count`, go
//!   through [`ResourcePool::reserve`] one at a time. The result is exactly
//!   that of counting the free units and then making `count` sequential
//!   [`ResourcePool::reserve`] calls: each of those takes the leftmost unit
//!   still free at `earliest`, which stops being free once its reservation
//!   ends after `earliest`. A reservation that ends *at* `earliest` (zero
//!   service) leaves its unit free for the next call, so then every
//!   sub-operation goes one at a time.
//! * [`ResourcePool::utilization`] is an in-order sum over the units up to
//!   the highest one that has ever been busy, one division per unit. A unit
//!   that has never been busy adds exactly `+0.0` to a non-negative partial
//!   sum, so stopping there changes no bit of the answer.

use conduit_types::bytes::{put_u64, Reader};
use conduit_types::{ConduitError, Duration, Result, SimTime};

/// A single contended unit with a busy-until timeline.
///
/// # Examples
///
/// ```
/// use conduit_sim::SharedResource;
/// use conduit_types::{Duration, SimTime};
///
/// let mut ch = SharedResource::new();
/// let (s1, e1) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// let (s2, _e2) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1); // second request queues behind the first
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedResource {
    busy_until: SimTime,
    total_busy: Duration,
    completed: u64,
}

impl SharedResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SharedResource::default()
    }

    /// Reserves the resource for `service` time, starting no earlier than
    /// `earliest`. Returns the actual `(start, end)` interval.
    pub fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        self.total_busy += service;
        self.completed += 1;
        (start, end)
    }

    /// Reserves `count` back-to-back slots of `service` each, the first
    /// starting no earlier than `earliest`, as **one** timeline update.
    /// Returns the `(start, end)` of the whole window; slot `i` occupies
    /// `[start + service·i, start + service·(i+1))`.
    ///
    /// Equivalent to `count` chained [`SharedResource::reserve`] calls where
    /// each call's `earliest` is at or before the previous end (each slot
    /// then starts exactly at `busy_until`): `busy_until`, `total_busy` and
    /// `completed` land on the same values because all the arithmetic is
    /// integer picoseconds. The engine reserves a strip's offloader-core
    /// windows this way.
    pub fn commit_batch(
        &mut self,
        earliest: SimTime,
        service: Duration,
        count: u64,
    ) -> (SimTime, SimTime) {
        let start = earliest.max(self.busy_until);
        let end = start + service * count;
        self.busy_until = end;
        self.total_busy += service * count;
        self.completed += count;
        (start, end)
    }

    /// How long a request arriving at `at` would wait before the resource is
    /// free (the queueing delay feature of the cost function).
    pub fn queue_delay(&self, at: SimTime) -> Duration {
        self.busy_until.saturating_since(at)
    }

    /// The time at which the resource next becomes free.
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
    /// count) to `out`.
    fn encode_timeline(&self, out: &mut Vec<u8>) {
        put_u64(out, self.busy_until.as_ps());
        put_u64(out, self.total_busy.as_ps());
        put_u64(out, self.completed);
    }

    /// Restores the timeline state written by
    /// [`SharedResource::encode_timeline`].
    fn restore_timeline(&mut self, r: &mut Reader<'_>) -> Result<()> {
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

    /// Reserves the earliest-available unit for `service` time starting no
    /// earlier than `earliest`, the lowest-index one among equals. Returns
    /// `(start, end, unit_index)`.
    pub fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime, usize) {
        // The earliest start any unit offers; the leftmost unit free by then
        // is the lowest-index unit that offers it.
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
        let idx = node - leaves;
        let (start, end) = self.reserve_at(idx, earliest, service);
        (start, end, idx)
    }

    /// Reserves a *specific* unit (e.g. the die where an operand physically
    /// lives); the index wraps modulo the pool size. Returns `(start, end)`.
    pub fn reserve_unit(
        &mut self,
        unit: usize,
        earliest: SimTime,
        service: Duration,
    ) -> (SimTime, SimTime) {
        self.reserve_at(unit % self.units.len(), earliest, service)
    }

    /// Queueing delay a request arriving at `at` would see on the
    /// earliest-available unit.
    pub fn queue_delay(&self, at: SimTime) -> Duration {
        self.free_at[1].saturating_since(at)
    }

    /// Reserves `count` sub-operations arriving at `earliest`, each for the
    /// same service time, exactly as `count` sequential
    /// [`ResourcePool::reserve`] calls would (see the module documentation).
    /// `service` receives how many units are free at `earliest`, counting
    /// no further than `count`, and returns the service time. Returns that
    /// service time and when the last sub-operation ends (`earliest` when
    /// `count` is zero).
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
                self.reserve_leaf(idx, earliest, service);
            }
            left -= gang.len();
            ready = end;
            self.refresh_ancestors(&gang);
        }
        for _ in 0..left {
            let (_, end, _) = self.reserve(earliest, service);
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

    /// Reserves unit `idx` and refreshes its leaf, the path to the root and
    /// its busy-time column entry.
    fn reserve_at(
        &mut self,
        idx: usize,
        earliest: SimTime,
        service: Duration,
    ) -> (SimTime, SimTime) {
        let interval = self.reserve_leaf(idx, earliest, service);
        let mut node = self.leaves() + idx;
        while node > 1 {
            node /= 2;
            self.refresh(node);
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
    ) -> (SimTime, SimTime) {
        let leaves = self.leaves();
        let unit = &mut self.units[idx];
        let interval = unit.reserve(earliest, service);
        self.busy_ns[idx] = unit.total_busy.as_ns();
        if !unit.total_busy.is_zero() {
            self.busy_prefix = self.busy_prefix.max(idx + 1);
        }
        self.free_at[leaves + idx] = unit.busy_until;
        interval
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

    /// Linear-scan reference model of [`ResourcePool`]: every query walks
    /// the units, and utilization divides each unit's busy time by the
    /// elapsed time in two `as_ns` conversions.
    struct ScanPool {
        units: Vec<SharedResource>,
    }

    impl ScanPool {
        fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime, usize) {
            let idx = self
                .units
                .iter()
                .enumerate()
                .min_by_key(|(_, u)| u.free_at().max(earliest))
                .map(|(i, _)| i)
                .expect("pools are non-empty");
            let (start, end) = self.units[idx].reserve(earliest, service);
            (start, end, idx)
        }

        fn reserve_unit(
            &mut self,
            unit: usize,
            earliest: SimTime,
            service: Duration,
        ) -> (SimTime, SimTime) {
            let idx = unit % self.units.len();
            self.units[idx].reserve(earliest, service)
        }

        fn queue_delay(&self, at: SimTime) -> Duration {
            self.units
                .iter()
                .map(|u| u.queue_delay(at))
                .min()
                .expect("pools are non-empty")
        }

        fn free_units(&self, at: SimTime) -> usize {
            self.units.iter().filter(|u| u.free_at() <= at).count()
        }

        /// The reference for [`ResourcePool::reserve_gang`]: count the free
        /// units capped at `count`, compute the service time, then make
        /// `count` sequential reservations.
        fn reserve_gang(
            &mut self,
            earliest: SimTime,
            count: usize,
            service: impl FnOnce(usize) -> Duration,
        ) -> (Duration, SimTime) {
            let service = service(self.free_units(earliest).min(count));
            let mut ready = earliest;
            for _ in 0..count {
                ready = ready.max(self.reserve(earliest, service).1);
            }
            (service, ready)
        }

        fn utilization(&self, now: SimTime) -> f64 {
            self.units.iter().map(|u| u.utilization(now)).sum::<f64>() / self.units.len() as f64
        }
    }

    /// Asserts that `pool` answers every query exactly as the reference
    /// does at each of the probe times.
    fn assert_matches(pool: &ResourcePool, model: &ScanPool, probes: &[SimTime], ctx: &str) {
        assert_eq!(pool.units, model.units, "{ctx}: unit timelines");
        assert_eq!(
            pool.completed(),
            model.units.iter().map(|u| u.completed()).sum::<u64>(),
            "{ctx}"
        );
        assert_eq!(
            pool.total_busy(),
            model.units.iter().map(|u| u.total_busy()).sum::<Duration>(),
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
                .filter(|&i| model.units[i].free_at() <= at)
                .collect();
            assert_eq!(gang, free, "{ctx}: units free at {at:?}");
        }
        assert!(pool.gang.is_empty(), "{ctx}: gang scratch left behind");
    }

    #[test]
    fn indexed_pool_matches_a_linear_scan_model() {
        // Sizes that are not powers of two exercise the padding leaves.
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
            let mut model = ScanPool {
                units: vec![SharedResource::new(); size],
            };
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
    /// steps two restored copies of the pool join it and continue
    /// alongside.
    fn drive_against_model(size: usize, seed: u64) {
        const STEPS: usize = 240;
        const RESTORE_EVERY: usize = 9;
        let mut rng = FaultPlan::new(seed * 1_000 + size as u64);
        let mut model = ScanPool {
            units: vec![SharedResource::new(); size],
        };
        let mut pools = vec![ResourcePool::new(size)];
        for step in 0..STEPS {
            let ctx = format!("size {size}, seed {seed}, step {step}");
            // Arrivals on a coarse grid around a random unit's busy-until:
            // before it, exactly at it, after it, or at time zero. On the
            // grid, ties between units are common.
            let anchor = model.units[rng.next_u64() as usize % size].free_at();
            let offset = 1_000 * (rng.next_u64() % 4);
            let earliest = SimTime::from_ps(match rng.next_u64() % 4 {
                0 => anchor.as_ps().saturating_sub(offset),
                1 => anchor.as_ps(),
                2 => anchor.as_ps() + offset,
                _ => 0,
            });
            let service = Duration::from_ps(1_000 * (rng.next_u64() % 6));
            let choice = rng.next_u64() % 6;
            let end = if choice < 2 {
                // A gang of sub-operations, counted below, at and above both
                // the free units and the pool size (zero included); the
                // service time falls with the free count as PuD's waves do,
                // and is zero when `service` is.
                let free = model.free_units(earliest);
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
                let expected = model.reserve_gang(earliest, count, waves);
                for pool in &mut pools {
                    assert_eq!(pool.reserve_gang(earliest, count, waves), expected, "{ctx}");
                }
                expected.1
            } else if choice < 4 {
                // A specific unit; indices up to twice the size wrap.
                let unit = rng.next_u64() as usize % (2 * size + 1);
                let expected = model.reserve_unit(unit, earliest, service);
                for pool in &mut pools {
                    let got = pool.reserve_unit(unit, earliest, service);
                    assert_eq!(got, expected, "{ctx}");
                }
                expected.1
            } else {
                let expected = model.reserve(earliest, service);
                for pool in &mut pools {
                    assert_eq!(pool.reserve(earliest, service), expected, "{ctx}");
                }
                expected.1
            };
            // At `SimTime::MAX` the padding leaves read as free too.
            let probes = [
                SimTime::ZERO,
                earliest,
                end,
                SimTime::from_ps(1_000 * (rng.next_u64() % 64)),
                SimTime::MAX,
            ];
            if step % RESTORE_EVERY == RESTORE_EVERY - 1 {
                let copies = restored_copies(&pools[0], &mut rng);
                pools.truncate(1);
                pools.extend(copies);
            }
            for pool in &pools {
                assert_matches(pool, &model, &probes, &ctx);
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
