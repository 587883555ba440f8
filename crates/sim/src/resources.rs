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
/// let mut ch = SharedResource::new("flash-channel-0");
/// let (s1, e1) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// let (s2, _e2) = ch.reserve(SimTime::ZERO, Duration::from_us(3.0));
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1); // second request queues behind the first
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedResource {
    name: String,
    busy_until: SimTime,
    total_busy: Duration,
    completed: u64,
}

impl SharedResource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Self {
        SharedResource {
            name: name.into(),
            busy_until: SimTime::ZERO,
            total_busy: Duration::ZERO,
            completed: 0,
        }
    }

    /// The resource's name (for reports and debugging).
    pub fn name(&self) -> &str {
        &self.name
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
    /// count) to `out`; the name is configuration-derived and not stored.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.busy_until.as_ps());
        put_u64(out, self.total_busy.as_ps());
        put_u64(out, self.completed);
    }

    /// Restores the timeline state serialized by
    /// [`SharedResource::encode_into`], keeping this resource's name.
    pub(crate) fn restore_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.busy_until = SimTime::from_ps(r.counter()?);
        self.total_busy = Duration::from_ps(r.counter()?);
        self.completed = r.counter()?;
        Ok(())
    }

    /// Whether the timeline carries no state worth serializing (never
    /// reserved and back at time zero).
    pub(crate) fn is_untouched(&self) -> bool {
        self.busy_until == SimTime::ZERO && self.total_busy.is_zero() && self.completed == 0
    }

    /// Resets the timeline to the idle state, keeping the name.
    fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.total_busy = Duration::ZERO;
        self.completed = 0;
    }

    /// Sparse variant of [`SharedResource::encode_into`]: an untouched
    /// timeline costs a single flag byte instead of 24 zero bytes.
    pub(crate) fn encode_sparse_into(&self, out: &mut Vec<u8>) {
        if self.is_untouched() {
            out.push(0);
        } else {
            out.push(1);
            self.encode_into(out);
        }
    }

    /// Restores the state serialized by
    /// [`SharedResource::encode_sparse_into`].
    pub(crate) fn restore_sparse_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        match r.u8()? {
            0 => {
                self.reset();
                Ok(())
            }
            1 => self.restore_from(r),
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
/// the DRAM banks, or the ISP compute cores).
///
/// # Examples
///
/// ```
/// use conduit_sim::ResourcePool;
/// use conduit_types::{Duration, SimTime};
///
/// let mut dies = ResourcePool::new("die", 2);
/// // Two requests run in parallel on different units, the third queues.
/// let (_, e1, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// let (_, e2, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// let (s3, _, _) = dies.reserve(SimTime::ZERO, Duration::from_us(10.0));
/// assert_eq!(e1, e2);
/// assert_eq!(s3, e1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourcePool {
    units: Vec<SharedResource>,
}

impl ResourcePool {
    /// Creates a pool of `count` idle units.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(name: &str, count: usize) -> Self {
        assert!(count > 0, "resource pool must have at least one unit");
        ResourcePool {
            units: (0..count)
                .map(|i| SharedResource::new(format!("{name}-{i}")))
                .collect(),
        }
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
    /// earlier than `earliest`. Returns `(start, end, unit_index)`.
    pub fn reserve(&mut self, earliest: SimTime, service: Duration) -> (SimTime, SimTime, usize) {
        let idx = self.earliest_unit(earliest);
        let (start, end) = self.units[idx].reserve(earliest, service);
        (start, end, idx)
    }

    /// Reserves a *specific* unit (e.g. the die where an operand physically
    /// lives). Returns `(start, end)`.
    pub fn reserve_unit(
        &mut self,
        unit: usize,
        earliest: SimTime,
        service: Duration,
    ) -> (SimTime, SimTime) {
        let idx = unit % self.units.len();
        self.units[idx].reserve(earliest, service)
    }

    /// Queueing delay a request arriving at `at` would see on the
    /// earliest-available unit.
    pub fn queue_delay(&self, at: SimTime) -> Duration {
        self.units
            .iter()
            .map(|u| u.queue_delay(at))
            .min()
            .unwrap_or(Duration::ZERO)
    }

    /// Queueing delay on a specific unit.
    pub fn queue_delay_on(&self, unit: usize, at: SimTime) -> Duration {
        self.units[unit % self.units.len()].queue_delay(at)
    }

    /// Number of units that are free at `at`.
    pub fn free_units(&self, at: SimTime) -> usize {
        self.units.iter().filter(|u| u.free_at() <= at).count()
    }

    /// Mean utilization of the pool over `[ZERO, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if self.units.is_empty() {
            return 0.0;
        }
        self.units.iter().map(|u| u.utilization(now)).sum::<f64>() / self.units.len() as f64
    }

    /// Total busy time across all units.
    pub fn total_busy(&self) -> Duration {
        self.units.iter().map(|u| u.total_busy()).sum()
    }

    /// Total reservations served across all units.
    pub fn completed(&self) -> u64 {
        self.units.iter().map(|u| u.completed()).sum()
    }

    /// Appends every unit's timeline state to `out` behind a unit count.
    ///
    /// This dense layout is what v1/v2 checkpoints stored; current encoders
    /// use [`ResourcePool::encode_sparse_into`], so production code only
    /// ever decodes it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.units.len() as u64);
        for unit in &self.units {
            unit.encode_into(out);
        }
    }

    /// Restores the pool serialized by [`ResourcePool::encode_into`],
    /// keeping the unit names.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] if the stored unit count
    /// does not match this (configuration-derived) pool's size.
    pub(crate) fn restore_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let count = r.u64()? as usize;
        if count != self.units.len() {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "pool checkpoint has {count} units but the configuration describes {}",
                self.units.len()
            )));
        }
        for unit in &mut self.units {
            unit.restore_from(r)?;
        }
        Ok(())
    }

    /// Sparse variant of [`ResourcePool::encode_into`]: only touched units
    /// are stored (unit count, touched count, then `(index, timeline)` pairs
    /// with strictly increasing indices), so an idle pool costs 16 bytes
    /// regardless of its size.
    pub(crate) fn encode_sparse_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.units.len() as u64);
        let touched = self.units.iter().filter(|u| !u.is_untouched()).count();
        put_u64(out, touched as u64);
        for (i, unit) in self.units.iter().enumerate() {
            if !unit.is_untouched() {
                put_u64(out, i as u64);
                unit.encode_into(out);
            }
        }
    }

    /// Restores the pool serialized by [`ResourcePool::encode_sparse_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] if the stored unit count
    /// does not match the configuration, if more units are marked touched
    /// than exist, or if the touched indices are not strictly increasing and
    /// in range.
    pub(crate) fn restore_sparse_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
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
        for unit in &mut self.units {
            unit.reset();
        }
        let mut prev: Option<u64> = None;
        for _ in 0..touched {
            let idx = r.u64()?;
            if prev.is_some_and(|p| idx <= p) || idx >= count as u64 {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "touched unit index {idx} is out of order or out of range"
                )));
            }
            prev = Some(idx);
            self.units[idx as usize].restore_from(r)?;
        }
        Ok(())
    }

    fn earliest_unit(&self, at: SimTime) -> usize {
        self.units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| u.free_at().max(at))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> Duration {
        Duration::from_us(v)
    }

    #[test]
    fn shared_resource_serializes_work() {
        let mut r = SharedResource::new("ch");
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
        let mut batched = SharedResource::new("ch");
        let mut chained = SharedResource::new("ch");
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
        let mut r = SharedResource::new("ch");
        assert_eq!(r.queue_delay(SimTime::ZERO), Duration::ZERO);
        r.reserve(SimTime::ZERO, us(8.0));
        assert_eq!(r.queue_delay(SimTime::ZERO), us(8.0));
        assert_eq!(r.queue_delay(SimTime::ZERO + us(3.0)), us(5.0));
        assert_eq!(r.queue_delay(SimTime::ZERO + us(20.0)), Duration::ZERO);
    }

    #[test]
    fn idle_gaps_do_not_count_as_busy() {
        let mut r = SharedResource::new("ch");
        r.reserve(SimTime::ZERO, us(2.0));
        // Next request arrives much later; the gap is idle.
        r.reserve(SimTime::ZERO + us(100.0), us(2.0));
        assert_eq!(r.total_busy(), us(4.0));
        let util = r.utilization(SimTime::ZERO + us(102.0));
        assert!((util - 4.0 / 102.0).abs() < 1e-9);
    }

    #[test]
    fn pool_spreads_work_across_units() {
        let mut p = ResourcePool::new("die", 4);
        for _ in 0..4 {
            p.reserve(SimTime::ZERO, us(10.0));
        }
        assert_eq!(p.free_units(SimTime::ZERO), 0);
        assert_eq!(p.queue_delay(SimTime::ZERO), us(10.0));
        assert_eq!(p.completed(), 4);
        // A fifth request queues on whichever unit frees first.
        let (s, _, _) = p.reserve(SimTime::ZERO, us(1.0));
        assert_eq!(s, SimTime::ZERO + us(10.0));
    }

    #[test]
    fn pool_tie_breaks_on_lowest_unit_index() {
        let mut p = ResourcePool::new("die", 3);
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
        let mut p = ResourcePool::new("die", 3);
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
        let mut p = ResourcePool::new("bank", 2);
        p.reserve_unit(0, SimTime::ZERO, us(5.0));
        assert_eq!(p.queue_delay_on(0, SimTime::ZERO), us(5.0));
        assert_eq!(p.queue_delay_on(1, SimTime::ZERO), Duration::ZERO);
        // Unit index wraps.
        p.reserve_unit(3, SimTime::ZERO, us(2.0));
        assert_eq!(p.queue_delay_on(1, SimTime::ZERO), us(2.0));
    }

    #[test]
    fn pool_utilization_averages_units() {
        let mut p = ResourcePool::new("core", 2);
        p.reserve_unit(0, SimTime::ZERO, us(10.0));
        let util = p.utilization(SimTime::ZERO + us(10.0));
        assert!((util - 0.5).abs() < 1e-9);
        assert_eq!(p.total_busy(), us(10.0));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new("x", 0);
    }

    #[test]
    fn sparse_resource_encoding_roundtrips_and_stays_small() {
        // Idle: one flag byte instead of 24 zeros.
        let idle = SharedResource::new("ch");
        let mut buf = Vec::new();
        idle.encode_sparse_into(&mut buf);
        assert_eq!(buf, vec![0]);
        let mut back = SharedResource::new("ch");
        back.reserve(SimTime::ZERO, us(3.0)); // stale state must be cleared
        back.restore_sparse_from(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, idle);

        // Busy: flag byte plus the dense triple.
        let mut busy = SharedResource::new("ch");
        busy.reserve(SimTime::ZERO, us(7.0));
        let mut buf = Vec::new();
        busy.encode_sparse_into(&mut buf);
        assert_eq!(buf.len(), 1 + 24);
        let mut back = SharedResource::new("ch");
        back.restore_sparse_from(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, busy);

        // Garbage flag is rejected.
        let mut r = Reader::new(&[7u8]);
        assert!(SharedResource::new("ch")
            .restore_sparse_from(&mut r)
            .is_err());
    }

    #[test]
    fn sparse_pool_encoding_skips_idle_units() {
        let mut p = ResourcePool::new("die", 16);
        p.reserve_unit(3, SimTime::ZERO, us(5.0));
        p.reserve_unit(11, SimTime::ZERO, us(2.0));
        let mut sparse = Vec::new();
        p.encode_sparse_into(&mut sparse);
        // 16 + 16 header, two touched units at 8 + 24 each.
        assert_eq!(sparse.len(), 16 + 2 * 32);
        let mut dense = Vec::new();
        p.encode_into(&mut dense);
        assert!(sparse.len() < dense.len());

        let mut back = ResourcePool::new("die", 16);
        back.reserve_unit(0, SimTime::ZERO, us(9.0)); // must be reset on restore
        back.restore_sparse_from(&mut Reader::new(&sparse)).unwrap();
        assert_eq!(back, p);

        // A fully idle pool costs only the 16-byte header.
        let idle = ResourcePool::new("die", 64);
        let mut buf = Vec::new();
        idle.encode_sparse_into(&mut buf);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn sparse_pool_restore_rejects_malformed_indices() {
        let probe =
            |bytes: &[u8]| ResourcePool::new("die", 4).restore_sparse_from(&mut Reader::new(bytes));
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
}
