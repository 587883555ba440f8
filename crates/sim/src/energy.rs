//! Energy accounting split into data movement and computation.
//!
//! Figure 7(b) of the paper reports energy normalized to CPU with each bar
//! split into *data movement* energy and *computation* energy; the meter
//! keeps exactly that split, with a finer per-source breakdown for analysis.
//!
//! The meter sits on the simulator's per-instruction hot path (every flash
//! read, DRAM bus transfer, host-link transfer and compute op charges it),
//! so attribution is a typed [`EnergySource`] indexing a fixed-size array —
//! no string formatting, hashing or heap allocation per charge.

use conduit_types::bytes::{put_f64, Reader};
use conduit_types::{Energy, EnergySource, Result};

/// Accumulates energy as computation or data movement, and by source.
///
/// # Examples
///
/// ```
/// use conduit_sim::EnergyMeter;
/// use conduit_types::{Energy, EnergySource};
///
/// let mut meter = EnergyMeter::new();
/// meter.charge(EnergySource::Ifp, Energy::from_nj(10.0));
/// meter.charge(EnergySource::HostLink, Energy::from_nj(30.0));
/// assert_eq!(meter.total(), Energy::from_nj(40.0));
/// assert_eq!(meter.data_movement(), Energy::from_nj(30.0));
/// assert_eq!(meter.source(EnergySource::Ifp), Energy::from_nj(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    compute: Energy,
    data_movement: Energy,
    by_source: [Energy; EnergySource::COUNT],
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records `energy`, attributed to `source` (whose kind determines the
    /// compute / data-movement category). Allocation-free.
    #[inline]
    pub fn charge(&mut self, source: EnergySource, energy: Energy) {
        if source.is_compute() {
            self.compute += energy;
        } else {
            self.data_movement += energy;
        }
        self.by_source[source.index()] += energy;
    }

    /// Total energy recorded.
    pub fn total(&self) -> Energy {
        self.compute + self.data_movement
    }

    /// Energy spent on computation.
    pub fn compute(&self) -> Energy {
        self.compute
    }

    /// Energy spent moving data.
    pub fn data_movement(&self) -> Energy {
        self.data_movement
    }

    /// Fraction of the total energy that is data movement (0 when nothing
    /// has been recorded).
    pub fn data_movement_fraction(&self) -> f64 {
        let total = self.total().as_nj();
        if total == 0.0 {
            0.0
        } else {
            self.data_movement.as_nj() / total
        }
    }

    /// Energy attributed to one source.
    pub fn source(&self, source: EnergySource) -> Energy {
        self.by_source[source.index()]
    }

    /// Iterator over `(source, energy)` for every source that recorded any
    /// energy, in dense-index order.
    pub fn by_source(&self) -> impl Iterator<Item = (EnergySource, Energy)> + '_ {
        EnergySource::ALL
            .iter()
            .map(move |&s| (s, self.by_source[s.index()]))
            .filter(|(_, e)| !e.is_zero())
    }

    /// Appends the accumulated totals (category sums and the per-source
    /// array, as exact IEEE-754 bit patterns) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.compute.as_nj());
        put_f64(out, self.data_movement.as_nj());
        for source in &self.by_source {
            put_f64(out, source.as_nj());
        }
    }

    /// Decodes a meter serialized by [`EnergyMeter::encode_into`]. The
    /// category sums are stored (not re-derived) so floating-point
    /// accumulation order never changes the restored totals.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let mut meter = EnergyMeter::new();
        meter.compute = Energy::from_nj(r.f64()?);
        meter.data_movement = Energy::from_nj(r.f64()?);
        for source in &mut meter.by_source {
            *source = Energy::from_nj(r.f64()?);
        }
        Ok(meter)
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.compute += other.compute;
        self.data_movement += other.data_movement;
        for (mine, theirs) in self.by_source.iter_mut().zip(other.by_source.iter()) {
            *mine += *theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_accumulate_separately() {
        let mut m = EnergyMeter::new();
        m.charge(EnergySource::Isp, Energy::from_nj(5.0));
        m.charge(EnergySource::Pud, Energy::from_nj(7.0));
        m.charge(EnergySource::FlashRead, Energy::from_nj(3.0));
        assert_eq!(m.compute(), Energy::from_nj(12.0));
        assert_eq!(m.data_movement(), Energy::from_nj(3.0));
        assert_eq!(m.total(), Energy::from_nj(15.0));
        assert!((m.data_movement_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn sources_are_tracked() {
        let mut m = EnergyMeter::new();
        m.charge(EnergySource::Isp, Energy::from_nj(5.0));
        m.charge(EnergySource::Isp, Energy::from_nj(5.0));
        assert_eq!(m.source(EnergySource::Isp), Energy::from_nj(10.0));
        let nonzero: Vec<_> = m.by_source().collect();
        assert_eq!(nonzero, vec![(EnergySource::Isp, Energy::from_nj(10.0))]);
    }

    #[test]
    fn merge_combines_meters() {
        let mut a = EnergyMeter::new();
        a.charge(EnergySource::Isp, Energy::from_nj(1.0));
        let mut b = EnergyMeter::new();
        b.charge(EnergySource::HostLink, Energy::from_nj(2.0));
        b.charge(EnergySource::Isp, Energy::from_nj(3.0));
        a.merge(&b);
        assert_eq!(a.total(), Energy::from_nj(6.0));
        assert_eq!(a.source(EnergySource::Isp), Energy::from_nj(4.0));
    }

    #[test]
    fn empty_meter_has_zero_fraction() {
        assert_eq!(EnergyMeter::new().data_movement_fraction(), 0.0);
    }

    #[test]
    fn charge_is_copy_sized_and_stack_only() {
        // The meter is a plain Copy struct: charging cannot allocate.
        fn assert_copy<T: Copy>() {}
        assert_copy::<EnergyMeter>();
    }
}
