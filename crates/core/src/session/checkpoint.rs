//! Device-aging checkpoints: [`Session::export_device`] /
//! [`Session::import_device`] and their versioned byte format.

use conduit_sim::{DeviceState, SsdDevice};
use conduit_types::bytes::{put_u16, put_u64, Reader};
use conduit_types::{ConduitError, Result, SimTime};

use super::lanes::WarmDevice;
use super::{DeviceHandle, Session};

/// Magic bytes identifying a device checkpoint exported by
/// [`Session::export_device`] (configuration fingerprint + stream clock +
/// embedded [`conduit_sim::DeviceState`] image).
pub const DEVICE_CHECKPOINT_MAGIC: [u8; 4] = *b"CDK1";

/// Device-checkpoint format version, the only one [`Session::import_device`]
/// accepts. A version-3 checkpoint wraps the version-3
/// [`conduit_sim::DeviceState`] image (sparse resource timelines, the
/// fault-injection plan cursor, retired-block accounting and device health),
/// so a degraded device survives export/import bit-identically. It embeds
/// the exporting session's combined configuration fingerprint
/// ([`SsdConfig::fingerprint`](conduit_types::SsdConfig::fingerprint) +
/// [`conduit_types::HostConfig::fingerprint`] — host rooflines shape a warm
/// stream's clocks too), so importing a checkpoint into a session with
/// *any* configuration difference — even one with the same geometry, where
/// the shape checks cannot tell — is a hard
/// [`ConduitError::CorruptCheckpoint`] instead of a silent timing mismatch.
pub const DEVICE_CHECKPOINT_FORMAT_VERSION: u16 = 3;

impl Session {
    /// Serializes a pooled device — its stream clock plus the complete
    /// [`conduit_sim::DeviceState`] (FTL image, contention timelines,
    /// residency, energy) — into a compact versioned byte stream. Another
    /// session (or process) can [`Session::import_device`] it and continue
    /// the stream with bit-identical results, like a device-aging
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates device-construction errors for a never-used device (whose
    /// pristine state is built on demand so the checkpoint is well-formed).
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn export_device(&self, device: DeviceHandle) -> Result<Vec<u8>> {
        let mut lane = self
            .slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned");
        if lane.device.is_none() {
            let built = SsdDevice::with_faults(&self.ssd, self.slot(device).faults)?;
            lane.device = Some(WarmDevice::new(built));
        }
        let state = &lane
            .device
            .as_ref()
            .expect("device was just installed")
            .device;
        let mut out = Vec::new();
        out.extend_from_slice(&DEVICE_CHECKPOINT_MAGIC);
        put_u16(&mut out, DEVICE_CHECKPOINT_FORMAT_VERSION);
        // The configuration fingerprint pins the exact timings/energies the
        // stream was simulated under, not just the shape the state decoder
        // can check structurally.
        put_u64(&mut out, self.config_fingerprint());
        put_u64(&mut out, lane.clock.as_ps());
        out.extend_from_slice(&state.state().to_bytes());
        Ok(out)
    }

    /// The combined fingerprint device checkpoints embed: FNV-1a over the
    /// SSD and host configuration fingerprints. Both sides matter — warm
    /// stream clocks depend on host rooflines (host-policy service times)
    /// as much as on the device's own timings.
    fn config_fingerprint(&self) -> u64 {
        let mut canonical = Vec::with_capacity(16);
        put_u64(&mut canonical, self.ssd.fingerprint());
        put_u64(&mut canonical, self.host.fingerprint());
        conduit_types::bytes::fnv1a(&canonical)
    }

    /// Revives a device checkpoint produced by [`Session::export_device`]
    /// under `name`, returning its handle. If the name already exists in
    /// the pool, the imported checkpoint **replaces** that device's state
    /// (restoring a tenant in place); otherwise a new device is created.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] for a bad magic, any
    /// version other than [`DEVICE_CHECKPOINT_FORMAT_VERSION`], truncation,
    /// or a checkpoint that does not match this session's configuration.
    /// The checkpoint embeds the exporting session's combined SSD + host
    /// configuration fingerprint
    /// ([`SsdConfig::fingerprint`](conduit_types::SsdConfig::fingerprint),
    /// [`conduit_types::HostConfig::fingerprint`]), so **any**
    /// configuration difference — including same-shape timing or energy
    /// changes the structural checks cannot see — is a hard error. On error
    /// the pool is left unchanged.
    pub fn import_device(&mut self, name: &str, bytes: &[u8]) -> Result<DeviceHandle> {
        if bytes.len() < 6 || bytes[..4] != DEVICE_CHECKPOINT_MAGIC {
            return Err(ConduitError::corrupt_checkpoint(
                "bad device-checkpoint magic",
            ));
        }
        let tail = &bytes[4..];
        let mut r = Reader::new(tail);
        let version = r.u16()?;
        if version != DEVICE_CHECKPOINT_FORMAT_VERSION {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unsupported device-checkpoint format version {version} \
                 (expected {DEVICE_CHECKPOINT_FORMAT_VERSION})"
            )));
        }
        let fingerprint = r.u64()?;
        let expected = self.config_fingerprint();
        if fingerprint != expected {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "device checkpoint was exported under a different \
                 SSD/host configuration (fingerprint \
                 {fingerprint:#018x}, this session's is \
                 {expected:#018x}); replaying it here would silently \
                 change the stream's timings"
            )));
        }
        let clock = SimTime::from_ps(r.counter()?);
        let consumed = tail.len() - r.remaining();
        let state = DeviceState::from_bytes(&self.ssd, &tail[consumed..])?;
        let faults = *state.ftl().faults();
        let device = SsdDevice::with_state(&self.ssd, state)?;
        let handle = self.create_device(name);
        // The device keeps its own fault plan, so a reset rebuilds it with
        // the plan it was exported with.
        let slot = &mut self.devices[handle.index()];
        slot.faults = faults;
        let lane = slot.lane.get_mut().expect("device-lane mutex poisoned");
        lane.device = Some(WarmDevice::new(device));
        lane.clock = clock;
        Ok(handle)
    }
}
