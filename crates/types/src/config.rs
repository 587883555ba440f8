//! Configuration of the simulated SSD and host (Table 2 of the paper).
//!
//! Every latency, bandwidth and energy value that drives the models in the
//! substrate crates lives here, with defaults taken directly from Table 2 and
//! the calibration sources the paper cites (Flash-Cosmos, Ares-Flash,
//! MIMDRAM, ParaBit, Samsung 980 Pro datasheets). Benchmarks and tests can
//! build modified configurations (e.g. for ablations) by mutating the
//! defaults.

use crate::bytes::{put_f64, put_u32, put_u64};
use crate::energy::Energy;
use crate::time::Duration;

/// Appends a [`Duration`] to a canonical encoding as raw picoseconds.
fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_ps());
}

/// Appends an [`Energy`] to a canonical encoding as the IEEE-754 bit
/// pattern of its nanojoule value (exact).
fn put_energy(out: &mut Vec<u8>, e: Energy) {
    put_f64(out, e.as_nj());
}

/// NAND flash subsystem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Number of flash channels (each with its own flash controller).
    pub channels: u32,
    /// Number of dies per channel.
    pub dies_per_channel: u32,
    /// Number of planes per die.
    pub planes_per_die: u32,
    /// Number of blocks per plane.
    pub blocks_per_plane: u32,
    /// Number of pages per block (SLC-mode wordlines).
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Per-channel bandwidth between flash dies and the flash controller.
    /// No model reads it (a page crosses the channel in
    /// [`FlashConfig::t_dma`]); [`SsdConfig::fingerprint`] covers it.
    pub channel_bytes_per_sec: f64,
    /// SLC-mode page read (sensing) latency, `tR`.
    pub t_read: Duration,
    /// SLC-mode page program latency, `tPROG`.
    pub t_program: Duration,
    /// Block erase latency, `tBERS`.
    pub t_erase: Duration,
    /// Multi-wordline-sensing AND/OR latency (Flash-Cosmos).
    pub t_and_or: Duration,
    /// Latch-to-latch transfer latency inside the page buffer (ParaBit /
    /// Ares-Flash).
    pub t_latch_transfer: Duration,
    /// In-flash XOR latency.
    pub t_xor: Duration,
    /// Page-buffer to flash-controller DMA latency for one page.
    pub t_dma: Duration,
    /// Maximum number of operands a single multi-wordline AND can combine
    /// (all operands must be in the same block).
    pub max_and_operands: u32,
    /// Maximum number of operands a single inter-block OR can combine
    /// (operands in different blocks of the same plane).
    pub max_or_operands: u32,
    /// Energy of reading one page per channel.
    pub e_read: Energy,
    /// Energy of programming one page per channel.
    pub e_program: Energy,
    /// Energy of a multi-wordline AND/OR per KiB of data.
    pub e_and_or_per_kib: Energy,
    /// Energy of a latch transfer per KiB of data.
    pub e_latch_per_kib: Energy,
    /// Energy of an in-flash XOR per KiB of data.
    pub e_xor_per_kib: Energy,
    /// Energy of a page DMA transfer per channel.
    pub e_dma: Energy,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            channels: 8,
            dies_per_channel: 8,
            planes_per_die: 2,
            blocks_per_plane: 2048,
            pages_per_block: 196,
            page_bytes: crate::addr::PAGE_BYTES,
            channel_bytes_per_sec: 1.2e9,
            t_read: Duration::from_us(22.5),
            t_program: Duration::from_us(400.0),
            t_erase: Duration::from_us(3500.0),
            t_and_or: Duration::from_ns(20.0),
            t_latch_transfer: Duration::from_ns(20.0),
            t_xor: Duration::from_ns(30.0),
            t_dma: Duration::from_us(3.3),
            max_and_operands: 48,
            max_or_operands: 4,
            e_read: Energy::from_uj(20.5),
            e_program: Energy::from_uj(35.0),
            e_and_or_per_kib: Energy::from_nj(10.0),
            e_latch_per_kib: Energy::from_nj(10.0),
            e_xor_per_kib: Energy::from_nj(20.0),
            e_dma: Energy::from_uj(7.656),
        }
    }
}

impl FlashConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`SsdConfig::fingerprint`]. The exhaustive
    /// destructuring (no `..` rest pattern) makes adding a config field
    /// without extending the fingerprint a compile error.
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let FlashConfig {
            channels,
            dies_per_channel,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            page_bytes,
            channel_bytes_per_sec,
            t_read,
            t_program,
            t_erase,
            t_and_or,
            t_latch_transfer,
            t_xor,
            t_dma,
            max_and_operands,
            max_or_operands,
            e_read,
            e_program,
            e_and_or_per_kib,
            e_latch_per_kib,
            e_xor_per_kib,
            e_dma,
        } = self;
        put_u32(out, *channels);
        put_u32(out, *dies_per_channel);
        put_u32(out, *planes_per_die);
        put_u32(out, *blocks_per_plane);
        put_u32(out, *pages_per_block);
        put_u64(out, *page_bytes);
        put_f64(out, *channel_bytes_per_sec);
        put_duration(out, *t_read);
        put_duration(out, *t_program);
        put_duration(out, *t_erase);
        put_duration(out, *t_and_or);
        put_duration(out, *t_latch_transfer);
        put_duration(out, *t_xor);
        put_duration(out, *t_dma);
        put_u32(out, *max_and_operands);
        put_u32(out, *max_or_operands);
        put_energy(out, *e_read);
        put_energy(out, *e_program);
        put_energy(out, *e_and_or_per_kib);
        put_energy(out, *e_latch_per_kib);
        put_energy(out, *e_xor_per_kib);
        put_energy(out, *e_dma);
    }

    /// Total number of dies in the SSD.
    pub fn total_dies(&self) -> u64 {
        self.channels as u64 * self.dies_per_channel as u64
    }

    /// Total number of planes in the SSD.
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * self.planes_per_die as u64
    }

    /// Total physical capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_planes()
            * self.blocks_per_plane as u64
            * self.pages_per_block as u64
            * self.page_bytes
    }

    /// Total number of physical pages.
    pub fn total_pages(&self) -> u64 {
        self.capacity_bytes() / self.page_bytes
    }
}

/// SSD-internal DRAM configuration (LPDDR4-1866).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Total DRAM capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of DRAM channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Independently-operating subarrays (mats) per bank that MIMDRAM-style
    /// PuD can drive concurrently.
    pub subarrays_per_bank: u32,
    /// Row (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Clock period.
    pub t_ck: Duration,
    /// ACT to internal read/write delay.
    pub t_rcd: Duration,
    /// Precharge latency.
    pub t_rp: Duration,
    /// Minimum row-active time.
    pub t_ras: Duration,
    /// CAS latency.
    pub t_cl: Duration,
    /// Latency of one bulk bitwise operation (bbop) — one
    /// activate-activate-precharge command triplet (MIMDRAM / Table 2).
    pub t_bbop: Duration,
    /// DRAM data-bus bandwidth available to the controller.
    pub bus_bytes_per_sec: f64,
    /// Energy of one bbop.
    pub e_bbop: Energy,
    /// Energy of one row activation + precharge.
    pub e_act_pre: Energy,
    /// Energy per byte transferred over the DRAM bus.
    pub e_bus_per_byte: Energy,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            capacity_bytes: 2 * 1024 * 1024 * 1024,
            channels: 1,
            ranks: 1,
            banks: 8,
            subarrays_per_bank: 16,
            row_bytes: 8 * 1024,
            t_ck: Duration::from_ns(1.072),
            t_rcd: Duration::from_ns(18.0),
            t_rp: Duration::from_ns(18.0),
            t_ras: Duration::from_ns(42.0),
            t_cl: Duration::from_ns(15.0),
            t_bbop: Duration::from_ns(49.0),
            bus_bytes_per_sec: 7.46e9,
            e_bbop: Energy::from_nj(0.864),
            e_act_pre: Energy::from_nj(2.5),
            e_bus_per_byte: Energy::from_pj(4.0),
        }
    }
}

impl DramConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`SsdConfig::fingerprint`] (exhaustive
    /// destructuring: adding a field without fingerprinting it fails to
    /// compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let DramConfig {
            capacity_bytes,
            channels,
            ranks,
            banks,
            subarrays_per_bank,
            row_bytes,
            t_ck,
            t_rcd,
            t_rp,
            t_ras,
            t_cl,
            t_bbop,
            bus_bytes_per_sec,
            e_bbop,
            e_act_pre,
            e_bus_per_byte,
        } = self;
        put_u64(out, *capacity_bytes);
        put_u32(out, *channels);
        put_u32(out, *ranks);
        put_u32(out, *banks);
        put_u32(out, *subarrays_per_bank);
        put_u64(out, *row_bytes);
        put_duration(out, *t_ck);
        put_duration(out, *t_rcd);
        put_duration(out, *t_rp);
        put_duration(out, *t_ras);
        put_duration(out, *t_cl);
        put_duration(out, *t_bbop);
        put_f64(out, *bus_bytes_per_sec);
        put_energy(out, *e_bbop);
        put_energy(out, *e_act_pre);
        put_energy(out, *e_bus_per_byte);
    }

    /// Total number of independently operating banks.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks
    }

    /// Total number of concurrent PuD compute units (bank × subarray
    /// combinations that can each execute one row-granular sub-operation).
    pub fn compute_units(&self) -> u32 {
        self.total_banks() * self.subarrays_per_bank.max(1)
    }

    /// Number of 32-bit elements one bank row holds (the natural PuD
    /// sub-operation width; 8 KiB rows hold 2048 such elements).
    pub fn elems_per_row(&self, elem_bits: u32) -> u32 {
        (self.row_bytes * 8 / elem_bits as u64) as u32
    }

    /// Time to move `bytes` over the DRAM bus.
    pub fn bus_transfer_time(&self, bytes: u64) -> Duration {
        Duration::for_transfer(bytes, self.bus_bytes_per_sec)
    }
}

/// SSD controller (embedded core) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlConfig {
    /// Number of embedded cores (ARM Cortex-R8 class).
    pub cores: u32,
    /// Number of cores available for offloaded computation (the rest run the
    /// FTL, host communication, and Conduit's offloader — paper footnote 3).
    pub compute_cores: u32,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// SIMD (MVE) datapath width in bytes.
    pub mve_bytes: u32,
    /// Cycles per simple ALU/bitwise vector micro-op.
    pub cycles_simple: u32,
    /// Cycles per multiply vector micro-op.
    pub cycles_mul: u32,
    /// Cycles per divide vector micro-op.
    pub cycles_div: u32,
    /// Cycles to load/store one MVE vector register from controller SRAM.
    pub cycles_mem: u32,
    /// Active power of one core in watts.
    pub core_power_w: f64,
    /// SRAM scratchpad size in bytes available for operand staging.
    pub sram_bytes: u64,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            cores: 5,
            compute_cores: 1,
            freq_hz: 1.5e9,
            mve_bytes: 32,
            cycles_simple: 1,
            cycles_mul: 2,
            cycles_div: 12,
            cycles_mem: 3,
            core_power_w: 0.35,
            sram_bytes: 512 * 1024,
        }
    }
}

impl CtrlConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`SsdConfig::fingerprint`] (exhaustive
    /// destructuring: adding a field without fingerprinting it fails to
    /// compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let CtrlConfig {
            cores,
            compute_cores,
            freq_hz,
            mve_bytes,
            cycles_simple,
            cycles_mul,
            cycles_div,
            cycles_mem,
            core_power_w,
            sram_bytes,
        } = self;
        put_u32(out, *cores);
        put_u32(out, *compute_cores);
        put_f64(out, *freq_hz);
        put_u32(out, *mve_bytes);
        put_u32(out, *cycles_simple);
        put_u32(out, *cycles_mul);
        put_u32(out, *cycles_div);
        put_u32(out, *cycles_mem);
        put_f64(out, *core_power_w);
        put_u64(out, *sram_bytes);
    }

    /// Duration of `cycles` core clock cycles.
    pub fn cycles(&self, cycles: u64) -> Duration {
        Duration::from_cycles(cycles, self.freq_hz)
    }

    /// Number of elements processed per MVE micro-op for the given element
    /// width.
    pub fn lanes_per_uop(&self, elem_bits: u32) -> u32 {
        (self.mve_bytes * 8 / elem_bits).max(1)
    }
}

/// Host ↔ SSD link (NVMe over PCIe) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostLinkConfig {
    /// PCIe payload bandwidth in bytes per second (PCIe 4.0 x4 ≈ 8 GB/s).
    pub pcie_bytes_per_sec: f64,
    /// Fixed NVMe command submission + completion overhead per request
    /// (amortized over the deep queues OSP uses for streaming reads).
    pub nvme_cmd_latency: Duration,
    /// Energy per byte moved over the host link (controller + PHY + host).
    pub e_per_byte: Energy,
}

impl Default for HostLinkConfig {
    fn default() -> Self {
        HostLinkConfig {
            pcie_bytes_per_sec: 8e9,
            nvme_cmd_latency: Duration::from_us(2.0),
            e_per_byte: Energy::from_pj(15.0),
        }
    }
}

impl HostLinkConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encodings behind [`SsdConfig::fingerprint`] and
    /// [`HostConfig::fingerprint`] (exhaustive destructuring: adding a
    /// field without fingerprinting it fails to compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let HostLinkConfig {
            pcie_bytes_per_sec,
            nvme_cmd_latency,
            e_per_byte,
        } = self;
        put_f64(out, *pcie_bytes_per_sec);
        put_duration(out, *nvme_cmd_latency);
        put_energy(out, *e_per_byte);
    }

    /// Time to move `bytes` over the host link, excluding command overhead.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::for_transfer(bytes, self.pcie_bytes_per_sec)
    }
}

/// Host CPU configuration (Intel Xeon Gold 5118 class).
#[derive(Debug, Clone, PartialEq)]
pub struct HostCpuConfig {
    /// Number of cores used by the workload.
    pub cores: u32,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// SIMD width in bytes (AVX2 = 32 B).
    pub simd_bytes: u32,
    /// Sustained vector micro-ops per cycle per core.
    pub uops_per_cycle: f64,
    /// Main-memory bandwidth in bytes per second.
    pub mem_bytes_per_sec: f64,
    /// Package power attributable to the workload, in watts.
    pub power_w: f64,
}

impl Default for HostCpuConfig {
    fn default() -> Self {
        HostCpuConfig {
            cores: 6,
            freq_hz: 3.2e9,
            simd_bytes: 32,
            uops_per_cycle: 2.0,
            mem_bytes_per_sec: 19.2e9,
            power_w: 105.0,
        }
    }
}

/// Host GPU configuration (NVIDIA A100 class).
#[derive(Debug, Clone, PartialEq)]
pub struct HostGpuConfig {
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// SM clock frequency in Hz.
    pub freq_hz: f64,
    /// 32-bit lanes per SM.
    pub lanes_per_sm: u32,
    /// Device memory bandwidth in bytes per second (HBM2).
    pub mem_bytes_per_sec: f64,
    /// Kernel-launch overhead per offloaded region.
    pub kernel_launch: Duration,
    /// Board power attributable to the workload, in watts.
    pub power_w: f64,
}

impl Default for HostGpuConfig {
    fn default() -> Self {
        HostGpuConfig {
            sms: 108,
            freq_hz: 1.4e9,
            lanes_per_sm: 64,
            mem_bytes_per_sec: 1.55e12,
            kernel_launch: Duration::from_us(8.0),
            power_w: 250.0,
        }
    }
}

impl HostCpuConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`HostConfig::fingerprint`] (exhaustive
    /// destructuring: adding a field without fingerprinting it fails to
    /// compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let HostCpuConfig {
            cores,
            freq_hz,
            simd_bytes,
            uops_per_cycle,
            mem_bytes_per_sec,
            power_w,
        } = self;
        put_u32(out, *cores);
        put_f64(out, *freq_hz);
        put_u32(out, *simd_bytes);
        put_f64(out, *uops_per_cycle);
        put_f64(out, *mem_bytes_per_sec);
        put_f64(out, *power_w);
    }
}

impl HostGpuConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`HostConfig::fingerprint`] (exhaustive
    /// destructuring: adding a field without fingerprinting it fails to
    /// compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let HostGpuConfig {
            sms,
            freq_hz,
            lanes_per_sm,
            mem_bytes_per_sec,
            kernel_launch,
            power_w,
        } = self;
        put_u32(out, *sms);
        put_f64(out, *freq_hz);
        put_u32(out, *lanes_per_sm);
        put_f64(out, *mem_bytes_per_sec);
        put_duration(out, *kernel_launch);
        put_f64(out, *power_w);
    }
}

/// Host-side configuration (CPU, GPU and the link to the SSD).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostConfig {
    /// Host CPU model parameters.
    pub cpu: HostCpuConfig,
    /// Host GPU model parameters.
    pub gpu: HostGpuConfig,
    /// Host ↔ SSD link parameters.
    pub link: HostLinkConfig,
}

impl HostConfig {
    /// A stable content fingerprint of the whole host configuration, the
    /// counterpart of [`SsdConfig::fingerprint`]: FNV-1a over a canonical
    /// little-endian encoding of every field. Device checkpoints embed a
    /// combined SSD+host fingerprint, because host-policy service times
    /// (and therefore a warm device's stream clock) depend on the host
    /// rooflines too.
    pub fn fingerprint(&self) -> u64 {
        let HostConfig { cpu, gpu, link } = self;
        let mut canonical = Vec::with_capacity(128);
        cpu.encode_canonical(&mut canonical);
        gpu.encode_canonical(&mut canonical);
        link.encode_canonical(&mut canonical);
        crate::bytes::fnv1a(&canonical)
    }
}

/// Runtime overhead parameters of Conduit's offloader (§4.5).
#[derive(Debug, Clone, PartialEq)]
pub struct OffloaderOverheadConfig {
    /// L2P table lookup when the mapping entry is cached in SSD DRAM.
    pub l2p_lookup_dram: Duration,
    /// L2P table lookup when the mapping entry must be fetched from flash.
    pub l2p_lookup_flash: Duration,
    /// Tracking data-dependence delay, per execution queue inspected.
    pub dependence_tracking_per_queue: Duration,
    /// Tracking resource queueing delay, per resource.
    pub queue_tracking_per_resource: Duration,
    /// Lookup of the precomputed data-movement latency table.
    pub dm_table_lookup: Duration,
    /// Lookup of the precomputed computation latency table.
    pub comp_table_lookup: Duration,
    /// Instruction-transformation translation-table lookup.
    pub transform_lookup: Duration,
}

impl Default for OffloaderOverheadConfig {
    fn default() -> Self {
        OffloaderOverheadConfig {
            l2p_lookup_dram: Duration::from_ns(100.0),
            l2p_lookup_flash: Duration::from_us(30.0),
            dependence_tracking_per_queue: Duration::from_us(1.0),
            queue_tracking_per_resource: Duration::from_us(1.0),
            dm_table_lookup: Duration::from_ns(100.0),
            comp_table_lookup: Duration::from_ns(150.0),
            transform_lookup: Duration::from_ns(300.0),
        }
    }
}

impl OffloaderOverheadConfig {
    /// Appends every field, in declaration order, to the canonical
    /// encoding behind [`SsdConfig::fingerprint`] (exhaustive
    /// destructuring: adding a field without fingerprinting it fails to
    /// compile).
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let OffloaderOverheadConfig {
            l2p_lookup_dram,
            l2p_lookup_flash,
            dependence_tracking_per_queue,
            queue_tracking_per_resource,
            dm_table_lookup,
            comp_table_lookup,
            transform_lookup,
        } = self;
        put_duration(out, *l2p_lookup_dram);
        put_duration(out, *l2p_lookup_flash);
        put_duration(out, *dependence_tracking_per_queue);
        put_duration(out, *queue_tracking_per_resource);
        put_duration(out, *dm_table_lookup);
        put_duration(out, *comp_table_lookup);
        put_duration(out, *transform_lookup);
    }
}

/// Full configuration of the simulated SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// NAND flash subsystem.
    pub flash: FlashConfig,
    /// SSD-internal DRAM subsystem.
    pub dram: DramConfig,
    /// SSD controller cores.
    pub ctrl: CtrlConfig,
    /// Host link.
    pub link: HostLinkConfig,
    /// Offloader overhead parameters.
    pub overheads: OffloaderOverheadConfig,
    /// Fraction of L2P lookups that hit the DFTL mapping cache in DRAM.
    pub l2p_cache_hit_rate: f64,
}

impl SsdConfig {
    /// A configuration scaled down for fast unit/integration tests: the
    /// geometry is reduced (fewer channels/dies/blocks) while all latencies
    /// and energies keep their Table 2 values, so behaviour shapes are
    /// preserved.
    pub fn small_for_tests() -> Self {
        let mut cfg = SsdConfig::default();
        cfg.flash.channels = 2;
        cfg.flash.dies_per_channel = 2;
        cfg.flash.planes_per_die = 2;
        cfg.flash.blocks_per_plane = 64;
        cfg.flash.pages_per_block = 64;
        cfg.dram.capacity_bytes = 16 * 1024 * 1024;
        cfg
    }

    /// User-visible logical capacity of the SSD in bytes (the paper's 2 TB
    /// device; physical capacity includes over-provisioning).
    pub fn logical_capacity_bytes(&self) -> u64 {
        // 93.75% of physical capacity exposed (6.25% over-provisioning).
        self.flash.capacity_bytes() / 16 * 15
    }

    /// Number of logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_capacity_bytes() / self.flash.page_bytes
    }

    /// A stable content fingerprint of the **whole** configuration: FNV-1a
    /// over a canonical little-endian encoding of every field (geometry,
    /// latencies, bandwidths, energies — durations as raw picoseconds,
    /// floats as IEEE-754 bit patterns, so no rounding can alias two
    /// different configurations).
    ///
    /// Device checkpoints embed this value: importing a checkpoint into a
    /// session whose configuration differs *at all* — even when the
    /// geometry (and therefore the checkpoint shape) matches — is rejected
    /// as corrupt instead of silently replaying under different timings.
    pub fn fingerprint(&self) -> u64 {
        let SsdConfig {
            flash,
            dram,
            ctrl,
            link,
            overheads,
            l2p_cache_hit_rate,
        } = self;
        let mut canonical = Vec::with_capacity(512);
        flash.encode_canonical(&mut canonical);
        dram.encode_canonical(&mut canonical);
        ctrl.encode_canonical(&mut canonical);
        link.encode_canonical(&mut canonical);
        overheads.encode_canonical(&mut canonical);
        put_f64(&mut canonical, *l2p_cache_hit_rate);
        crate::bytes::fnv1a(&canonical)
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            flash: FlashConfig::default(),
            dram: DramConfig::default(),
            ctrl: CtrlConfig::default(),
            link: HostLinkConfig::default(),
            overheads: OffloaderOverheadConfig::default(),
            l2p_cache_hit_rate: 0.95,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_flash_matches_table2() {
        let f = FlashConfig::default();
        assert_eq!(f.channels, 8);
        assert_eq!(f.dies_per_channel, 8);
        assert_eq!(f.planes_per_die, 2);
        assert_eq!(f.t_read, Duration::from_us(22.5));
        assert_eq!(f.t_program, Duration::from_us(400.0));
        assert_eq!(f.t_and_or, Duration::from_ns(20.0));
        assert_eq!(f.t_xor, Duration::from_ns(30.0));
        // 8 ch * 8 dies * 2 planes * 2048 blocks * 196 pages * 4 KiB ≈ 0.21 TB
        // (Table 2's per-component numbers; the headline 2 TB assumes TLC
        // multi-page wordlines, which we run in SLC mode as the paper does
        // for NDP.)
        let cap_gb = f.capacity_bytes() as f64 / 1e9;
        assert!(cap_gb > 100.0, "capacity = {cap_gb} GB");
    }

    #[test]
    fn default_dram_matches_table2() {
        let d = DramConfig::default();
        assert_eq!(d.capacity_bytes, 2 * 1024 * 1024 * 1024);
        assert_eq!(d.banks, 8);
        assert_eq!(d.t_bbop, Duration::from_ns(49.0));
        assert_eq!(d.elems_per_row(32), 2048);
        assert_eq!(d.total_banks(), 8);
    }

    #[test]
    fn ctrl_lane_math() {
        let c = CtrlConfig::default();
        assert_eq!(c.lanes_per_uop(32), 8);
        assert_eq!(c.lanes_per_uop(8), 32);
        assert_eq!(c.cycles(1500), Duration::from_us(1.0));
    }

    #[test]
    fn link_transfer_time() {
        let l = HostLinkConfig::default();
        // 16 KiB over 8 GB/s ≈ 2.05 us
        let t = l.transfer_time(16 * 1024);
        assert!((t.as_us() - 2.048).abs() < 0.01);
    }

    #[test]
    fn ssd_capacity_and_test_config() {
        let cfg = SsdConfig::default();
        assert!(cfg.logical_pages() > 0);
        assert!(cfg.logical_capacity_bytes() < cfg.flash.capacity_bytes());

        let small = SsdConfig::small_for_tests();
        assert!(small.flash.capacity_bytes() < cfg.flash.capacity_bytes());
        // Latencies are untouched in the small config.
        assert_eq!(small.flash.t_read, cfg.flash.t_read);
    }

    #[test]
    fn fingerprint_distinguishes_timings_not_just_shapes() {
        let cfg = SsdConfig::default();
        assert_eq!(cfg.fingerprint(), SsdConfig::default().fingerprint());
        assert_eq!(cfg.fingerprint(), cfg.clone().fingerprint());
        assert_ne!(
            cfg.fingerprint(),
            SsdConfig::small_for_tests().fingerprint()
        );

        // Same geometry (same checkpoint *shape*), different timing: the
        // fingerprint must still differ — this is exactly the silent
        // mismatch the structural import check could not catch.
        let mut slow_read = cfg.clone();
        slow_read.flash.t_read = Duration::from_us(30.0);
        assert_ne!(cfg.fingerprint(), slow_read.fingerprint());

        let mut hit_rate = cfg.clone();
        hit_rate.l2p_cache_hit_rate = 0.9;
        assert_ne!(cfg.fingerprint(), hit_rate.fingerprint());

        let mut energy = cfg;
        energy.dram.e_bbop = Energy::from_nj(0.865);
        assert_ne!(SsdConfig::default().fingerprint(), energy.fingerprint());
    }

    #[test]
    fn host_fingerprint_distinguishes_rooflines() {
        let host = HostConfig::default();
        assert_eq!(host.fingerprint(), HostConfig::default().fingerprint());

        let mut faster_link = host.clone();
        faster_link.link.pcie_bytes_per_sec *= 2.0;
        assert_ne!(host.fingerprint(), faster_link.fingerprint());

        let mut slower_cpu = host.clone();
        slower_cpu.cpu.freq_hz /= 2.0;
        assert_ne!(host.fingerprint(), slower_cpu.fingerprint());

        let mut gpu_launch = host.clone();
        gpu_launch.gpu.kernel_launch = Duration::from_us(16.0);
        assert_ne!(host.fingerprint(), gpu_launch.fingerprint());
    }
}
