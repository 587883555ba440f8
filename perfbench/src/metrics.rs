//! Metric names, units and the result line.
//!
//! The names here are the contract `BENCHMARK.json` declares: every
//! untraced run prints every [`END_TO_END`] metric and every traced run
//! every [`PER_LAYER`] metric, whatever the workload. A per-layer metric
//! of a layer the workload does not exercise reads 0.

use conduit::Policy;
use conduit_workloads::Workload;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 4] = [
    ("inst_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_error", "ln"),
];

/// `(name, unit)` of every per-layer metric, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.program_ms", "ms"),
    ("workloads.instructions", "count"),
    ("session.register_ms", "ms"),
    ("session.plan_hits", "count"),
    ("session.plan_misses", "count"),
    ("session.submit_ms.cpu", "ms"),
    ("session.submit_ms.gpu", "ms"),
    ("session.submit_ms.isp", "ms"),
    ("session.submit_ms.pud_ssd", "ms"),
    ("session.submit_ms.flash_cosmos", "ms"),
    ("session.submit_ms.ares_flash", "ms"),
    ("session.submit_ms.ifp_isp", "ms"),
    ("session.submit_ms.bw_offloading", "ms"),
    ("session.submit_ms.dm_offloading", "ms"),
    ("session.submit_ms.conduit", "ms"),
    ("session.submit_ms.ideal", "ms"),
    ("session.submit_ms.aes", "ms"),
    ("session.submit_ms.xor_filter", "ms"),
    ("session.submit_ms.heat_3d", "ms"),
    ("session.submit_ms.jacobi_1d", "ms"),
    ("session.submit_ms.llama2_inference", "ms"),
    ("session.submit_ms.llm_training", "ms"),
    ("session.submit_p50_us", "us"),
    ("session.submit_p99_us", "us"),
    ("session.reset_device_us", "us"),
    ("sim.device_new_us", "us"),
    ("engine.prepare_us", "us"),
    ("batch.plan_us", "us"),
    ("engine.run_ns_per_inst", "ns/inst"),
    ("session.unattributed_frac", "ratio"),
    ("sim.device_ops_per_inst", "ops/inst"),
    ("core.offload_frac.isp", "ratio"),
    ("core.offload_frac.pud", "ratio"),
    ("core.offload_frac.ifp", "ratio"),
    ("core.offload_frac.host", "ratio"),
    ("core.overhead_mean_us", "us"),
    ("fidelity.speedup_vs_cpu", "ln"),
    ("fidelity.speedup_vs_dm", "ln"),
    ("fidelity.energy_vs_dm", "ln"),
    ("fidelity.frac_of_ideal", "ln"),
    ("fidelity.overhead_us", "ln"),
    ("ftl.l2p_lookups_per_inst", "1/inst"),
    ("ftl.l2p_hit_rate", "ratio"),
    ("ftl.rewrites_per_req", "1/req"),
    ("ftl.coherence_syncs_per_req", "1/req"),
    ("ftl.gc_invocations", "count"),
    ("ftl.pages_migrated", "count"),
    ("ftl.wear_spread", "erases"),
    ("traffic.generate_ms", "ms"),
    ("traffic.encode_us", "us"),
    ("traffic.decode_us", "us"),
    ("traffic.records", "count"),
    ("fleet.run_trace_ms", "ms"),
    ("fleet.served", "count"),
    ("fleet.shed", "count"),
    ("fleet.windows", "count"),
    ("fleet.useful_frac", "ratio"),
    ("fleet.lane_occupancy_max", "ratio"),
    ("fleet.lane_occupancy_min", "ratio"),
    ("fleet.sim_p50_ms", "ms"),
    ("fleet.sim_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// A metric name fragment for a policy or workload: lower case, runs of
/// other characters folded to `_` ("LlaMA2 Inference" -> "llama2_inference").
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

pub fn policy_metric(policy: Policy) -> String {
    format!("session.submit_ms.{}", slug(policy.name()))
}

pub fn workload_metric(workload: Workload) -> String {
    format!("session.submit_ms.{}", slug(workload.name()))
}

/// An ordered set of named metrics, restricted to one declared name list.
#[derive(Debug, Clone)]
pub struct Metrics {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Every metric of `declared`, at 0.
    pub fn new(declared: &[(&'static str, &'static str)]) -> Self {
        Metrics {
            rows: declared.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// On a name the list does not declare: that is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        row.2 = value + 0.0;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |r| r.2)
    }

    pub fn rows(&self) -> &[(&'static str, &'static str, f64)] {
        &self.rows
    }

    /// Whether every value is a finite number (JSON has no NaN).
    pub fn all_finite(&self) -> bool {
        self.rows.iter().all(|r| r.2.is_finite())
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_cover_every_policy_and_workload() {
        assert_eq!(slug("LlaMA2 Inference"), "llama2_inference");
        assert_eq!(slug("IFP+ISP"), "ifp_isp");
        let m = Metrics::new(PER_LAYER);
        for p in Policy::ALL {
            m.rows()
                .iter()
                .find(|r| r.0 == policy_metric(p))
                .unwrap_or_else(|| panic!("{p} has no submit row"));
        }
        for w in Workload::ALL {
            m.rows()
                .iter()
                .find(|r| r.0 == workload_metric(w))
                .unwrap_or_else(|| panic!("{w} has no submit row"));
        }
    }

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64);
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
        assert_eq!(json.matches("\"unit\"").count(), seen.len());
    }

    #[test]
    fn json_prints_every_digit() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("inst_per_s", 1234.5678901);
        assert!(m
            .json()
            .contains("\"inst_per_s\": {\"value\": 1234.5678901, \"unit\": \"1/s\"}"));
        assert!(m
            .json()
            .contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
