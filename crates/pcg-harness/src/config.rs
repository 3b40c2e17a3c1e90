//! Evaluation configuration. The harness binaries build it from their
//! command line with [`crate::pipeline::parse_args`].

use pcg_core::PromptVariant;
use serde::{DeError, Deserialize, Serialize, Value};
use std::time::Duration;

/// Knobs for one full evaluation run.
///
/// Serialization is hand-written (not derived): the canonical JSON of
/// this struct *is* the config hash input, so the single-variant
/// default must keep producing the exact pre-variant bytes. The
/// `prompt_variants` field is emitted only when it differs from
/// `[PromptVariant::DEFAULT]`, and a missing field deserializes to
/// that default — old caches, journals, and hashes are untouched
/// unless a run actually asks for a variant grid.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Global seed for workload generation and model sampling.
    pub seed: u64,
    /// Samples per task at the low temperature (paper: 20 @ 0.2).
    pub samples_low: usize,
    /// Samples per task at the high temperature (paper: 200 @ 0.8).
    pub samples_high: usize,
    /// Low sampling temperature.
    pub temp_low: f64,
    /// High sampling temperature.
    pub temp_high: f64,
    /// Workload size divisor applied to each problem's default size
    /// (1 = paper-scale shapes, larger = faster smoke runs).
    pub size_divisor: usize,
    /// Wall-clock limit per candidate run (the paper's 3-minute cap,
    /// scaled to our workload sizes).
    pub timeout: Duration,
    /// Timing repetitions per measured run (paper: 10).
    pub reps: usize,
    /// Skip the 200-sample high-temperature set entirely.
    pub skip_high_temp: bool,
    /// Skip the resource sweeps (Figure 5) and keep only headline-n
    /// performance.
    pub skip_sweeps: bool,
    /// Retry a candidate once after a hard failure (panic or timeout)
    /// and keep the second outcome. Off by default: the paper scores a
    /// single run, so retries are opt-in for flakiness studies.
    pub retry_flaky: bool,
    /// How long to wait, after cancelling a timed-out candidate, for
    /// its worker thread to unwind cooperatively before abandoning it.
    pub grace: Duration,
    /// Maximum number of abandoned (leaked) worker threads tolerated
    /// before the runner refuses to spawn new isolated workers and
    /// blocks until the leak count drops.
    pub max_abandoned: usize,
    /// Chaos-injection weight for the `Deadlock` defect kind, added to
    /// every model's failure mix (relative to the mix's other weights).
    /// Zero (the default) is an exact no-op on the sampled streams.
    /// Participates in the config hash like every other field.
    pub deadlock_rate: f64,
    /// Chaos-injection weight for the `StackHog` defect kind; see
    /// [`EvalConfig::deadlock_rate`].
    pub stack_hog_rate: f64,
    /// Prompt tiers to cross the model axis with. The grid gets one
    /// row per (model, variant); the default single-entry list
    /// `[PromptVariant::DEFAULT]` yields bare-named rows and the
    /// pre-variant config hash (the field is skipped when default, see
    /// the struct docs).
    pub prompt_variants: Vec<PromptVariant>,
}

/// The default prompt-variant axis: the paper's engineered prompt,
/// alone — the configuration every pre-variant artifact was keyed
/// under.
pub fn default_variants() -> Vec<PromptVariant> {
    vec![PromptVariant::DEFAULT]
}

/// Parse a comma-separated prompt-variant list (`naive,expert,rag`).
/// Rejects empty and duplicate entries: a typo'd axis silently
/// shrinking the grid would change the config hash out from under
/// sharded siblings.
pub fn parse_variants(s: &str) -> Result<Vec<PromptVariant>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        let v = PromptVariant::parse(part)
            .ok_or_else(|| format!("unknown prompt variant `{part}`"))?;
        if out.contains(&v) {
            return Err(format!("duplicate prompt variant `{part}`"));
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err("empty prompt-variant list".to_string());
    }
    Ok(out)
}

impl Serialize for EvalConfig {
    fn to_value(&self) -> Value {
        // Field order mirrors the old derive output exactly; the
        // trailing `prompt_variants` appears only off the default so
        // default-config bytes (and hashes) never move.
        let mut fields = vec![
            ("seed".to_string(), self.seed.to_value()),
            ("samples_low".to_string(), self.samples_low.to_value()),
            ("samples_high".to_string(), self.samples_high.to_value()),
            ("temp_low".to_string(), self.temp_low.to_value()),
            ("temp_high".to_string(), self.temp_high.to_value()),
            ("size_divisor".to_string(), self.size_divisor.to_value()),
            ("timeout".to_string(), self.timeout.to_value()),
            ("reps".to_string(), self.reps.to_value()),
            ("skip_high_temp".to_string(), self.skip_high_temp.to_value()),
            ("skip_sweeps".to_string(), self.skip_sweeps.to_value()),
            ("retry_flaky".to_string(), self.retry_flaky.to_value()),
            ("grace".to_string(), self.grace.to_value()),
            ("max_abandoned".to_string(), self.max_abandoned.to_value()),
            ("deadlock_rate".to_string(), self.deadlock_rate.to_value()),
            ("stack_hog_rate".to_string(), self.stack_hog_rate.to_value()),
        ];
        if self.prompt_variants != default_variants() {
            fields.push(("prompt_variants".to_string(), self.prompt_variants.to_value()));
        }
        Value::Obj(fields)
    }
}

impl Deserialize for EvalConfig {
    fn from_value(v: &Value) -> Result<EvalConfig, DeError> {
        Ok(EvalConfig {
            seed: u64::from_value(v.field("seed")?)?,
            samples_low: usize::from_value(v.field("samples_low")?)?,
            samples_high: usize::from_value(v.field("samples_high")?)?,
            temp_low: f64::from_value(v.field("temp_low")?)?,
            temp_high: f64::from_value(v.field("temp_high")?)?,
            size_divisor: usize::from_value(v.field("size_divisor")?)?,
            timeout: Duration::from_value(v.field("timeout")?)?,
            reps: usize::from_value(v.field("reps")?)?,
            skip_high_temp: bool::from_value(v.field("skip_high_temp")?)?,
            skip_sweeps: bool::from_value(v.field("skip_sweeps")?)?,
            retry_flaky: bool::from_value(v.field("retry_flaky")?)?,
            grace: Duration::from_value(v.field("grace")?)?,
            max_abandoned: usize::from_value(v.field("max_abandoned")?)?,
            deadlock_rate: match v.field("deadlock_rate") {
                Ok(f) => f64::from_value(f)?,
                Err(_) => 0.0,
            },
            stack_hog_rate: match v.field("stack_hog_rate") {
                Ok(f) => f64::from_value(f)?,
                Err(_) => 0.0,
            },
            prompt_variants: match v.field("prompt_variants") {
                Ok(f) => Vec::<PromptVariant>::from_value(f)?,
                Err(_) => default_variants(),
            },
        })
    }
}

impl EvalConfig {
    /// Paper-faithful settings (slow: full sizes, 200-sample runs).
    pub fn full() -> EvalConfig {
        EvalConfig {
            seed: 20240501,
            samples_low: 20,
            samples_high: 200,
            temp_low: 0.2,
            temp_high: 0.8,
            size_divisor: 1,
            timeout: Duration::from_secs(20),
            reps: 3,
            skip_high_temp: false,
            skip_sweeps: false,
            retry_flaky: false,
            grace: Duration::from_secs(2),
            max_abandoned: 64,
            deadlock_rate: 0.0,
            stack_hog_rate: 0.0,
            prompt_variants: default_variants(),
        }
    }

    /// Reduced settings for regenerating every figure in minutes.
    pub fn quick() -> EvalConfig {
        EvalConfig {
            samples_high: 60,
            size_divisor: 8,
            reps: 1,
            ..EvalConfig::full()
        }
    }

    /// Tiny settings for integration tests (a subset of tasks is chosen
    /// by the caller).
    pub fn smoke() -> EvalConfig {
        EvalConfig {
            samples_low: 6,
            samples_high: 10,
            size_divisor: 64,
            reps: 1,
            skip_high_temp: false,
            skip_sweeps: true,
            ..EvalConfig::full()
        }
    }

    /// The workload size used for a problem's default size.
    pub fn size_for(&self, default_size: usize) -> usize {
        (default_size / self.size_divisor.max(1)).max(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = EvalConfig::quick();
        let f = EvalConfig::full();
        assert!(q.size_divisor > f.size_divisor);
        assert!(q.samples_high <= f.samples_high);
        assert_eq!(q.samples_low, 20, "pass@1 sampling stays paper-faithful");
    }

    #[test]
    fn size_for_scales_and_floors() {
        let cfg = EvalConfig { size_divisor: 8, ..EvalConfig::full() };
        assert_eq!(cfg.size_for(1 << 16), 1 << 13);
        assert_eq!(cfg.size_for(100), 64);
    }

    #[test]
    fn default_variant_config_omits_the_field() {
        let json = serde_json::to_string(&EvalConfig::smoke()).unwrap();
        assert!(
            !json.contains("prompt_variants"),
            "default config bytes must stay pre-variant: {json}"
        );
        let back: EvalConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, EvalConfig::smoke());
        assert_eq!(back.prompt_variants, default_variants());
    }

    #[test]
    fn variant_config_round_trips() {
        let cfg = EvalConfig {
            prompt_variants: vec![
                PromptVariant::Naive,
                PromptVariant::Expert,
                PromptVariant::RagAugmented,
            ],
            ..EvalConfig::smoke()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"prompt_variants\":[\"Naive\",\"Expert\",\"RagAugmented\"]"));
        let back: EvalConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn parse_variants_accepts_lists_and_rejects_garbage() {
        assert_eq!(
            parse_variants("naive,expert,rag").unwrap(),
            vec![PromptVariant::Naive, PromptVariant::Expert, PromptVariant::RagAugmented]
        );
        assert!(parse_variants("").is_err());
        assert!(parse_variants("expert,expert").is_err());
        assert!(parse_variants("grandmaster").is_err());
    }
}
