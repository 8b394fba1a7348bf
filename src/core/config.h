// Tunables of the BlameIt fault localizer, with the paper's deployed values
// as defaults.
#pragma once

#include <cstdint>

namespace blameit::core {

struct BlameItConfig {
  /// Bad-fraction threshold τ for blaming a cloud node or middle segment
  /// (§4.2: "we set τ = 0.8 and it works well in practice").
  double tau = 0.8;

  /// Minimum quartets a group needs before its bad fraction is trusted
  /// (Algorithm 1 lines 10/14: "Num-Quartets[...] <= 5 → insufficient").
  int min_group_quartets = 5;

  /// Days of history behind each expected-RTT median (§4.3).
  int expected_rtt_window_days = 14;

  /// On-demand traceroutes permitted per cadence interval across the fleet
  /// (§5.3's probing budget).
  int probe_budget_per_run = 10;

  /// Background traceroute period per ⟨location, BGP path⟩ (§5.4: two per
  /// day → 720 minutes).
  int background_period_minutes = 12 * 60;

  /// Whether BGP-churn events trigger extra background probes (§5.4).
  bool churn_triggered_probes = true;

  /// Days of per-bucket history for the impacted-client predictor (§5.3:
  /// "average ... in the same time window in the past 3 days").
  int client_predictor_days = 3;

  /// Cap (in 5-min buckets) on the duration predictor's expected-remaining
  /// sum, i.e. T_max in Σ P(T|t)·T (§5.3).
  int duration_horizon_buckets = 48;  // 4 hours

  /// RTT samples per active client, used to estimate affected users from
  /// quartet sample volumes (production counts distinct IPs; the sample
  /// volume is a proportional proxy).
  double samples_per_client_estimate = 2.5;

  // --- Active-phase robustness (measurement-plane failures) -------------
  // Defaults are chosen so a pristine measurement plane (no chaos layer)
  // behaves bit-identically to the pre-hardening pipeline: retries only
  // trigger on retryable failures (loss/truncation, which never occur
  // without chaos), and a quorum of 1 is the single-probe path.

  /// Extra attempts per lost or truncated traceroute. No-route failures are
  /// never retried (they are deterministic until routing changes). Every
  /// attempt — retry or not — is charged against the probe budget.
  int active_probe_retries = 2;

  /// Simulated exponential backoff base: retry r of a probe fires at
  /// now + base * (2^r - 1) minutes (1, 3, 7, ... for base 1).
  int retry_backoff_base_minutes = 1;

  /// Traceroutes per diagnosed issue. With K > 1 the diagnosis diffs the
  /// median-of-K per-AS contributions (outlier results rejected) against
  /// the baseline instead of trusting one noisy probe. 1 = legacy
  /// single-probe behavior, bit-identical to the pre-quorum pipeline.
  int active_quorum_k = 1;

  /// A baseline older than this is stale: the diagnosis still runs but its
  /// confidence is downgraded (default 2 days = 4 missed background
  /// periods at the 2×/day cadence).
  int baseline_stale_minutes = 2 * 24 * 60;

  /// On a truncated (partial-path) probe, the largest per-AS increase must
  /// clear this to name a culprit inside the reached prefix; below it the
  /// diagnosis downgrades to coarse Middle blame (culprit past the
  /// truncation point, or invisible).
  double partial_path_min_increase_ms = 10.0;

  // --- Route-churn resilience (§13) -------------------------------------
  // All knobs default OFF: with every one of them off the pipeline never
  // consults the churn feed in the step loop and its output is bit-identical
  // to the churn-blind pipeline.

  /// On a PathChange churn event, seed the new middle segment's expected-RTT
  /// entry from the old path's baseline (or a same-⟨location, old-path⟩
  /// sibling device class) instead of starting cold (→ Insufficient).
  bool churn_baseline_transfer = false;

  /// Shield destination-edge cloud blames for /24s that a SteerShift churn
  /// event just moved: re-steered clients inflate the destination location's
  /// cloud group, which must not be blamed Cloud without corroboration from
  /// the location's un-steered quartets.
  bool churn_steer_shield = false;

  /// How long a SteerShift event shields its /24s (covers the steer window
  /// plus the trailing bucket lag).
  int churn_shield_minutes = 4 * 60;

  /// Treat baseline-less bad middle groups as probeable: spend active-phase
  /// budget on a direct measurement of the new path (grade: probed-cold) and
  /// back-fill the learner with the probe's observation instead of
  /// abstaining at Low confidence.
  bool probe_on_no_baseline = false;
};

}  // namespace blameit::core
