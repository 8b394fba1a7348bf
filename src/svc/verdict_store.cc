#include "svc/verdict_store.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace blameit::svc {

namespace {

// Packed identity of an incident run. Top 2 bits select the category so
// cloud/middle/client runs never collide.
constexpr std::uint64_t cloud_run_key(net::CloudLocationId loc) noexcept {
  return (std::uint64_t{1} << 62) | loc.value;
}
constexpr std::uint64_t middle_run_key(net::CloudLocationId loc,
                                       net::MiddleSegmentId mid) noexcept {
  return (std::uint64_t{2} << 62) | (std::uint64_t{loc.value} << 32) |
         mid.value;
}
constexpr std::uint64_t client_run_key(net::AsId as) noexcept {
  return (std::uint64_t{3} << 62) | as.value;
}

// Rough per-entry bookkeeping cost of an unordered_map node.
constexpr std::size_t kHashNodeOverhead = 48;

void put_incident(std::string& out, const Incident& inc) {
  store::put_varint(out, static_cast<std::uint64_t>(inc.category));
  store::put_varint(out, inc.location.value);
  store::put_varint(out, inc.middle ? inc.middle->value + std::uint64_t{1} : 0);
  store::put_varint(out,
                    inc.faulty_as ? inc.faulty_as->value + std::uint64_t{1} : 0);
  store::put_svarint(out, inc.first_seen.minutes);
  store::put_svarint(out, inc.last_seen.minutes);
  store::put_svarint(out, inc.buckets);
  store::put_varint(out, inc.open ? 1 : 0);
  store::put_varint(out, static_cast<std::uint64_t>(inc.grade));
}

/// `format` is the enclosing verdicts payload format: the §13 grade byte
/// exists from format 2 on (format-1 snapshots predate grades — Fresh).
Incident read_incident(store::ByteReader& in, std::uint64_t format) {
  Incident inc;
  inc.category = static_cast<core::Blame>(in.varint());
  inc.location.value = static_cast<std::uint16_t>(in.varint());
  if (const std::uint64_t mid = in.varint(); mid != 0) {
    inc.middle = net::MiddleSegmentId{static_cast<std::uint32_t>(mid - 1)};
  }
  if (const std::uint64_t as = in.varint(); as != 0) {
    inc.faulty_as = net::AsId{static_cast<std::uint32_t>(as - 1)};
  }
  inc.first_seen.minutes = in.svarint();
  inc.last_seen.minutes = in.svarint();
  inc.buckets = static_cast<int>(in.svarint());
  inc.open = in.varint() != 0;
  if (format >= 2) {
    const std::uint64_t grade = in.varint();
    if (grade > 2) in.fail("incident grade out of range");
    inc.grade = static_cast<core::BaselineGrade>(grade);
  }
  return inc;
}

void put_diagnosis(std::string& out, const DiagnosisRecord& record) {
  const core::ActiveDiagnosis& d = record.diagnosis;
  store::put_svarint(out, record.at.minutes);
  store::put_varint(out, d.location.value);
  store::put_varint(out, d.middle.value);
  // Bits 6-7 carry the §13 grade; format-1 snapshots never set them, so a
  // zero there decodes to Fresh with no format gate needed.
  const std::uint64_t bits =
      (d.probe_reached ? 1u : 0u) | (d.have_baseline ? 2u : 0u) |
      (d.baseline_predates_issue ? 4u : 0u) | (d.baseline_stale ? 8u : 0u) |
      (d.truncated ? 16u : 0u) | (d.coarse_middle ? 32u : 0u) |
      (static_cast<std::uint64_t>(d.grade) << 6);
  store::put_varint(out, bits);
  store::put_varint(out,
                    d.culprit ? d.culprit->value + std::uint64_t{1} : 0);
  store::put_f64(out, d.culprit_increase_ms);
  store::put_varint(out, static_cast<std::uint64_t>(d.confidence));
  store::put_svarint(out, d.probes_spent);
  store::put_svarint(out, d.retries);
  const sim::TracerouteResult& p = d.probe;
  store::put_varint(out, p.from.value);
  store::put_varint(out, p.target.block);
  store::put_svarint(out, p.time.minutes);
  store::put_f64(out, p.cloud_ms);
  const std::uint64_t pbits = (p.reached ? 1u : 0u) | (p.truncated ? 2u : 0u) |
                              (p.lost ? 4u : 0u) | (p.no_route ? 8u : 0u) |
                              (p.in_outage ? 16u : 0u);
  store::put_varint(out, pbits);
  store::put_varint(out, p.hops.size());
  for (const sim::TracerouteHop& hop : p.hops) {
    store::put_varint(out, hop.as.value);
    store::put_f64(out, hop.cumulative_rtt_ms);
  }
}

DiagnosisRecord read_diagnosis(store::ByteReader& in) {
  DiagnosisRecord record;
  core::ActiveDiagnosis& d = record.diagnosis;
  record.at.minutes = in.svarint();
  d.location.value = static_cast<std::uint16_t>(in.varint());
  d.middle.value = static_cast<std::uint32_t>(in.varint());
  const std::uint64_t bits = in.varint();
  d.probe_reached = (bits & 1) != 0;
  d.have_baseline = (bits & 2) != 0;
  d.baseline_predates_issue = (bits & 4) != 0;
  d.baseline_stale = (bits & 8) != 0;
  d.truncated = (bits & 16) != 0;
  d.coarse_middle = (bits & 32) != 0;
  if (((bits >> 6) & 3) > 2) in.fail("diagnosis grade out of range");
  d.grade = static_cast<core::BaselineGrade>((bits >> 6) & 3);
  if (const std::uint64_t as = in.varint(); as != 0) {
    d.culprit = net::AsId{static_cast<std::uint32_t>(as - 1)};
  }
  d.culprit_increase_ms = in.f64();
  d.confidence = static_cast<core::DiagnosisConfidence>(in.varint());
  d.probes_spent = static_cast<int>(in.svarint());
  d.retries = static_cast<int>(in.svarint());
  sim::TracerouteResult& p = d.probe;
  p.from.value = static_cast<std::uint16_t>(in.varint());
  p.target.block = static_cast<std::uint32_t>(in.varint());
  p.time.minutes = in.svarint();
  p.cloud_ms = in.f64();
  const std::uint64_t pbits = in.varint();
  p.reached = (pbits & 1) != 0;
  p.truncated = (pbits & 2) != 0;
  p.lost = (pbits & 4) != 0;
  p.no_route = (pbits & 8) != 0;
  p.in_outage = (pbits & 16) != 0;
  const std::size_t n_hops = in.count("hop count");
  p.hops.reserve(n_hops);
  for (std::size_t h = 0; h < n_hops; ++h) {
    sim::TracerouteHop hop;
    hop.as.value = static_cast<std::uint32_t>(in.varint());
    hop.cumulative_rtt_ms = in.f64();
    p.hops.push_back(hop);
  }
  return record;
}

}  // namespace

std::size_t VerdictStore::VerdictColumns::bytes() const noexcept {
  return keys.capacity() * sizeof(Key) +
         middles.capacity() * sizeof(std::uint32_t) +
         client_ases.capacity() * sizeof(std::uint32_t) +
         blames.capacity() + faulty_ases.capacity() * sizeof(std::uint32_t) +
         confidences.capacity() + flags.capacity() +
         buckets.capacity() * sizeof(std::int64_t) +
         mean_rtts.capacity() * sizeof(double) +
         sample_counts.capacity() * sizeof(std::int32_t) + sizeof(*this);
}

void VerdictStore::VerdictColumns::append(Key key, const Verdict& v) {
  keys.push_back(key);
  middles.push_back(v.middle.value);
  client_ases.push_back(v.client_as.value);
  blames.push_back(static_cast<std::uint8_t>(v.blame));
  faulty_ases.push_back(v.faulty_as ? v.faulty_as->value + 1 : 0);
  confidences.push_back(static_cast<std::uint8_t>(v.confidence));
  flags.push_back(static_cast<std::uint8_t>(
      (v.from_active ? 1 : 0) | (v.baseline_predates_issue ? 2 : 0) |
      (static_cast<std::uint8_t>(v.grade) << 2)));
  buckets.push_back(v.bucket.index);
  mean_rtts.push_back(v.mean_rtt_ms);
  sample_counts.push_back(v.sample_count);
  min_bucket = std::min(min_bucket, v.bucket.index);
}

Verdict VerdictStore::VerdictColumns::row(std::size_t i) const {
  Verdict v;
  v.block = net::Slash24{static_cast<std::uint32_t>(keys[i] >> 16)};
  v.location =
      net::CloudLocationId{static_cast<std::uint16_t>(keys[i] & 0xFFFF)};
  v.middle = net::MiddleSegmentId{middles[i]};
  v.client_as = net::AsId{client_ases[i]};
  v.blame = static_cast<core::Blame>(blames[i]);
  if (faulty_ases[i] != 0) v.faulty_as = net::AsId{faulty_ases[i] - 1};
  v.confidence = static_cast<core::DiagnosisConfidence>(confidences[i]);
  v.from_active = (flags[i] & 1) != 0;
  v.baseline_predates_issue = (flags[i] & 2) != 0;
  v.grade = static_cast<core::BaselineGrade>((flags[i] >> 2) & 3);
  v.bucket = util::TimeBucket{buckets[i]};
  v.mean_rtt_ms = mean_rtts[i];
  v.sample_count = sample_counts[i];
  return v;
}

VerdictStore::VerdictStore(Config config)
    : config_(config),
      delta_(static_cast<std::size_t>(std::max(1, config.shards))),
      current_(delta_.size(), std::make_shared<const VerdictColumns>()),
      shards_(delta_.size()) {
  if (config_.verdict_retention_buckets < 1) {
    throw std::invalid_argument{"VerdictStore: retention must be >= 1"};
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].store(current_[i]);
  }
  timeline_.store(std::make_shared<const Timeline>());
  auto* r = config_.registry;
  publishes_c_ = obs::counter(r, "svc.store.publishes");
  verdicts_g_ = obs::gauge(r, "svc.store.verdicts");
  open_incidents_g_ = obs::gauge(r, "svc.store.open_incidents");
  publish_ms_h_ = obs::histogram(r, "svc.store.publish_ms");
  lookups_c_ = obs::counter(r, "svc.store.lookups");
}

void VerdictStore::publish(const core::StepReport& report) {
  const obs::ScopedTimer span{publish_ms_h_};
  ++steps_;
  degraded_steps_ += report.degraded_passive_only;

  fold_blames(report);
  fold_incidents(report);

  // Swap the shards that changed. Readers that loaded the old pointer keep
  // a consistent (just slightly stale) view until they drop it.
  std::size_t live = 0;
  const std::int64_t horizon =
      newest_bucket_.index - config_.verdict_retention_buckets;
  for (std::size_t i = 0; i < delta_.size(); ++i) {
    rebuild_shard(i, horizon);
    live += current_[i]->rows();
  }
  publish_timeline(report);
  epoch_.fetch_add(1, std::memory_order_release);

  obs::add(publishes_c_);
  obs::set(verdicts_g_, static_cast<double>(live));
  obs::set(open_incidents_g_, static_cast<double>(open_runs_.size()));
}

void VerdictStore::fold_blames(const core::StepReport& report) {
  // Active diagnoses of this step, matched to Middle verdicts by
  // ⟨location, BGP path⟩.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           const core::ActiveDiagnosis*>
      diag_by_issue;
  for (const auto& d : report.diagnoses) {
    diag_by_issue[{d.location.value, d.middle.value}] = &d;
  }

  for (const auto& b : report.blames) {
    Verdict v;
    v.block = b.quartet.key.block;
    v.location = b.quartet.key.location;
    v.middle = b.quartet.middle;
    v.client_as = b.quartet.client_as;
    v.blame = b.blame;
    v.faulty_as = b.faulty_as;
    v.grade = b.grade;
    v.bucket = b.quartet.key.bucket;
    v.mean_rtt_ms = b.quartet.mean_rtt_ms;
    v.sample_count = b.quartet.sample_count;
    switch (b.blame) {
      case core::Blame::Cloud:
      case core::Blame::Client:
        // Passive elimination pinned these down (§4.2).
        v.confidence = core::DiagnosisConfidence::High;
        break;
      case core::Blame::Middle: {
        v.confidence = core::DiagnosisConfidence::Low;
        const auto it = diag_by_issue.find(
            {v.location.value, v.middle.value});
        if (it != diag_by_issue.end()) {
          const auto* d = it->second;
          v.confidence = d->confidence;
          v.from_active = true;
          v.baseline_predates_issue = d->baseline_predates_issue;
          if (d->culprit) v.faulty_as = d->culprit;
          // A probed-cold diagnosis supersedes the passive grade: the
          // faulty-AS verdict the reader sees rests on the cold-path
          // measurement, not the (absent or inherited) learned median.
          if (d->grade == core::BaselineGrade::ProbedCold) v.grade = d->grade;
        }
        break;
      }
      case core::Blame::Ambiguous:
      case core::Blame::Insufficient:
        v.confidence = core::DiagnosisConfidence::Low;
        break;
    }
    newest_bucket_ = std::max(newest_bucket_, v.bucket);
    // Aging happens when publish() rebuilds the shard's column block.
    delta_[shard_of(v.block)][key_of(v.block, v.location)] = v;
  }
}

void VerdictStore::rebuild_shard(std::size_t i, std::int64_t horizon) {
  Delta& delta = delta_[i];
  const VerdictColumns& old = *current_[i];
  const bool needs_age = old.rows() > 0 && old.min_bucket <= horizon;
  if (delta.empty() && !needs_age) return;

  // Sort the delta once; merge-walk against the old (already sorted) block.
  std::vector<std::pair<Key, const Verdict*>> upserts;
  upserts.reserve(delta.size());
  for (const auto& [key, v] : delta) upserts.emplace_back(key, &v);
  std::sort(upserts.begin(), upserts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  auto next = std::make_shared<VerdictColumns>();
  next->keys.reserve(old.rows() + upserts.size());
  std::size_t oi = 0;
  std::size_t di = 0;
  while (oi < old.rows() || di < upserts.size()) {
    const bool take_delta =
        di < upserts.size() &&
        (oi >= old.rows() || upserts[di].first <= old.keys[oi]);
    if (take_delta) {
      if (oi < old.rows() && upserts[di].first == old.keys[oi]) {
        ++oi;  // the delta row supersedes the old one
      }
      const Verdict& v = *upserts[di].second;
      // Upsert, then age: a row older than the horizon (however it got
      // here) does not survive the publish.
      if (v.bucket.index > horizon) next->append(upserts[di].first, v);
      ++di;
    } else {
      if (old.buckets[oi] > horizon) {
        next->append(old.keys[oi], old.row(oi));
      }
      ++oi;
    }
  }
  delta.clear();
  current_[i] = std::move(next);
  shards_[i].store(current_[i]);
}

void VerdictStore::fold_incidents(const core::StepReport& report) {
  // Culprits named by this step's active phase, for middle-run enrichment.
  std::map<std::uint64_t, net::AsId> culprit_of;
  std::map<std::uint64_t, core::BaselineGrade> diag_grade_of;
  for (const auto& d : report.diagnoses) {
    if (d.culprit) {
      culprit_of[middle_run_key(d.location, d.middle)] = *d.culprit;
    }
    if (d.grade == core::BaselineGrade::ProbedCold) {
      diag_grade_of[middle_run_key(d.location, d.middle)] = d.grade;
    }
  }

  // Group this report's blames into per-bucket run-key sets, processed in
  // bucket order — a step may span several buckets and a run must extend
  // through each.
  struct KeyInfo {
    Incident proto;  // template used when the run opens
  };
  std::map<std::int64_t, std::map<std::uint64_t, KeyInfo>> by_bucket;
  for (const auto& b : report.blames) {
    std::uint64_t key = 0;
    Incident proto;
    proto.location = b.quartet.key.location;
    proto.grade = b.grade;
    switch (b.blame) {
      case core::Blame::Cloud:
        key = cloud_run_key(b.quartet.key.location);
        proto.category = core::Blame::Cloud;
        proto.faulty_as = b.faulty_as;
        break;
      case core::Blame::Middle:
        key = middle_run_key(b.quartet.key.location, b.quartet.middle);
        proto.category = core::Blame::Middle;
        proto.middle = b.quartet.middle;
        break;
      case core::Blame::Client:
        key = client_run_key(b.quartet.client_as);
        proto.category = core::Blame::Client;
        proto.faulty_as = b.faulty_as;
        break;
      default:
        continue;  // Ambiguous/Insufficient never form incidents
    }
    const auto [slot, inserted] =
        by_bucket[b.quartet.key.bucket.index].try_emplace(key,
                                                          KeyInfo{proto});
    if (!inserted) {
      // The run's grade is the most-degraded evidence seen: any quartet of
      // the group leaning on a transferred baseline marks the bucket.
      slot->second.proto.grade =
          std::max(slot->second.proto.grade, proto.grade);
    }
  }

  for (const auto& [bucket_index, keys] : by_bucket) {
    const util::TimeBucket bucket{bucket_index};
    auto pending = keys;
    for (auto it = open_runs_.begin(); it != open_runs_.end();) {
      auto& run = it->second;
      const auto hit = pending.find(it->first);
      if (hit != pending.end()) {
        run.incident.last_seen = bucket.start();
        ++run.incident.buckets;
        run.incident.grade =
            std::max(run.incident.grade, hit->second.proto.grade);
        run.last_bucket = bucket;
        pending.erase(hit);
        ++it;
      } else if (bucket > run.last_bucket) {
        // A later bucket arrived without this key: the run ended.
        run.incident.open = false;
        closed_.push_back(run.incident);
        it = open_runs_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [key, info] : pending) {
      OpenRun run;
      run.incident = info.proto;
      run.incident.first_seen = bucket.start();
      run.incident.last_seen = bucket.start();
      run.incident.buckets = 1;
      run.incident.open = true;
      run.last_bucket = bucket;
      open_runs_.emplace(key, std::move(run));
    }
  }

  // Name the culprit on open middle runs the active phase resolved; a
  // probed-cold diagnosis also escalates the run's grade (the named AS
  // rests on a cold-path measurement).
  for (auto& [key, run] : open_runs_) {
    const auto it = culprit_of.find(key);
    if (it != culprit_of.end()) run.incident.faulty_as = it->second;
    const auto git = diag_grade_of.find(key);
    if (git != diag_grade_of.end()) {
      run.incident.grade = std::max(run.incident.grade, git->second);
    }
  }

  while (closed_.size() > config_.max_closed_incidents) closed_.pop_front();

  for (const auto& d : report.diagnoses) {
    diagnoses_.push_back(DiagnosisRecord{report.now, d});
  }
  while (diagnoses_.size() > config_.max_diagnoses) diagnoses_.pop_front();
}

void VerdictStore::publish_timeline(const core::StepReport& report) {
  auto timeline = std::make_shared<Timeline>();
  timeline->incidents.reserve(closed_.size() + open_runs_.size());
  timeline->incidents.assign(closed_.begin(), closed_.end());
  for (const auto& [key, run] : open_runs_) {
    timeline->incidents.push_back(run.incident);
  }
  std::sort(timeline->incidents.begin(), timeline->incidents.end(),
            [](const Incident& a, const Incident& b) {
              return a.first_seen < b.first_seen;
            });
  timeline->diagnoses.assign(diagnoses_.begin(), diagnoses_.end());
  timeline->health =
      Health{.epoch = epoch_.load(std::memory_order_relaxed) + 1,
             .last_step = report.now,
             .steps = steps_,
             .degraded_steps = degraded_steps_,
             .degraded = report.degraded_passive_only};
  timeline_.store(std::move(timeline));
}

std::optional<Verdict> VerdictStore::lookup(
    net::Slash24 block, net::CloudLocationId location) const {
  obs::add(lookups_c_);
  const auto cols = shards_[shard_of(block)].load();
  const Key key = key_of(block, location);
  const auto it = std::lower_bound(cols->keys.begin(), cols->keys.end(), key);
  if (it == cols->keys.end() || *it != key) return std::nullopt;
  return cols->row(static_cast<std::size_t>(it - cols->keys.begin()));
}

std::vector<Verdict> VerdictStore::lookup(net::Slash24 block) const {
  obs::add(lookups_c_);
  std::vector<Verdict> out;
  const auto cols = shards_[shard_of(block)].load();
  // All keys of this /24 are the contiguous range [block<<16, block+1<<16);
  // rows are key-sorted, so the result is already location-ordered.
  const Key lo = static_cast<Key>(block.block) << 16;
  const auto first = std::lower_bound(cols->keys.begin(), cols->keys.end(), lo);
  const auto last =
      std::lower_bound(first, cols->keys.end(), lo + (Key{1} << 16));
  for (auto it = first; it != last; ++it) {
    out.push_back(cols->row(static_cast<std::size_t>(it - cols->keys.begin())));
  }
  return out;
}

std::vector<Verdict> VerdictStore::lookup(net::Prefix prefix) const {
  obs::add(lookups_c_);
  std::vector<Verdict> out;
  for (const auto& slot : shards_) {
    const auto cols = slot.load();
    for (std::size_t i = 0; i < cols->rows(); ++i) {
      const net::Slash24 block{static_cast<std::uint32_t>(cols->keys[i] >> 16)};
      if (prefix.contains(block)) out.push_back(cols->row(i));
    }
  }
  std::sort(out.begin(), out.end(), [](const Verdict& a, const Verdict& b) {
    return a.block == b.block ? a.location.value < b.location.value
                              : a.block < b.block;
  });
  return out;
}

std::vector<Incident> VerdictStore::incidents_since(
    util::MinuteTime since) const {
  const auto timeline = timeline_.load();
  std::vector<Incident> out;
  for (const auto& inc : timeline->incidents) {
    if (inc.last_seen >= since) out.push_back(inc);
  }
  return out;
}

std::vector<DiagnosisRecord> VerdictStore::recent_diagnoses() const {
  const auto timeline = timeline_.load();
  return timeline->diagnoses;
}

VerdictStore::Health VerdictStore::health() const {
  return timeline_.load()->health;
}

std::size_t VerdictStore::verdict_state_bytes() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < delta_.size(); ++i) {
    n += delta_[i].size() *
         (sizeof(std::pair<const Key, Verdict>) + kHashNodeOverhead);
    n += current_[i]->bytes();  // working state == published snapshot
  }
  return n;
}

void VerdictStore::save_state(store::SnapshotWriter& writer) const {
  std::string& out = writer.section("verdicts");
  store::put_varint(out, 2);  // verdicts payload format (2 adds §13 grades)
  store::put_svarint(out, newest_bucket_.index);
  store::put_varint(out, steps_);
  store::put_varint(out, degraded_steps_);
  store::put_u64(out, epoch_.load(std::memory_order_relaxed));
  const auto timeline = timeline_.load();
  store::put_svarint(out, timeline->health.last_step.minutes);
  store::put_varint(out, timeline->health.degraded ? 1 : 0);

  // Verdict rows in a layout-independent normal form: globally key-sorted,
  // column-major. (Keys are unique across shards, so a flat sort is exact.)
  std::vector<std::pair<Key, Verdict>> rows;
  for (std::size_t i = 0; i < current_.size(); ++i) {
    const VerdictColumns& cols = *current_[i];
    for (std::size_t r = 0; r < cols.rows(); ++r) {
      rows.emplace_back(cols.keys[r], cols.row(r));
    }
    for (const auto& [key, v] : delta_[i]) rows.emplace_back(key, v);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // A delta row shadows the block row with the same key. Deltas are only
  // non-empty between fold_blames and publish, and save_state runs between
  // publishes, so in practice both sets are disjoint-or-empty; dedupe
  // defensively anyway.
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             rows.end());

  store::put_varint(out, rows.size());
  Key prev = 0;
  for (const auto& [key, v] : rows) {
    store::put_varint(out, key - prev);
    prev = key;
  }
  for (const auto& [key, v] : rows) store::put_varint(out, v.middle.value);
  for (const auto& [key, v] : rows) store::put_varint(out, v.client_as.value);
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(v.blame));
  }
  for (const auto& [key, v] : rows) {
    store::put_varint(out, v.faulty_as ? v.faulty_as->value + std::uint64_t{1}
                                       : 0);
  }
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(v.confidence));
  }
  for (const auto& [key, v] : rows) {
    out.push_back(static_cast<char>(
        (v.from_active ? 1 : 0) | (v.baseline_predates_issue ? 2 : 0) |
        (static_cast<int>(v.grade) << 2)));
  }
  for (const auto& [key, v] : rows) store::put_svarint(out, v.bucket.index);
  for (const auto& [key, v] : rows) store::put_f64(out, v.mean_rtt_ms);
  for (const auto& [key, v] : rows) store::put_svarint(out, v.sample_count);

  // Incident machinery: open runs (key-sorted for determinism), closed ring
  // and diagnosis ring in deque order (order is part of the bounded-pop
  // semantics).
  std::vector<std::pair<std::uint64_t, const OpenRun*>> runs;
  runs.reserve(open_runs_.size());
  for (const auto& [key, run] : open_runs_) runs.emplace_back(key, &run);
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  store::put_varint(out, runs.size());
  for (const auto& [key, run] : runs) {
    store::put_u64(out, key);
    put_incident(out, run->incident);
    store::put_svarint(out, run->last_bucket.index);
  }
  store::put_varint(out, closed_.size());
  for (const Incident& inc : closed_) put_incident(out, inc);
  store::put_varint(out, diagnoses_.size());
  for (const DiagnosisRecord& record : diagnoses_) {
    put_diagnosis(out, record);
  }
}

void VerdictStore::restore_state(const store::SnapshotReader& reader) {
  store::ByteReader in = reader.section("verdicts");
  const std::uint64_t format = in.varint();
  if (format != 1 && format != 2) {
    in.fail("unsupported verdicts payload format " + std::to_string(format));
  }
  const std::int64_t newest_bucket = in.svarint();
  const std::uint64_t steps = in.varint();
  const std::uint64_t degraded_steps = in.varint();
  const std::uint64_t epoch = in.u64();
  const std::int64_t last_step_minutes = in.svarint();
  const bool degraded = in.varint() != 0;

  const std::size_t n_rows = in.count("verdict row count");
  std::vector<Key> keys(n_rows);
  std::vector<Verdict> verdicts(n_rows);
  Key prev = 0;
  for (auto& key : keys) {
    prev += in.varint();
    key = prev;
  }
  for (std::size_t r = 0; r < verdicts.size(); ++r) {
    verdicts[r].block =
        net::Slash24{static_cast<std::uint32_t>(keys[r] >> 16)};
    verdicts[r].location =
        net::CloudLocationId{static_cast<std::uint16_t>(keys[r] & 0xFFFF)};
  }
  for (auto& v : verdicts) {
    v.middle = net::MiddleSegmentId{static_cast<std::uint32_t>(in.varint())};
  }
  for (auto& v : verdicts) {
    v.client_as = net::AsId{static_cast<std::uint32_t>(in.varint())};
  }
  for (auto& v : verdicts) v.blame = static_cast<core::Blame>(in.u8());
  for (auto& v : verdicts) {
    if (const std::uint64_t as = in.varint(); as != 0) {
      v.faulty_as = net::AsId{static_cast<std::uint32_t>(as - 1)};
    }
  }
  for (auto& v : verdicts) {
    v.confidence = static_cast<core::DiagnosisConfidence>(in.u8());
  }
  for (auto& v : verdicts) {
    const std::uint8_t bits = in.u8();
    v.from_active = (bits & 1) != 0;
    v.baseline_predates_issue = (bits & 2) != 0;
    if (((bits >> 2) & 3) > 2) in.fail("verdict grade out of range");
    v.grade = static_cast<core::BaselineGrade>((bits >> 2) & 3);
  }
  for (auto& v : verdicts) v.bucket = util::TimeBucket{in.svarint()};
  for (auto& v : verdicts) v.mean_rtt_ms = in.f64();
  for (auto& v : verdicts) v.sample_count = static_cast<int>(in.svarint());

  const std::size_t n_runs = in.count("open-run count");
  std::unordered_map<Key, OpenRun> open_runs;
  open_runs.reserve(n_runs);
  for (std::size_t r = 0; r < n_runs; ++r) {
    const std::uint64_t key = in.u64();
    OpenRun run;
    run.incident = read_incident(in, format);
    run.last_bucket = util::TimeBucket{in.svarint()};
    open_runs.emplace(key, std::move(run));
  }
  const std::size_t n_closed = in.count("closed count");
  std::deque<Incident> closed;
  for (std::size_t c = 0; c < n_closed; ++c) {
    closed.push_back(read_incident(in, format));
  }
  const std::size_t n_diagnoses = in.count("diagnosis count");
  std::deque<DiagnosisRecord> diagnoses;
  for (std::size_t d = 0; d < n_diagnoses; ++d) {
    diagnoses.push_back(read_diagnosis(in));
  }
  in.expect_done();

  // All parsed cleanly — commit and republish.
  newest_bucket_ = util::TimeBucket{newest_bucket};
  steps_ = steps;
  degraded_steps_ = degraded_steps;
  epoch_.store(epoch, std::memory_order_release);
  open_runs_ = std::move(open_runs);
  closed_ = std::move(closed);
  diagnoses_ = std::move(diagnoses);

  std::vector<std::shared_ptr<VerdictColumns>> next(shards_.size());
  for (auto& cols : next) cols = std::make_shared<VerdictColumns>();
  // The global key sort survives the shard split (per-shard subsequences
  // stay sorted), so a straight append per shard builds valid blocks.
  for (std::size_t r = 0; r < keys.size(); ++r) {
    next[shard_of(verdicts[r].block)]->append(keys[r], verdicts[r]);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    delta_[i].clear();
    current_[i] = std::move(next[i]);
    shards_[i].store(current_[i]);
  }
  publish_restored_timeline(util::MinuteTime{last_step_minutes}, degraded);
  obs::set(verdicts_g_, static_cast<double>(keys.size()));
  obs::set(open_incidents_g_, static_cast<double>(open_runs_.size()));
}

void VerdictStore::publish_restored_timeline(util::MinuteTime last_step,
                                             bool degraded) {
  auto timeline = std::make_shared<Timeline>();
  timeline->incidents.reserve(closed_.size() + open_runs_.size());
  timeline->incidents.assign(closed_.begin(), closed_.end());
  for (const auto& [key, run] : open_runs_) {
    timeline->incidents.push_back(run.incident);
  }
  std::sort(timeline->incidents.begin(), timeline->incidents.end(),
            [](const Incident& a, const Incident& b) {
              return a.first_seen < b.first_seen;
            });
  timeline->diagnoses.assign(diagnoses_.begin(), diagnoses_.end());
  // epoch_ already holds the restored published count; unlike
  // publish_timeline there is no pending increment to anticipate.
  timeline->health = Health{.epoch = epoch_.load(std::memory_order_relaxed),
                            .last_step = last_step,
                            .steps = steps_,
                            .degraded_steps = degraded_steps_,
                            .degraded = degraded};
  timeline_.store(std::move(timeline));
}

}  // namespace blameit::svc
