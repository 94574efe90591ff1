// Membership and replication glue of the RJoin engine (docs/churn.md,
// docs/failures.md): in-band join, leave and crash, the state handoff a
// ring change triggers, the post-churn forwarding rule, and successor-list
// mirroring with crash scheduling. The per-key slice format these paths
// share, and the code that extracts and installs slices, live in
// core/slice_codec.*; engine.cc keeps the paper protocol.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/slice_codec.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

/// Reusable per-thread replica target set (the mirror fan-out of
/// docs/failures.md resolves its successor list allocation-free once warm).
std::vector<dht::NodeIndex>& ReplicaTargetBuffer() {
  static thread_local std::vector<dht::NodeIndex> buf;
  return buf;
}

}  // namespace

bool RJoinEngine::MaybeForward(dht::NodeIndex self, KeyId key,
                               MessageTask* task) {
  const dht::NodeIndex owner =
      transport_->CachedSuccessorOf(key, interner_->ring_id(key));
  if (owner == self) return false;
  // Responsibility for `key` moved while this message was in flight (or the
  // sender used a stale cached address). The old owner knows the current
  // one — its successor chain is exact after the churn splice — so one
  // direct hop completes the delivery. Departed nodes drain their mail the
  // same way.
  const bool ric = task->kind() == MessageKind::kRicRequest;
  transport_->SendDirect(self, owner, std::move(*task), ric);
  AddChurnCounters(ChurnSinkCounters{.forwarded = 1});
  return true;
}

Status RJoinEngine::ScheduleJoin(sim::SimTime when, const dht::NodeId& id,
                                 dht::NodeIndex bootstrap) {
  if (bootstrap >= states_.size()) {
    return Status::InvalidArgument("bootstrap node does not exist");
  }
  ScheduleLocalEvent(when, bootstrap, MessageTask(NodeJoin{id, bootstrap}));
  return Status::Ok();
}

Status RJoinEngine::ScheduleLeave(sim::SimTime when, dht::NodeIndex node) {
  // The leave announcement is staged wherever it lands; deliver it to the
  // departing node when it already exists, else to node 0 (a leave may be
  // scheduled ahead of the join that creates its target — validity is
  // checked at application time).
  const dht::NodeIndex dst = node < states_.size() ? node : 0;
  ScheduleLocalEvent(when, dst, MessageTask(NodeLeave{node}));
  return Status::Ok();
}

Status RJoinEngine::ScheduleCrash(sim::SimTime when, dht::NodeIndex node,
                                  uint32_t take_successors) {
  // Same addressing rule as a leave: the kill notice travels in-band to the
  // victim when it exists (node 0 otherwise) and is validated when applied.
  const dht::NodeIndex dst = node < states_.size() ? node : 0;
  ScheduleLocalEvent(when, dst, MessageTask(NodeCrash{node, take_successors}));
  return Status::Ok();
}

void RJoinEngine::ScheduleLocalEvent(sim::SimTime when, dht::NodeIndex dst,
                                     MessageTask task) {
  if (runtime_ != nullptr) {
    RJOIN_CHECK(runtime::ShardedRuntime::CurrentShard() < 0)
        << "local events are scheduled outside worker threads";
    EnvelopeRef env = runtime_->AcquireFor(dst);
    env->time = std::max<sim::SimTime>(when, runtime_->Now());
    env->src = dst;
    env->seq = runtime_->NextEmitSeq(dst);
    env->dst = dst;
    env->task = std::move(task);
    runtime_->ScheduleEnvelope(std::move(env));
    return;
  }
  EnvelopeRef env = simulator_->pool().Acquire();
  env->dst = dst;
  env->task = std::move(task);
  simulator_->Schedule(std::max<sim::SimTime>(when, simulator_->Now()),
                       std::move(env));
}

void RJoinEngine::StageOrApplyChurn(ChurnOp op) {
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    // Worker context: ring mutations are serial-phase work. Stage the
    // request keyed by this event's (time, src, seq); the main thread applies
    // all staged ops at the next rendezvous in global EventKey order,
    // which is the same for any shard count.
    const runtime::EventKey key = runtime_->CurrentEventKey();
    sinks_[shard].churn_ops.emplace_back(key, std::move(op));
    // Cap the epoch: no shard may outrun the staged mutation. At this
    // instant no watermark can have passed key.time + lookahead (the
    // staging shard's published floor is still <= key.time), so the cap
    // holds for every shard — and the resulting rendezvous schedule is a
    // pure function of the event population, hence shard-count-invariant.
    runtime_->RequestRendezvousBy(
        sim::SaturatingAdd(key.time, runtime_->lookahead()));
    return;
  }
  // Serial simulator (or between epochs): nothing else runs, apply now.
  ApplyChurn(op);
}

void RJoinEngine::ApplyChurn(const ChurnOp& op) {
  switch (op.kind) {
    case ChurnOp::Kind::kJoin:
      ApplyJoin(op.id, op.bootstrap);
      return;
    case ChurnOp::Kind::kLeave:
      ApplyLeave(op.node);
      return;
    case ChurnOp::Kind::kCrash:
      ApplyCrash(op.node, op.take_successors);
      return;
  }
}

void RJoinEngine::ApplyJoin(const dht::NodeId& id, dht::NodeIndex bootstrap) {
  if (bootstrap >= network_->num_total() ||
      !network_->node(bootstrap).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  auto joined = network_->JoinAndSplice(id, bootstrap);
  if (!joined.ok()) {
    ++churn_.ops_rejected;
    return;
  }
  GrowForNode(*joined);
  ++churn_.joins_applied;
  forwarding_armed_ = true;
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kChurn, /*kind=*/1, *joined,
                          bootstrap, 0, Now());
  }
  // The joiner takes (pred, id] from its successor, the old owner.
  const dht::NodeIndex pred = network_->node(*joined).predecessor();
  const dht::NodeIndex old_owner = network_->node(*joined).successor();
  if (old_owner != *joined) {
    EmitHandoff(old_owner, *joined,
                dht::KeyRange{network_->node(pred).id(), id});
  }
  // The joiner displaced a slot in its predecessors' successor sets: their
  // mirrors must reach the new replica targets.
  if (config_.replication > 1) RefreshReplicasAround(id);
}

void RJoinEngine::ApplyLeave(dht::NodeIndex node) {
  if (node >= network_->num_total() || !network_->node(node).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  auto range = network_->LeaveNode(node);
  if (!range.ok()) {
    ++churn_.ops_rejected;
    return;
  }
  ++churn_.leaves_applied;
  forwarding_armed_ = true;
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kChurn, /*kind=*/0, node,
                          network_->SuccessorOf(range->high), 0, Now());
  }
  // The departed node's range belongs to its successor now (the first
  // alive node past the range's high end).
  const dht::NodeIndex new_owner = network_->SuccessorOf(range->high);
  EmitHandoff(node, new_owner, *range);
  // The leaver's predecessors lost a replica target; re-aim their mirrors.
  if (config_.replication > 1) RefreshReplicasAround(range->high);
}

void RJoinEngine::ApplyCrash(dht::NodeIndex node, uint32_t take_successors) {
  if (node >= network_->num_total() || !network_->node(node).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  // Victim set: the node plus its next take_successors alive successors —
  // resolved before anything dies, so "correlated" means ring-adjacent at
  // crash time.
  std::vector<dht::NodeIndex> victims{node};
  if (take_successors > 0) {
    std::vector<dht::NodeIndex> adjacent;
    network_->SuccessorsOf(node, take_successors, &adjacent);
    victims.insert(victims.end(), adjacent.begin(), adjacent.end());
  }

  // Phase 1: every victim dies before any recovery starts. A correlated
  // kill of a key's whole replica set must genuinely lose the data — a
  // victim never gets to promote slices of a fellow victim.
  std::vector<dht::KeyRange> orphaned;
  for (dht::NodeIndex v : victims) {
    auto range = network_->CrashNode(v);
    if (!range.ok()) {
      ++churn_.ops_rejected;  // e.g. the last alive node refuses to crash
      continue;
    }
    DropAllState(v);
    crashed_[v] = 1;
    ++churn_.crashes_applied;
    forwarding_armed_ = true;
    if (stats::Tracer::On()) {
      stats::Tracer::Record(stats::TraceCategory::kChurn, /*kind=*/2, v,
                            network_->SuccessorOf(range->high), 0, Now());
    }
    orphaned.push_back(*range);
  }

  // Phase 2: per orphaned range, the surviving successor promotes whatever
  // replica slices it holds — but not yet. A victim's last mirrors may
  // still be in flight, and they hold more than the replica store does
  // now. Every message sent up to the crash is delivered within `bound`
  // ticks (the latency model's maximum hop delay, or the sharded runtime's
  // lookahead when a zero-delay hop is deferred to it), so the promotion is
  // a self-addressed notice due one tick later. Until it runs, the survivor
  // still accepts the crashed owner's mirrors (OnReplicaUpdate). Recovery
  // time spans the crash (the generation bump at this barrier) through the
  // install.
  if (config_.replication <= 1) return;
  const uint64_t crash_time = Now();
  sim::SimTime bound = transport_->max_delay();
  if (runtime_ != nullptr) bound = std::max(bound, runtime_->lookahead());
  for (const dht::KeyRange& range : orphaned) {
    const dht::NodeIndex survivor = network_->SuccessorOf(range.high);
    ++replication_.promotions_emitted;
    ScheduleLocalEvent(
        crash_time + bound + 1, survivor,
        MessageTask(Control{[this, survivor, range, crash_time] {
          PromoteReplicas(survivor, range, crash_time);
        }}));
  }
  for (const dht::KeyRange& range : orphaned) {
    RefreshReplicasAround(range.high);
  }
}

void RJoinEngine::DropAllState(dht::NodeIndex node) {
  NodeState& st = state(node);
  const uint64_t now = Now();
  const auto all = [](KeyId) { return true; };
  for (KeyId key : SortedStateKeys(st, *interner_, all)) {
    const KeySlice gone = Extract(st, key, ExtractMode::kMove, now);
    const uint64_t stored = gone.queries.size() + gone.tuples.size();
    if (stored > 0) Metrics().RemoveStore(node, stored);
  }
  st.replicas.reset();
}

void RJoinEngine::RefreshReplicasAround(const dht::NodeId& position) {
  // Nodes whose successor window shifted: the owner at `position` and its
  // replication-1 alive ring predecessors. (The owner's own keys may also
  // have changed hands — its mirrors refresh as installs arrive; this
  // barrier-time pass re-aims the stale topology.)
  dht::NodeIndex at = network_->SuccessorOf(position);
  const size_t hops =
      std::min<size_t>(config_.replication - 1, network_->num_alive() - 1);
  MirrorAllKeys(at);
  for (size_t i = 0; i < hops; ++i) {
    at = network_->node(at).predecessor();
    MirrorAllKeys(at);
  }
}

void RJoinEngine::MirrorAllKeys(dht::NodeIndex node) {
  stats::AllocScope plane(stats::AllocPlane::kOther);
  for (KeyId key : SortedStateKeys(state(node), *interner_, [&](KeyId k) {
         return network_->SuccessorOf(interner_->ring_id(k)) == node;
       })) {
    MirrorBase(node, key);
  }
}

void RJoinEngine::GrowForNode(dht::NodeIndex index) {
  RJOIN_CHECK(index == states_.size())
      << "joins must append node indices sequentially";
  states_.push_back(std::make_unique<NodeState>(config_.ric_epoch));
  crashed_.push_back(0);
  metrics_->Resize(states_.size());
  if (runtime_ != nullptr) {
    runtime_->GrowNodes(states_.size());
    frozen_rates_.emplace_back();
    planner_seq_.push_back(0);
  }
}

void RJoinEngine::EmitHandoff(dht::NodeIndex from, dht::NodeIndex to,
                              const dht::KeyRange& range) {
  NodeState& st = state(from);
  auto batch = std::make_unique<SliceBatch>();
  batch->from = from;
  batch->range = range;
  batch->emitted_at = Now();
  batch->seq = st.mirror_seq;
  // Keys travel in ring order, not KeyIdMap iteration order — the batch
  // layout is a pure function of the key set, so runs with different
  // intern histories still hand off identically.
  for (KeyId key : SortedStateKeys(st, *interner_, [&](KeyId k) {
         return range.Contains(interner_->ring_id(k));
       })) {
    KeySlice slice = Extract(st, key, ExtractMode::kMove, batch->emitted_at);
    if (slice.empty()) continue;
    const uint64_t stored = slice.queries.size() + slice.tuples.size();
    if (stored > 0) Metrics().RemoveStore(from, stored);
    churn_.handoff_queries += slice.queries.size();
    churn_.handoff_tuples += slice.tuples.size();
    churn_.handoff_altt += slice.altt.size();
    churn_.handoff_rates += slice.has_rate() ? 1 : 0;
    batch->slices.push_back(std::move(slice));
  }
  if (batch->slices.empty()) return;  // Nothing to move: no message.
  churn_.handoff_messages += 1;
  churn_.handoff_bytes += batch->ApproxBytes();
  transport_->SendDirect(from, to, MessageTask(StateHandoff{std::move(batch)}));
}

void RJoinEngine::AddChurnCounters(const ChurnSinkCounters& delta) {
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    ChurnSinkCounters& c = sinks_[shard].churn;
    c.installed += delta.installed;
    c.reforwarded += delta.reforwarded;
    c.recovery_ticks += delta.recovery_ticks;
    c.forwarded += delta.forwarded;
    return;
  }
  churn_.handoffs_installed += delta.installed;
  churn_.handoffs_reforwarded += delta.reforwarded;
  churn_.handoff_recovery_ticks += delta.recovery_ticks;
  churn_.forwarded_messages += delta.forwarded;
}

void RJoinEngine::AddReplicaCounters(const ReplicaSinkCounters& delta) {
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    ReplicaSinkCounters& c = sinks_[shard].replica;
    c.updates += delta.updates;
    c.slices += delta.slices;
    c.bytes += delta.bytes;
    c.promotions_installed += delta.promotions_installed;
    c.promoted_records += delta.promoted_records;
    c.answers_lost += delta.answers_lost;
    return;
  }
  replication_.replica_updates += delta.updates;
  replication_.replica_slices += delta.slices;
  replication_.replica_bytes += delta.bytes;
  replication_.promotions_installed += delta.promotions_installed;
  replication_.promoted_records += delta.promoted_records;
  replication_.answers_lost += delta.answers_lost;
}

void RJoinEngine::RecordPromotionTicks(uint64_t ticks) {
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    sinks_[shard].promotion_ticks.emplace_back(runtime_->CurrentEventKey(),
                                               ticks);
    return;
  }
  promotion_recovery_ticks_.push_back(ticks);
}

void RJoinEngine::MirrorBase(dht::NodeIndex self, KeyId key) {
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(self, config_.replication - 1, &succs);
  if (succs.empty()) return;

  // Bases go out on churn only; like handoff batches, they are boxed and
  // allocate outside the per-record planes.
  stats::AllocScope plane(stats::AllocPlane::kOther);
  NodeState& st = state(self);
  const uint64_t now = Now();
  const uint64_t seq = ++st.mirror_seq;
  ReplicaSinkCounters counters;
  for (dht::NodeIndex dst : succs) {
    // One snapshot per successor: batches are move-only (pooled records
    // inside), so each target gets its own copy of the slice.
    auto batch = std::make_unique<SliceBatch>();
    batch->from = self;
    batch->emitted_at = now;
    batch->seq = seq;
    batch->kind = SliceKind::kMirror;
    batch->slices.push_back(Extract(st, key, ExtractMode::kCopy, now));
    ++counters.updates;
    ++counters.slices;
    counters.bytes += batch->ApproxBytes();
    transport_->SendDirect(self, dst,
                           MessageTask(StateHandoff{std::move(batch)}));
  }
  AddReplicaCounters(counters);
}

void RJoinEngine::MirrorDelta(dht::NodeIndex self, ReplicaUpdate&& delta) {
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(self, config_.replication - 1, &succs);
  if (succs.empty()) return;
  delta.from = self;
  delta.version = MirrorVersion{Now(), ++state(self).mirror_seq};
  const ReplicaSinkCounters counters{
      .updates = succs.size(), .bytes = succs.size() * delta.ApproxBytes()};
  for (size_t i = 0; i + 1 < succs.size(); ++i) {
    transport_->SendDirect(self, succs[i], MessageTask(ReplicaUpdate(delta)));
  }
  transport_->SendDirect(self, succs.back(), MessageTask(std::move(delta)));
  AddReplicaCounters(counters);
}

void RJoinEngine::WriteThroughRateReplica(dht::NodeIndex owner, KeyId key,
                                          uint64_t now) {
  uint64_t epoch = 0, current = 0, previous = 0;
  if (!state(owner).rates.PeekKey(key, &epoch, &current, &previous)) return;
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(owner, config_.replication - 1, &succs);
  // A rate triple like a delta's: it wins over older triples and leaves
  // the base alone, so no delta the write lacks counts as covered.
  const MirrorVersion version{now, ++state(owner).mirror_seq};
  for (dht::NodeIndex dst : succs) {
    Replicas(dst).entries[key].OfferRate(version, epoch, current, previous);
  }
}

ReplicaStore& RJoinEngine::Replicas(dht::NodeIndex node) {
  std::unique_ptr<ReplicaStore>& store = state(node).replicas;
  if (store == nullptr) store = std::make_unique<ReplicaStore>();
  return *store;
}

}  // namespace rjoin::core
