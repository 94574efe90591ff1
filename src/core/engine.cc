#include "core/engine.h"

#include "sql/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "core/slice_codec.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// DISTINCT projection fingerprint of Section 4, over interned value ids:
/// vid equality is value equality (injective interner) and vids are
/// canonical across shard counts, so the fingerprint is deterministic and
/// needs no string rendering. Shared by the single-tuple trigger and the
/// batched probe kernel — both sides of the rule must hash identically.
uint64_t ProjectionFingerprint(const InputQuery& q, int rel,
                               const TupleRef& t) {
  uint64_t h = kFnvOffset;
  const ValueId* cols = t.rec().columns();
  for (int attr : q.projection_attrs(rel)) {
    h ^= static_cast<uint64_t>(cols[attr]) + 1;
    h *= kFnvPrime;
  }
  return h;
}

/// Owner-side DISTINCT row fingerprint: FNV over the flat answer row's
/// value ids (replaces the seed's per-row key string).
uint64_t AnswerRowFingerprint(const AnswerDeliver& msg) {
  uint64_t h = kFnvOffset;
  for (uint16_t i = 0; i < msg.row_len; ++i) {
    h ^= static_cast<uint64_t>(msg.row[i]) + 1;
    h *= kFnvPrime;
  }
  return h;
}

/// Materializes one logged answer for the user-facing readers (answers(),
/// AnswersFor) — never on the delivery path.
Answer ToAnswer(const AnswerLog::Record& r) {
  Answer a{r.query_id, {}, r.delivered_at};
  a.row.reserve(r.row_len);
  const ValueInterner& vi = ValueInterner::Global();
  for (uint16_t i = 0; i < r.row_len; ++i) a.row.push_back(vi.value(r.row[i]));
  return a;
}

/// Reusable per-thread match buffer of the batched probe kernel (phase 1
/// collects pointers to matched refs here; phase 2 consumes them). The
/// pointers address chunk/span storage that phase 2 never mutates.
std::vector<const TupleRef*>& MatchBuffer() {
  static thread_local std::vector<const TupleRef*> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread span list: the value-bucket probe describes its
/// chunk chain as (data, count) runs so the kernel reads chunk storage in
/// place — no gather, no refcount traffic.
std::vector<TupleSpan>& SpanListBuffer() {
  static thread_local std::vector<TupleSpan> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread span buffer: the ALTT probe gathers its non-expired
/// chain entries into contiguous storage for the batched kernel. Cleared
/// after use so the handles do not pin records between probes.
std::vector<TupleRef>& AlttSpanBuffer() {
  static thread_local std::vector<TupleRef> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread candidate buffer for IndexResidual (one rewrite hop
/// enumerates its indexing candidates allocation-free once warm).
std::vector<KeyId>& CandidateBuffer() {
  static thread_local std::vector<KeyId> buf;
  return buf;
}

/// Reusable per-thread RIC gather scratch (one entry per candidate).
std::vector<RicEntry>& RicEntryBuffer() {
  static thread_local std::vector<RicEntry> buf;
  return buf;
}

/// Positions of the candidates GatherRic must fetch along the chained
/// request (cleared per call).
std::vector<size_t>& RicUnknownBuffer() {
  static thread_local std::vector<size_t> buf;
  buf.clear();
  return buf;
}

}  // namespace

RJoinEngine::RJoinEngine(EngineConfig config, const sql::Catalog* catalog,
                         dht::ChordNetwork* network, dht::Transport* transport,
                         sim::Simulator* simulator,
                         stats::MetricsRegistry* metrics)
    : config_(config),
      catalog_(catalog),
      network_(network),
      transport_(transport),
      simulator_(simulator),
      metrics_(metrics),
      rng_(config.seed) {
  metrics_->Resize(network_->num_total());
  states_.reserve(network_->num_total());
  for (size_t i = 0; i < network_->num_total(); ++i) {
    states_.push_back(std::make_unique<NodeState>(config_.ric_epoch));
  }
  crashed_.assign(network_->num_total(), 0);
  transport_->set_handler(this);

  if (config_.altt_delta != 0) {
    altt_delta_ = config_.altt_delta;
  } else {
    // Section 4: overestimate the time for any message to cross the network
    // — O(log N) hops, each bounded by delta — from a locally estimated
    // network size. Factor 4 is the safety margin ("overestimate").
    const double est = network_->EstimateSize(network_->AliveNodes().front());
    const double hops = std::max(1.0, std::log2(std::max(2.0, est)));
    // The latency bound per hop is not visible here; transports in this
    // repo use single-digit tick hops, so bound a hop by 16 ticks.
    altt_delta_ = static_cast<uint64_t>(4.0 * hops * 16.0);
  }
}

void RJoinEngine::AttachRuntime(runtime::ShardedRuntime* rt) {
  RJOIN_CHECK(runtime_ == nullptr) << "runtime already attached";
  RJOIN_CHECK(rt->num_nodes() == states_.size())
      << "runtime sized for a different network";
  runtime_ = rt;
  sinks_ = std::vector<ShardSink>(rt->shards());
  frozen_rates_.assign(states_.size(), {});
  planner_seq_.assign(states_.size(), 0);
  rt->AddBarrierHook(this);
}

void RJoinEngine::OnBarrier(sim::SimTime round_start) {
  // Publish answers staged by the previous round. Each shard stages in
  // EventKey order already; a merge-sort across shards reconstructs the
  // global, shard-count-invariant delivery order.
  size_t staged = 0;
  for (const ShardSink& sink : sinks_) staged += sink.answers.size();
  if (staged > 0) {
    std::vector<std::pair<runtime::EventKey, AnswerLog::Record>> merged;
    merged.reserve(staged);
    for (const ShardSink& sink : sinks_) {
      size_t i = 0;
      sink.answers.ForEach([&](const AnswerLog::Record& r) {
        merged.emplace_back(sink.answer_keys[i++], r);
      });
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, record] : merged) answers_.Append(record);
    for (ShardSink& sink : sinks_) {
      sink.answers.Clear();
      sink.answer_keys.clear();
    }
  }
  for (ShardSink& sink : sinks_) {
    distinct_suppressed_ += sink.distinct_suppressed;
    sink.distinct_suppressed = 0;
    sink.key_load.ForEach(
        [this](KeyId key, uint64_t count) { key_load_[key] += count; });
    sink.key_load.clear();
  }

  // Churn: fold worker-side counters, then apply the ring mutations staged
  // by the previous round in global EventKey order. Workers are parked, so
  // this is the one place the topology, the node tables, and the handoff
  // envelopes may change (see docs/churn.md).
  bool churn_applied = false;
  {
    std::vector<std::pair<runtime::EventKey, ChurnOp>> ops;
    std::vector<std::pair<runtime::EventKey, uint64_t>> ticks;
    for (ShardSink& sink : sinks_) {
      churn_.handoffs_installed += sink.churn.installed;
      churn_.handoffs_reforwarded += sink.churn.reforwarded;
      churn_.handoff_recovery_ticks += sink.churn.recovery_ticks;
      churn_.forwarded_messages += sink.churn.forwarded;
      sink.churn = ChurnSinkCounters{};
      replication_.replica_updates += sink.replica.updates;
      replication_.replica_slices += sink.replica.slices;
      replication_.replica_bytes += sink.replica.bytes;
      replication_.promotions_installed += sink.replica.promotions_installed;
      replication_.promoted_records += sink.replica.promoted_records;
      replication_.answers_lost += sink.replica.answers_lost;
      sink.replica = ReplicaSinkCounters{};
      ticks.insert(ticks.end(), sink.promotion_ticks.begin(),
                   sink.promotion_ticks.end());
      sink.promotion_ticks.clear();
      ops.insert(ops.end(), std::make_move_iterator(sink.churn_ops.begin()),
                 std::make_move_iterator(sink.churn_ops.end()));
      sink.churn_ops.clear();
    }
    if (!ticks.empty()) {
      // Recovery samples merge in global EventKey order, so the series is
      // identical for any shard count.
      std::sort(ticks.begin(), ticks.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (const auto& [key, t] : ticks) promotion_recovery_ticks_.push_back(t);
    }
    if (!ops.empty()) {
      std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (const auto& [key, op] : ops) ApplyChurn(op);
      churn_applied = true;
    }
  }
  // A responsibility change invalidates the frozen per-epoch rate
  // snapshots (rates moved between nodes, and new nodes have none), so
  // force a rebuild below — at a barrier, hence shard-count-invariant.
  if (churn_applied) frozen_valid_ = false;

  // Refresh the frozen rate snapshots when entering a new RIC epoch: for
  // the rest of the epoch, worker-side RIC lookups see the rates as of this
  // barrier — a deterministic function of the round schedule, which is
  // itself independent of the shard count.
  const uint64_t epoch =
      config_.ric_epoch == 0 ? 0 : round_start / config_.ric_epoch;
  if (!frozen_valid_ || epoch != frozen_epoch_) {
    for (size_t n = 0; n < states_.size(); ++n) {
      frozen_rates_[n].clear();
      states_[n]->rates.SnapshotInto(round_start, &frozen_rates_[n]);
    }
    frozen_epoch_ = epoch;
    frozen_valid_ = true;
  }
}

sim::SimTime RJoinEngine::NextRendezvous(sim::SimTime after) {
  // Frozen rate snapshots hold for one RIC epoch; overlap may not cross a
  // boundary or workers would read rates one epoch stale. Everything else
  // OnBarrier does (answer publication, counter folds) is order-preserving
  // at any rendezvous spacing.
  if (config_.ric_epoch == 0) return runtime::kNoRendezvous;
  return ((after / config_.ric_epoch) + 1) * config_.ric_epoch;
}

uint64_t RJoinEngine::ReadRate(dht::NodeIndex cand, KeyId key,
                               uint64_t now) {
  if (runtime_ != nullptr && runtime::ShardedRuntime::CurrentShard() >= 0) {
    const uint64_t* rate = frozen_rates_[cand].Find(key);
    return rate == nullptr ? 0 : *rate;
  }
  return state(cand).rates.Rate(key, now);
}

StatusOr<uint64_t> RJoinEngine::SubmitQuery(dht::NodeIndex owner,
                                            sql::Query spec) {
  auto compiled = InputQuery::Create(next_query_id_, owner, Now(),
                                     std::move(spec), catalog_);
  if (!compiled.ok()) return compiled.status();
  const uint64_t id = next_query_id_++;
  queries_.emplace(id, *compiled);

  const sql::WindowSpec& w = (*compiled)->spec().window;
  if (w.use_windows) {
    ++num_windowed_queries_;
    max_window_span_ = std::max(max_window_span_, w.size);
  } else {
    ++num_unwindowed_queries_;
  }

  IndexResidual(owner, Residual(*compiled));
  return id;
}

StatusOr<uint64_t> RJoinEngine::SubmitOneTimeQuery(dht::NodeIndex owner,
                                                   sql::Query spec) {
  if (spec.window.use_windows) {
    return Status::InvalidArgument(
        "one-time queries take a snapshot; window clauses do not apply");
  }
  auto compiled = InputQuery::Create(next_query_id_, owner, Now(),
                                     std::move(spec), catalog_,
                                     /*one_time=*/true);
  if (!compiled.ok()) return compiled.status();
  const uint64_t id = next_query_id_++;
  queries_.emplace(id, *compiled);
  IndexResidual(owner, Residual(*compiled));
  return id;
}

StatusOr<uint64_t> RJoinEngine::SubmitQuerySql(dht::NodeIndex owner,
                                               std::string_view sql_text) {
  auto parsed = sql::Parser::Parse(sql_text);
  if (!parsed.ok()) return parsed.status();
  return SubmitQuery(owner, std::move(*parsed));
}

StatusOr<TupleRef> RJoinEngine::PublishTuple(
    dht::NodeIndex publisher, const std::string& relation,
    const std::vector<sql::Value>& values) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  if (schema->arity() != values.size()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  // One flat pooled record per published tuple; the 2k indexed copies below
  // share it through 4-byte handles.
  TupleRef t = TuplePool::Global().Make(relation, values, Now(),
                                        ++global_seq_, next_tuple_id_++);
  if (config_.keep_history) history_.push_back(t.Materialize());

  // Procedure 1: index the tuple under 2k keys — one attribute-level and
  // one value-level key per attribute — with one multiSend. Keys are
  // interned once here; every later layer carries the u32 id and routes on
  // the entry's cached ring identifier. MultiSendKeys coalesces the fan-out
  // by responsible node (one wire message per destination) and resolves
  // destinations through the publisher's route cache. The emission buffer
  // is a reused member: the transport drains it in place, keeping its
  // capacity.
  std::vector<std::pair<KeyId, MessageTask>>& batch = publish_batch_;
  batch.reserve(2 * schema->arity());
  // Under attribute-level replication ([18]), each tuple's attribute-level
  // copy goes to exactly one shard of the replica set.
  const uint32_t shard =
      config_.attr_replication > 1
          ? static_cast<uint32_t>(t->seq_no % config_.attr_replication)
          : 0;
  for (size_t i = 0; i < schema->arity(); ++i) {
    TuplePublish attr_msg;
    attr_msg.tuple = t;
    attr_msg.key = interner_->WithShard(
        interner_->InternAttribute(relation, schema->attributes()[i]), shard);
    attr_msg.publisher = publisher;
    const KeyId attr_key = attr_msg.key;
    batch.emplace_back(attr_key, MessageTask(std::move(attr_msg)));

    TuplePublish value_msg;
    value_msg.tuple = t;
    value_msg.key = interner_->InternValue(relation, schema->attributes()[i],
                                           values[i]);
    value_msg.publisher = publisher;
    const KeyId value_key = value_msg.key;
    batch.emplace_back(value_key, MessageTask(std::move(value_msg)));
  }
  transport_->MultiSendKeys(publisher, &batch);
  return t;
}

StatusOr<std::vector<TupleRef>> RJoinEngine::PublishBatch(
    dht::NodeIndex publisher, const std::string& relation,
    const std::vector<std::vector<sql::Value>>& rows) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  // Validate up front: a bad row must not leave part of the batch published.
  for (const auto& row : rows) {
    if (schema->arity() != row.size()) {
      return Status::InvalidArgument("tuple arity mismatch for " + relation);
    }
  }

  const size_t k = schema->arity();
  const uint64_t now = Now();
  const uint32_t replication = std::max<uint32_t>(1, config_.attr_replication);

  // Attribute-level keys do not depend on the row, only on its shard, so
  // intern each (attribute, shard) pair once per batch instead of once per
  // tuple. Shards cycle with seq_no, exactly as sequential PublishTuple
  // calls would assign them.
  std::vector<std::vector<KeyId>> attr_targets(replication);
  auto shard_targets = [&](uint32_t shard) -> const std::vector<KeyId>& {
    auto& targets = attr_targets[shard];
    if (targets.empty()) {
      targets.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        KeyId key = interner_->InternAttribute(relation,
                                               schema->attributes()[i]);
        if (replication > 1) key = interner_->WithShard(key, shard);
        targets.push_back(key);
      }
    }
    return targets;
  };

  std::vector<TupleRef> published;
  published.reserve(rows.size());
  std::vector<std::pair<KeyId, MessageTask>>& batch = publish_batch_;
  batch.reserve(2 * k);

  for (const auto& row : rows) {
    TupleRef t = TuplePool::Global().Make(relation, row, now, ++global_seq_,
                                          next_tuple_id_++);
    if (config_.keep_history) history_.push_back(t.Materialize());
    const uint32_t shard =
        replication > 1 ? static_cast<uint32_t>(t->seq_no % replication) : 0;
    const std::vector<KeyId>& targets = shard_targets(shard);
    for (size_t i = 0; i < k; ++i) {
      TuplePublish attr_msg;
      attr_msg.tuple = t;
      attr_msg.key = targets[i];
      attr_msg.publisher = publisher;
      batch.emplace_back(targets[i], MessageTask(std::move(attr_msg)));

      TuplePublish value_msg;
      value_msg.tuple = t;
      value_msg.key = interner_->InternValue(relation, schema->attributes()[i],
                                             row[i]);
      value_msg.publisher = publisher;
      const KeyId value_key = value_msg.key;
      batch.emplace_back(value_key, MessageTask(std::move(value_msg)));
    }
    // One MultiSendKeys per tuple: coalescing groups the 2k index messages
    // of a *single* publication, so a batch publish stays message-for-
    // message identical to the same rows published one PublishTuple at a
    // time (the equivalence engine_batch_test asserts).
    transport_->MultiSendKeys(publisher, &batch);
    published.push_back(std::move(t));
  }
  return published;
}

Status RJoinEngine::ObserveStreamHistoryBulk(
    const std::string& relation,
    const std::vector<std::vector<sql::Value>>& rows) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  for (const auto& row : rows) {
    if (schema->arity() != row.size()) {
      return Status::InvalidArgument("tuple arity mismatch for " + relation);
    }
  }
  const uint64_t now = Now();
  // Attribute-level observations are row-independent: resolve the
  // responsible node once per attribute and record one arrival per row.
  for (size_t i = 0; i < schema->arity(); ++i) {
    const KeyId ak = interner_->InternAttribute(relation,
                                                schema->attributes()[i]);
    const dht::NodeIndex owner = network_->SuccessorOf(interner_->ring_id(ak));
    NodeState& st = state(owner);
    for (size_t r = 0; r < rows.size(); ++r) st.rates.Record(ak, now);
    if (config_.replication > 1) WriteThroughRateReplica(owner, ak, now);
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < schema->arity(); ++i) {
      const KeyId vk =
          interner_->InternValue(relation, schema->attributes()[i], row[i]);
      const dht::NodeIndex owner =
          network_->SuccessorOf(interner_->ring_id(vk));
      state(owner).rates.Record(vk, now);
      if (config_.replication > 1) WriteThroughRateReplica(owner, vk, now);
    }
  }
  return Status::Ok();
}

Status RJoinEngine::ObserveStreamHistory(
    const std::string& relation, const std::vector<sql::Value>& values) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  if (schema->arity() != values.size()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  const uint64_t now = Now();
  for (size_t i = 0; i < schema->arity(); ++i) {
    const KeyId ak = interner_->InternAttribute(relation,
                                                schema->attributes()[i]);
    const dht::NodeIndex ao = network_->SuccessorOf(interner_->ring_id(ak));
    state(ao).rates.Record(ak, now);
    const KeyId vk =
        interner_->InternValue(relation, schema->attributes()[i], values[i]);
    const dht::NodeIndex vo = network_->SuccessorOf(interner_->ring_id(vk));
    state(vo).rates.Record(vk, now);
    if (config_.replication > 1) {
      WriteThroughRateReplica(ao, ak, now);
      WriteThroughRateReplica(vo, vk, now);
    }
  }
  return Status::Ok();
}

void RJoinEngine::HandleMessage(dht::NodeIndex self, MessageTask&& task) {
  switch (task.kind()) {
    case MessageKind::kTuplePublish:
      if (forwarding_armed_ &&
          MaybeForward(self, task.tuple_publish().key, &task)) {
        return;
      }
      OnNewTuple(self, task.tuple_publish());
      return;
    case MessageKind::kQueryIndex: {
      if (forwarding_armed_ &&
          MaybeForward(self, task.query_index().key, &task)) {
        return;
      }
      QueryIndex& m = task.query_index();
      OnEval(self, m.key, std::move(m.residual), m.piggyback);
      return;
    }
    case MessageKind::kRewrite: {
      if (forwarding_armed_ && MaybeForward(self, task.rewrite().key, &task)) {
        return;
      }
      Rewrite& m = task.rewrite();
      OnEval(self, m.key, std::move(m.residual), m.piggyback);
      return;
    }
    case MessageKind::kRicRequest:
      if (forwarding_armed_ &&
          MaybeForward(self, task.ric_request().key, &task)) {
        return;
      }
      OnRicRequest(self, task.ric_request());
      return;
    case MessageKind::kRicReply:
      OnRicReply(self, task.ric_reply());
      return;
    case MessageKind::kAnswerDeliver:
      OnAnswer(self, task.answer());
      return;
    case MessageKind::kControl:
      task.control().run();
      return;
    case MessageKind::kNodeJoin: {
      const NodeJoin& m = task.node_join();
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kJoin,
                                .id = m.id,
                                .bootstrap = m.bootstrap});
      return;
    }
    case MessageKind::kNodeLeave:
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kLeave,
                                .node = task.node_leave().node});
      return;
    case MessageKind::kNodeCrash: {
      const NodeCrash& m = task.node_crash();
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kCrash,
                                .node = m.node,
                                .take_successors = m.take_successors});
      return;
    }
    case MessageKind::kStateHandoff: {
      SliceBatch& batch = *task.state_handoff().batch;
      if (batch.kind == SliceKind::kMirror) {
        OnReplicaBase(self, batch);
      } else {
        Install(self, batch);
      }
      return;
    }
    case MessageKind::kReplicaUpdate:
      OnReplicaUpdate(self, task.replica_update());
      return;
    case MessageKind::kNone:
      break;
  }
  RJOIN_CHECK(false) << "undispatchable message kind "
                     << MessageKindName(task.kind());
}

void RJoinEngine::PrefetchRic(dht::NodeIndex src, const IndexKey& key) {
  const KeyId id = interner_->Intern(key);
  transport_->SendKey(src, id, MessageTask(RicRequest{id, src}),
                      /*ric=*/true);
}

void RJoinEngine::OnRicRequest(dht::NodeIndex self, const RicRequest& msg) {
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kRicRequest, 0, self,
                          msg.requester, msg.key, Now());
  }
  RicReply reply;
  const uint64_t now = Now();
  reply.entry = RicEntry{.key = msg.key,
                         .node = self,
                         .rate = ReadRate(self, msg.key, now),
                         .timestamp = now};
  transport_->SendDirect(self, msg.requester, MessageTask(std::move(reply)),
                         /*ric=*/true);
}

void RJoinEngine::OnRicReply(dht::NodeIndex self, const RicReply& msg) {
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kRicReply, 0, self,
                          msg.entry.node, msg.entry.rate, Now());
  }
  state(self).ct.Merge(msg.entry);
}


bool RJoinEngine::IsExpired(const Residual& r) const {
  if (r.IsInputQuery()) return false;  // Continuous queries never expire.
  const sql::WindowSpec& w = r.origin()->spec().window;
  if (!w.use_windows || w.size == 0) return false;
  const uint64_t next_pos = w.unit == sql::WindowSpec::Unit::kTime
                                ? Now()
                                : global_seq_ + 1;
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    return next_pos > r.window_min() &&
           next_pos - r.window_min() + 1 > w.size;
  }
  return next_pos / w.size > r.window_min() / w.size;  // Tumbling epoch.
}

bool RJoinEngine::WindowClosedByTuple(const Residual& r,
                                      const TupleRef& t) const {
  if (r.IsInputQuery()) return false;
  const sql::WindowSpec& w = r.origin()->spec().window;
  if (!w.use_windows || w.size == 0) return false;
  const uint64_t pos =
      w.unit == sql::WindowSpec::Unit::kTime ? t->pub_time : t->seq_no;
  if (pos <= r.window_min()) return false;  // Older tuple: window still open.
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    return pos - r.window_min() + 1 > w.size;
  }
  return pos / w.size > r.window_min() / w.size;
}


void RJoinEngine::DropStoredQuery(dht::NodeIndex self, KeyId key,
                                  BucketList& bucket, uint32_t prev_idx,
                                  uint32_t idx) {
  NodeState& st = state(self);
  StoredQuery& sq = st.query_pool.at(idx).value;
  if (sq.residual.origin()->spec().distinct) {
    st.distinct_fingerprints.Erase(StoredFingerprint(key, sq.residual));
  }
  Metrics().RemoveStore(self);
  BucketUnlink(st.query_pool, bucket, prev_idx, idx);
}

StoredQuery& RJoinEngine::AppendStoredQuery(NodeState& st, BucketList& bucket,
                                            StoredQuery&& sq) {
  stats::AllocScope plane(stats::AllocPlane::kResidual);
  const uint32_t idx = BucketAppend(st.query_pool, bucket);
  auto& node = st.query_pool.at(idx);
  node.value = std::move(sq);
  return node.value;
}

void RJoinEngine::ProbeStoredState(dht::NodeIndex self, KeyId key,
                                   StoredQuery& sq) {
  NodeState& st = state(self);
  if (interner_->level(key) == Level::kValue) {
    if (const TupleBucket* bucket = st.tuples.Find(key)) {
      // Probing only emits async messages; the chunk chain is stable, so
      // the kernel reads it in place, one span per chunk.
      std::vector<TupleSpan>& spans = SpanListBuffer();
      for (uint32_t cur = bucket->head; cur != kNil;
           cur = st.tuple_chunks.at(cur).next) {
        const TupleChunk& chunk = st.tuple_chunks.at(cur).value;
        spans.push_back(TupleSpan{chunk.refs, chunk.count});
      }
      ProbeTupleSpans(self, key, sq, spans.data(),
                      static_cast<uint32_t>(spans.size()));
      spans.clear();
    }
  } else if (config_.enable_altt) {
    if (const BucketList* dq = st.altt.Find(key)) {
      // Gather the non-expired chain into a reusable contiguous span, then
      // run the same batched kernel the value bucket uses.
      std::vector<TupleRef>& span = AlttSpanBuffer();
      const uint64_t now = Now();
      for (uint32_t cur = dq->head; cur != kNil;
           cur = st.altt_pool.at(cur).next) {
        const AlttEntry& e = st.altt_pool.at(cur).value;
        if (e.expires < now) continue;
        span.push_back(e.tuple);
      }
      const TupleSpan whole{span.data(), static_cast<uint32_t>(span.size())};
      ProbeTupleSpans(self, key, sq, &whole, 1);
      span.clear();  // Drop the refs: the span must not pin records.
    }
  }
}

void RJoinEngine::ProbeTupleSpans(dht::NodeIndex self, KeyId key,
                                  StoredQuery& sq, const TupleSpan* spans,
                                  uint32_t num_spans) {
  while (num_spans > 0 && spans[0].count == 0) {
    ++spans;
    --num_spans;
  }
  if (num_spans == 0) return;
  Residual& r = sq.residual;
  const InputQuery& q = *r.origin();
  // Every tuple under one index key belongs to one relation, so the FROM
  // position and the temporal bounds are loop invariants of the spans.
  const int rel = q.RelIndexOf(spans[0].data[0]->relation);
  if (rel < 0 || r.IsBound(rel)) return;
  const bool one_time = q.one_time();
  const uint64_t ins_time = q.ins_time();

  // Hoist the predicate program: original selections on `rel` plus join
  // predicates whose other side is bound, each reduced to one (column,
  // value-id) equality. Phase 1 below is then a tight u32-compare loop.
  struct Pred {
    int attr;
    ValueId vid;
  };
  static thread_local std::vector<Pred> preds;
  preds.clear();
  for (const auto& sel : q.selections()) {
    if (sel.rel == rel) preds.push_back(Pred{sel.attr, sel.value_id});
  }
  for (const auto& j : q.joins()) {
    if (j.left_rel == rel && r.IsBound(j.right_rel)) {
      preds.push_back(Pred{j.left_attr,
                           r.BoundValueId(j.right_rel, j.right_attr)});
    } else if (j.right_rel == rel && r.IsBound(j.left_rel)) {
      preds.push_back(Pred{j.right_attr,
                           r.BoundValueId(j.left_rel, j.left_attr)});
    }
  }

  // Phase 1: pure evaluation over the spans — temporal check, window
  // admission, predicate program — collecting matched refs. No sends, no
  // mutation, no allocation (the match buffer is reused).
  std::vector<const TupleRef*>& matches = MatchBuffer();
  for (uint32_t s = 0; s < num_spans; ++s) {
    const TupleRef* tuples = spans[s].data;
    const uint32_t count = spans[s].count;
    for (uint32_t i = 0; i < count; ++i) {
      const TuplePool::Rec& rec = tuples[i].rec();
      if (one_time) {
        // One-time semantics: a snapshot over what existed at submission.
        if (rec.pub_time > ins_time) continue;
      } else {
        // Temporal condition of Definition 1 / Procedure 2.
        if (rec.pub_time < ins_time) continue;
      }
      if (!r.WindowAdmits(rel, tuples[i])) continue;
      const ValueId* cols = rec.columns();
      bool ok = true;
      for (const Pred& p : preds) {
        if (cols[p.attr] != p.vid) {
          ok = false;
          break;
        }
      }
      if (ok) matches.push_back(&tuples[i]);
    }
  }

  // Phase 2: DISTINCT rule + bind + forward for the matches. Sends are
  // async (never re-entering this node's state), so the spans stay stable.
  const bool check_distinct =
      q.spec().distinct && interner_->level(key) == Level::kValue;
  for (const TupleRef* match : matches) {
    const TupleRef& t = *match;
    if (check_distinct &&
        !sq.seen_projections.Insert(ProjectionFingerprint(q, rel, t))) {
      continue;
    }
    CompleteOrForward(self, r.Bind(rel, t), t->pub_time);
  }
}

void RJoinEngine::TryTrigger(dht::NodeIndex self, StoredQuery& sq,
                             KeyId key, const TupleRef& t) {
  Residual& r = sq.residual;
  const int rel = r.origin()->RelIndexOf(t->relation);
  if (rel < 0 || r.IsBound(rel)) return;
  if (r.origin()->one_time()) {
    // One-time semantics: a snapshot over what existed at submission.
    if (t->pub_time > r.origin()->ins_time()) return;
  } else {
    // Temporal condition of Definition 1 / Procedure 2: pubT(t) >= insT(q).
    if (t->pub_time < r.origin()->ins_time()) return;
  }
  if (!r.WindowAdmits(rel, t)) return;
  if (!r.Matches(rel, t)) return;

  // DISTINCT rule of Section 4: a new tuple triggers this stored query only
  // if its projection over the referenced attributes is new. Projections
  // are 64-bit fingerprints over interned value ids (see ProjectionSet) —
  // no rendering, no allocation per trigger.
  if (r.origin()->spec().distinct &&
      interner_->level(key) == Level::kValue) {
    if (!sq.seen_projections.Insert(
            ProjectionFingerprint(*r.origin(), rel, t))) {
      return;
    }
  }

  CompleteOrForward(self, r.Bind(rel, t), t->pub_time);
}

void RJoinEngine::CompleteOrForward(dht::NodeIndex self, Residual next,
                                    uint64_t pub_time) {
  if (next.IsComplete()) {
    // The answer row ships as a flat array of interned value ids — the
    // message is POD; the owner materializes values at the sink.
    AnswerDeliver msg;
    msg.query_id = next.origin()->query_id();
    msg.completed_at = Now();
    msg.pub_time = pub_time;
    msg.row_len = static_cast<uint16_t>(next.ExtractAnswerIds(msg.row));
    transport_->SendDirect(self, next.origin()->owner(),
                           MessageTask(std::move(msg)));
    return;
  }
  IndexResidual(self, std::move(next));
}

void RJoinEngine::OnNewTuple(dht::NodeIndex self, TuplePublish& msg) {
  Metrics().AddQpl(self);
  NodeState& st = state(self);
  st.rates.Record(msg.key, Now());

  if (BucketList* bucket = st.queries.Find(msg.key)) {
    // Walk the intrusive list in arrival order; drops unlink in place.
    uint32_t prev = kNil;
    uint32_t cur = bucket->head;
    while (cur != kNil) {
      StoredQuery& sq = st.query_pool.at(cur).value;
      // Section 5: a triggering tuple that falls beyond the residual's
      // window proves the window closed — the residual is deleted.
      if (WindowClosedByTuple(sq.residual, msg.tuple)) {
        const uint32_t next = st.query_pool.at(cur).next;
        DropStoredQuery(self, msg.key, *bucket, prev, cur);
        cur = next;
        continue;
      }
      TryTrigger(self, sq, msg.key, msg.tuple);
      prev = cur;
      cur = st.query_pool.at(cur).next;
    }
  }

  const bool value_level = interner_->level(msg.key) == Level::kValue;
  uint64_t expires = 0;
  if (value_level) {
    // Procedure 2: value-level tuples are stored for future rewritten
    // queries. Storing a TupleRef is one u32 handle copy plus a refcount;
    // only bucket growth allocates (charged to the tuple plane).
    {
      stats::AllocScope plane(stats::AllocPlane::kTuple);
      TupleBucketAppend(st.tuple_chunks, st.tuples[msg.key], msg.tuple);
    }
    Metrics().AddStore(self);
    RecordKeyLoad(msg.key);
  } else if (config_.enable_altt) {
    // Section 4 fix: keep attribute-level tuples for Delta so that delayed
    // input queries are not starved (Example 1).
    stats::AllocScope plane(stats::AllocPlane::kTuple);
    BucketList& dq = st.altt[msg.key];
    const uint64_t now = Now();
    expires = altt_delta_ > UINT64_MAX - now ? UINT64_MAX
                                             : now + altt_delta_;  // Saturating.
    const uint32_t idx = BucketAppend(st.altt_pool, dq);
    st.altt_pool.at(idx).value = AlttEntry{msg.tuple, expires};
    Metrics().AddAlttStore(self);
    // Amortized expiry: entries append in arrival order, so stale ones
    // cluster at the head.
    while (dq.head != kNil &&
           st.altt_pool.at(dq.head).value.expires < now) {
      BucketUnlink(st.altt_pool, dq, kNil, dq.head);
    }
  }

  // Replication: every tuple delivery mutates the key's slice (at least
  // the rate bucket) — mirror the stored tuple or ALTT entry, if any, with
  // the key's rate triple.
  if (config_.replication > 1) {
    ReplicaUpdate delta;
    delta.key = msg.key;
    if (value_level) {
      delta.record = MirrorRecord::kTuple;
      delta.tuple = std::move(msg.tuple);
    } else if (config_.enable_altt) {
      delta.record = MirrorRecord::kAltt;
      delta.tuple = std::move(msg.tuple);
      delta.expires = expires;
    }
    st.rates.PeekKey(msg.key, &delta.rate_epoch, &delta.rate_current,
                     &delta.rate_previous);
    MirrorDelta(self, std::move(delta));
  }
}

void RJoinEngine::OnEval(dht::NodeIndex self, KeyId key, Residual&& residual,
                         const RicVec& piggyback) {
  Metrics().AddQpl(self);
  NodeState& st = state(self);
  for (const RicEntry& e : piggyback) st.ct.Merge(e);

  // DISTINCT set semantics: identical rewritten queries are handled once.
  const bool distinct = residual.origin()->spec().distinct;
  uint64_t fp = 0;
  if (distinct) {
    fp = StoredFingerprint(key, residual);
    if (st.distinct_fingerprints.Contains(fp)) return;
  }

  // Procedure 3: probe already-present tuples first — stored tuples can be
  // older than the residual, so this must happen even if the residual's
  // window admits no *future* tuples anymore.
  StoredQuery sq{std::move(residual), {}};
  ProbeStoredState(self, key, sq);

  // One-time queries never wait for future tuples: probe-and-forget.
  if (sq.residual.origin()->one_time()) return;

  // Store for future tuples unless the window has already closed
  // (Section 5's status reduction).
  if (IsExpired(sq.residual)) return;
  if (distinct) {
    stats::AllocScope plane(stats::AllocPlane::kResidual);
    st.distinct_fingerprints.Insert(fp);
  }
  StoredQuery& stored = AppendStoredQuery(st, st.queries[key], std::move(sq));
  Metrics().AddStore(self);
  RecordKeyLoad(key);

  // Replication: the slice gained a stored residual — mirror that one.
  // (Probe-and-forget paths above change nothing durable, so they skip it.)
  if (config_.replication > 1) {
    ReplicaUpdate delta;
    delta.key = key;
    delta.record = MirrorRecord::kQuery;
    delta.query = stored.residual;
    MirrorDelta(self, std::move(delta));
  }
}

void RJoinEngine::OnAnswer(dht::NodeIndex self, AnswerDeliver& msg) {
  if (!crashed_.empty() && crashed_[self]) {
    // The query's owner crashed: nobody is listening. This is the answer
    // loss the replication bench measures — graceful leavers, by contrast,
    // keep collecting their answers (they left the overlay, not the app).
    ReplicaSinkCounters lost;
    lost.answers_lost = 1;
    AddReplicaCounters(lost);
    return;
  }
  // End-to-end answer latency in virtual time: publication of the tuple
  // that completed the residual -> delivery of the answer at Owner(q).
  const uint64_t latency = Now() >= msg.pub_time ? Now() - msg.pub_time : 0;
  stats::Tracer::RecordAnswerLatency(latency);
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kAnswer, 0, self,
                          static_cast<uint32_t>(msg.query_id), latency, Now());
  }
  const bool distinct = [&] {
    auto it = queries_.find(msg.query_id);
    return it != queries_.end() && it->second->spec().distinct;
  }();
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    // Worker path: stage into this shard's sink. A query's answers always
    // arrive at its owner, so all DISTINCT state of one query lives on one
    // shard and dedup is exact.
    ShardSink& sink = sinks_[shard];
    if (distinct) {
      if (!sink.distinct_rows[msg.query_id].Insert(AnswerRowFingerprint(msg))) {
        ++sink.distinct_suppressed;
        return;
      }
    }
    sink.answers.Append(msg.query_id, Now(), msg.row, msg.row_len);
    sink.answer_keys.push_back(runtime_->CurrentEventKey());
    Metrics().AddAnswer();
    return;
  }
  if (distinct) {
    // Owner-side final duplicate suppression for DISTINCT queries: a local
    // computation at the querying node, no network cost. Rows dedup on a
    // 64-bit fingerprint over interned value ids — no rendering.
    if (!distinct_rows_[msg.query_id].Insert(AnswerRowFingerprint(msg))) {
      ++distinct_suppressed_;
      return;
    }
  }
  answers_.Append(msg.query_id, Now(), msg.row, msg.row_len);
  Metrics().AddAnswer();
}

void RJoinEngine::GatherRic(dht::NodeIndex src,
                            const std::vector<KeyId>& candidates,
                            std::vector<RicEntry>* entries) {
  const uint64_t now = Now();
  NodeState& st = state(src);
  entries->resize(candidates.size());

  // Every entry learned here is stamped `now`, and no table entry is newer
  // (entries are stamped when learned, before they can travel), so Merge
  // keeps each one: the table ends up holding exactly `*entries`.
  std::vector<size_t>& unknown = RicUnknownBuffer();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const KeyId key = candidates[i];
    const RicEntry* cached =
        config_.reuse_ric_info ? st.ct.Find(key) : nullptr;
    if (cached != nullptr && now - cached->timestamp <= config_.ct_validity) {
      // Fresh cache hit (Section 7): no messages at all.
      (*entries)[i] = *cached;
    } else if (cached != nullptr) {
      // Stale but the responsible node's address is known: refresh with a
      // 2-message direct exchange instead of an O(log N) route.
      const dht::NodeIndex cand =
          transport_->CachedSuccessorOf(key, interner_->ring_id(key));
      if (config_.charge_ric_messages) {
        transport_->ChargeTraffic(src, 1, /*ric=*/true);
        transport_->ChargeTraffic(cand, 1, /*ric=*/true);
      }
      (*entries)[i] = RicEntry{.key = key,
                               .node = cand,
                               .rate = ReadRate(cand, key, now),
                               .timestamp = now};
      st.ct.Merge((*entries)[i]);
      RJOIN_DCHECK(st.ct.Find(key)->timestamp == now);
    } else {
      unknown.push_back(i);
    }
  }

  if (unknown.empty()) return;

  // Section 6's chained request: the message hops through the unknown
  // candidates (each leg an O(log N) route, piggy-backing answers), and the
  // last candidate returns everything to src directly — k*O(log N) + 1
  // messages; the later index message is the "+1" more.
  dht::NodeIndex prev = src;
  for (size_t i : unknown) {
    const KeyId key = candidates[i];
    const dht::NodeId& ring = interner_->ring_id(key);
    const dht::NodeIndex cand = transport_->CachedSuccessorOf(key, ring);
    if (config_.charge_ric_messages) {
      transport_->ChargeRoute(prev, ring, /*ric=*/true);
    }
    (*entries)[i] = RicEntry{.key = key,
                             .node = cand,
                             .rate = ReadRate(cand, key, now),
                             .timestamp = now};
    st.ct.Merge((*entries)[i]);
    RJOIN_DCHECK(st.ct.Find(key)->timestamp == now);
    prev = cand;
  }
  if (config_.charge_ric_messages) {
    transport_->ChargeTraffic(prev, 1, /*ric=*/true);  // Direct reply to src.
  }
}

void RJoinEngine::IndexResidual(dht::NodeIndex src, Residual residual) {
  // Candidate enumeration fills a reusable thread-local buffer — the
  // per-rewrite hot path does not allocate here once warm.
  std::vector<KeyId>& candidates = CandidateBuffer();
  IndexingCandidates(residual, config_.rewrite_levels, &candidates);
  RJOIN_CHECK(!candidates.empty())
      << "residual of query " << residual.origin()->query_id()
      << " has no indexing candidates";

  size_t chosen = 0;
  bool address_known = false;
  dht::NodeIndex chosen_node = dht::kInvalidNode;
  const std::vector<RicEntry>* ric = nullptr;  // kRic: gathered entries

  switch (config_.policy) {
    case PlannerPolicy::kFirstInClause:
      chosen = 0;
      break;
    case PlannerPolicy::kRandom:
      if (runtime_ != nullptr) {
        // Derived per-decision RNG: a pure function of (seed, deciding
        // node, decision index), so draws are identical for any shard
        // count and any thread interleaving.
        chosen = static_cast<size_t>(
            Rng(MixSeed(config_.seed, src, ++planner_seq_[src]))
                .NextBounded(candidates.size()));
      } else {
        chosen = static_cast<size_t>(rng_.NextBounded(candidates.size()));
      }
      break;
    case PlannerPolicy::kWorst: {
      // Adversarial oracle: reads true rates without RIC traffic.
      uint64_t worst_rate = 0;
      const uint64_t now = Now();
      for (size_t i = 0; i < candidates.size(); ++i) {
        const dht::NodeIndex cand = transport_->CachedSuccessorOf(
            candidates[i], interner_->ring_id(candidates[i]));
        const uint64_t rate = ReadRate(cand, candidates[i], now);
        if (rate > worst_rate) {
          worst_rate = rate;
          chosen = i;
        }
      }
      // Prefer attribute-level keys on ties: they see every tuple of the
      // relation-attribute pair, the worst possible placement.
      if (worst_rate == 0) {
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (interner_->level(candidates[i]) == Level::kAttribute) {
            chosen = i;
            break;
          }
        }
      }
      break;
    }
    case PlannerPolicy::kRic: {
      std::vector<RicEntry>& gathered = RicEntryBuffer();
      GatherRic(src, candidates, &gathered);
      ric = &gathered;
      uint64_t best = UINT64_MAX;
      for (size_t i = 0; i < candidates.size(); ++i) {
        // Strictly lower rate wins; on ties prefer value-level keys (finer
        // grain, better load distribution), then clause order.
        const uint64_t rate = (*ric)[i].rate;
        const bool better =
            rate < best ||
            (rate == best &&
             interner_->level(candidates[chosen]) == Level::kAttribute &&
             interner_->level(candidates[i]) == Level::kValue);
        if (better) {
          best = rate;
          chosen = i;
        }
      }
      chosen_node = (*ric)[chosen].node;
      address_known = chosen_node != dht::kInvalidNode;
      break;
    }
  }

  const KeyId key = candidates[chosen];

  // Section 7: pack the RIC info we hold for this residual's candidate keys
  // so the next node can avoid re-asking (typically only the one new
  // implied triple needs a lookup there). After a RIC gather the table's
  // entries for the candidates are the gathered ones.
  NodeState& st = state(src);
  RicVec piggyback;
  if (config_.reuse_ric_info) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      const RicEntry* e =
          ric != nullptr ? &(*ric)[i] : st.ct.Find(candidates[i]);
      if (e != nullptr && !piggyback.TryPush(*e)) break;  // first kCap win
    }
  }

  // Attribute-level placements are replicated across the shard positions of
  // [18]; each tuple reaches exactly one shard, so replicas split the load
  // without duplicating answers. Value-level placements are single-copy.
  // Input queries ship as kQueryIndex (Procedure 2), rewritten residuals as
  // kRewrite (Procedure 3) — same wire shape, separable traffic.
  const bool is_input = residual.IsInputQuery();
  if (!is_input) {
    // Rewrite-chain depth: how many relations the shipped residual has
    // bound so far (hop i of the k-1 hop chain of Procedure 3).
    stats::Tracer::RecordRewriteDepth(residual.num_bound());
    if (stats::Tracer::On()) {
      stats::Tracer::Record(stats::TraceCategory::kRewrite, 0, src, key,
                            residual.num_bound(), Now());
    }
  }
  const uint32_t copies = (interner_->level(key) == Level::kAttribute)
                              ? config_.attr_replication
                              : 1;
  for (uint32_t s = 0; s < copies; ++s) {
    const KeyId copy_key = copies > 1 ? interner_->WithShard(key, s) : key;
    Residual copy_residual =
        (s + 1 == copies) ? std::move(residual) : residual;
    MessageTask task =
        is_input ? MessageTask(QueryIndex{std::move(copy_residual), copy_key,
                                          piggyback})
                 : MessageTask(
                       Rewrite{std::move(copy_residual), copy_key, piggyback});
    if (address_known && copies == 1) {
      // The RIC exchange told us the responsible node's address: one hop.
      transport_->SendDirect(src, chosen_node, std::move(task));
    } else {
      transport_->SendKey(src, copy_key, std::move(task));
    }
  }
}

void RJoinEngine::SweepWindows() {
  const bool drop_tuples = config_.gc_stored_tuples &&
                           num_unwindowed_queries_ == 0 &&
                           num_windowed_queries_ > 0 && max_window_span_ > 0;
  // A stored tuple older than the largest window can never combine with
  // future tuples for any live (all-windowed) query. Conservative: use both
  // clocks; drop only if out of range for the larger of the two
  // interpretations.
  const uint64_t now = Now();
  auto tuple_expired = [&](const TupleRef& t) {
    const uint64_t now_seq = global_seq_ + 1;
    const bool time_out =
        now > t->pub_time && now - t->pub_time + 1 > max_window_span_;
    const bool seq_out =
        now_seq > t->seq_no && now_seq - t->seq_no + 1 > max_window_span_;
    return time_out && seq_out;
  };
  // Without a windowed query no residual expires and no tuple drops: only
  // the replicas' ALTT entries, which a finite Delta ages, are left to age.
  const bool windowed = num_windowed_queries_ > 0;
  for (dht::NodeIndex n = 0; windowed && n < states_.size(); ++n) {
    NodeState& st = *states_[n];
    st.queries.ForEach([&](KeyId key, BucketList& bucket) {
      uint32_t prev = kNil;
      uint32_t cur = bucket.head;
      while (cur != kNil) {
        const uint32_t next = st.query_pool.at(cur).next;
        if (IsExpired(st.query_pool.at(cur).value.residual)) {
          DropStoredQuery(n, key, bucket, prev, cur);
        } else {
          prev = cur;
        }
        cur = next;
      }
    });
    if (!drop_tuples) continue;
    st.tuples.ForEach([&](KeyId, TupleBucket& bucket) {
      // Rebuild compactly through a reusable scratch: survivors move out
      // (no refcount traffic), the chunks recycle through the pool's
      // freelist, and the survivors move back in — so every chunk stays
      // full except the tail, the invariant the probe's span walk assumes.
      static thread_local std::vector<TupleRef> survivors;
      survivors.clear();
      TupleBucketForEach(st.tuple_chunks, bucket, [&](TupleRef& t) {
        if (tuple_expired(t)) {
          Metrics().RemoveStore(n);
        } else {
          survivors.push_back(std::move(t));
        }
      });
      if (survivors.size() == bucket.size) {
        // Nothing expired: put the moved refs back in place instead of
        // reshuffling chunks.
        size_t i = 0;
        TupleBucketForEach(st.tuple_chunks, bucket,
                           [&](TupleRef& t) { t = std::move(survivors[i++]); });
      } else {
        TupleBucketClear(st.tuple_chunks, bucket);
        for (TupleRef& t : survivors) {
          TupleBucketAppend(st.tuple_chunks, bucket, std::move(t));
        }
      }
      survivors.clear();
    });
  }
  if (config_.replication <= 1) return;
  // Replica entries age by the same rules, locally (no messages): deltas
  // only ever add records, and without this pass a promotion after a sweep
  // would resurrect records the owner already dropped. (Queries are
  // additionally re-filtered at install, so this is hygiene + memory.)
  for (auto& stp : states_) {
    if (stp->replicas == nullptr) continue;
    stp->replicas->entries.ForEach([&](KeyId, ReplicaStore::Entry& entry) {
      if (windowed) {
        std::erase_if(entry.queries, [&](const Versioned<Residual>& r) {
          return IsExpired(r.record);
        });
      }
      if (drop_tuples) {
        std::erase_if(entry.tuples, [&](const Versioned<TupleRef>& r) {
          return tuple_expired(r.record);
        });
      }
      std::erase_if(entry.altt, [&](const Versioned<AlttEntry>& r) {
        return r.record.expires < now;
      });
    });
  }
}

const std::vector<Answer>& RJoinEngine::answers() const {
  answers_.ReadFrom(&answers_view_end_, [this](const AnswerLog::Record& r) {
    answers_view_.push_back(ToAnswer(r));
  });
  return answers_view_;
}

std::vector<Answer> RJoinEngine::AnswersFor(uint64_t query_id) const {
  std::vector<Answer> out;
  answers_.ForEach([&](const AnswerLog::Record& r) {
    if (r.query_id == query_id) out.push_back(ToAnswer(r));
  });
  return out;
}

size_t RJoinEngine::CountStoredQueries() const {
  size_t n = 0;
  for (const auto& st : states_) {
    n += st->query_pool.live();
  }
  return n;
}

size_t RJoinEngine::CountStoredTuples() const {
  size_t n = 0;
  for (const auto& st : states_) {
    st->tuples.ForEach(
        [&](KeyId, const TupleBucket& bucket) { n += bucket.size; });
  }
  return n;
}

std::vector<dht::KeyLoad> RJoinEngine::KeyLoadProfile() const {
  std::vector<dht::KeyLoad> out;
  out.reserve(key_load_.size());
  key_load_.ForEach([&](KeyId key, const uint64_t& weight) {
    out.push_back({interner_->ring_id(key), weight});
  });
  return out;
}

InputQueryPtr RJoinEngine::FindQuery(uint64_t query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second;
}

void RJoinEngine::RecordKeyLoad(KeyId key) {
  const int shard =
      runtime_ != nullptr ? runtime::ShardedRuntime::CurrentShard() : -1;
  if (shard >= 0) {
    ++sinks_[shard].key_load[key];
    return;
  }
  ++key_load_[key];
}

}  // namespace rjoin::core
