#include "dht/chord_network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace rjoin::dht {

void ChordNode::SetFingers(std::vector<NodeIndex> fingers) {
  fingers_ = std::move(fingers);
  RebuildFingerRuns();
}

void ChordNode::SetFinger(int b, NodeIndex f) {
  NodeIndex& slot = fingers_[static_cast<size_t>(b)];
  if (slot == f) return;
  slot = f;
  RebuildFingerRuns();
}

void ChordNode::RebuildFingerRuns() {
  finger_runs_.clear();
  for (auto it = fingers_.rbegin(); it != fingers_.rend(); ++it) {
    if (finger_runs_.empty() || finger_runs_.back() != *it) {
      finger_runs_.push_back(*it);
    }
  }
}

size_t ChordNetwork::RingLowerBound(const NodeId& id) const {
  return static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), id,
                       [](const RingEntry& e, const NodeId& k) {
                         return e.id < k;
                       }) -
      ring_.begin());
}

size_t ChordNetwork::RingPos(NodeIndex node) const {
  const size_t pos = RingLowerBound(nodes_[node]->id());
  RJOIN_CHECK(pos < ring_.size() && ring_[pos].node == node);
  return pos;
}

void ChordNetwork::BumpGeneration() {
  // One process-global counter (starting at 1) keeps generation stamps
  // unique across every network in the process — required by the
  // thread-local SuccessorCache, which outlives individual networks.
  static std::atomic<uint64_t> g_generation{0};
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::unique_ptr<ChordNetwork> ChordNetwork::Create(size_t n, uint64_t seed) {
  auto net = std::make_unique<ChordNetwork>();
  size_t added = 0;
  uint64_t salt = 0;
  while (added < n) {
    const std::string key = "node:" + std::to_string(added) + ":" +
                            std::to_string(seed) + ":" + std::to_string(salt);
    auto result = net->AddNode(NodeId::FromKey(key));
    if (result.ok()) {
      ++added;
      salt = 0;
    } else {
      ++salt;  // Astronomically unlikely SHA-1 collision; re-salt.
    }
  }
  net->Stabilize();
  return net;
}

std::unique_ptr<ChordNetwork> ChordNetwork::CreateWithPositions(
    const std::vector<NodeId>& positions) {
  auto net = std::make_unique<ChordNetwork>();
  for (const NodeId& id : positions) {
    auto result = net->AddNode(id);
    RJOIN_CHECK(result.ok()) << "duplicate ring position";
  }
  net->Stabilize();
  return net;
}

StatusOr<NodeIndex> ChordNetwork::AddNode(NodeId id) {
  const size_t pos = RingLowerBound(id);
  if (pos < ring_.size() && ring_[pos].id == id) {
    return Status::AlreadyExists("ring position already occupied");
  }
  const NodeIndex index = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back(std::make_unique<ChordNode>(index, id));
  route_caches_.emplace_back();
  ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(pos),
               RingEntry{id, index});
  BumpGeneration();
  return index;
}

Status ChordNetwork::FailNode(NodeIndex node) {
  if (node >= nodes_.size() || !nodes_[node]->alive()) {
    return Status::NotFound("no such alive node");
  }
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(RingPos(node)));
  nodes_[node]->set_alive(false);
  BumpGeneration();
  return Status::Ok();
}

StatusOr<KeyRange> ChordNetwork::RemoveAndSplice(NodeIndex node) {
  if (node >= nodes_.size() || !nodes_[node]->alive()) {
    return Status::NotFound("no such alive node");
  }
  if (ring_.size() <= 1) {
    return Status::FailedPrecondition(
        "the last alive node cannot depart: its key range has no owner");
  }
  // Ring-order neighbors from the membership index (exact even when the
  // node-local pointers are stale).
  const size_t pos = RingPos(node);
  const size_t n = ring_.size();
  const NodeIndex pred = ring_[(pos + n - 1) % n].node;
  const NodeIndex succ = ring_[(pos + 1) % n].node;

  const KeyRange orphaned{nodes_[pred]->id(), nodes_[node]->id()};

  nodes_[node]->set_alive(false);
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(pos));
  BumpGeneration();

  // Splice the neighbor pointers exactly, then rebuild the successor list
  // of the departed node's successor *and* of every ring-predecessor whose
  // list referenced the departed node — up to kSuccessorListLen of them.
  // Repairing only pred/succ (the pre-PR-10 behavior) left further
  // predecessors with stale lists, which consumers tolerated via alive
  // checks but which broke the ValidSuccessorLists invariant the
  // replication protocol's target set depends on.
  nodes_[pred]->set_successor(pred == succ ? pred : succ);
  nodes_[succ]->set_predecessor(pred == succ ? succ : pred);
  StabilizeOnce(succ);
  RepairSuccessorListsAround(succ);
  RJOIN_DCHECK(RingConsistent());  // the splice must keep the ring exact
  return orphaned;
}

StatusOr<KeyRange> ChordNetwork::LeaveNode(NodeIndex node) {
  // Graceful splice: the neighbors learn about the departure immediately
  // (the leaving node tells them); the caller hands the orphaned range's
  // state to the new owner.
  return RemoveAndSplice(node);
}

StatusOr<KeyRange> ChordNetwork::CrashNode(NodeIndex node) {
  // Silent failure: same exact splice (a compressed stand-in for the
  // stabilization rounds that would heal the ring), but the caller gets no
  // handoff — only replicas of the orphaned range survive.
  return RemoveAndSplice(node);
}

void ChordNetwork::RepairSuccessorListsAround(NodeIndex around) {
  if (ring_.empty()) return;
  RJOIN_CHECK(around < nodes_.size() && nodes_[around]->alive());
  const size_t n = ring_.size();
  size_t pos = RingPos(around);
  const size_t reach = std::min(kSuccessorListLen, n - 1);
  for (size_t k = 0; k < reach; ++k) {
    pos = (pos + n - 1) % n;
    StabilizeOnce(ring_[pos].node);
  }
}

StatusOr<NodeIndex> ChordNetwork::JoinAndSplice(NodeId id,
                                                NodeIndex bootstrap) {
  auto joined = JoinViaBootstrap(id, bootstrap);
  if (!joined.ok()) return joined.status();
  const NodeIndex index = *joined;
  ChordNode& nd = *nodes_[index];
  const NodeIndex succ = nd.successor();

  // The joiner's predecessor is its successor's old predecessor (exact in a
  // consistent ring; JoinViaBootstrap resolved succ against the pre-join
  // membership, so succ's predecessor has not been touched yet).
  NodeIndex pred = nodes_[succ]->predecessor();
  if (pred == kInvalidNode || pred >= nodes_.size() ||
      !nodes_[pred]->alive() || pred == index) {
    pred = succ;  // Two-node ring: the bootstrap wraps to itself.
  }
  nd.set_predecessor(pred);
  nodes_[pred]->set_successor(index);
  nodes_[succ]->set_predecessor(index);

  // Refresh the joiner's successor list, plus the lists of every
  // ring-predecessor that must now include it, and give the joiner real
  // fingers in-band (one full fix_fingers sweep); everyone else's fingers
  // repair lazily — stale-but-alive fingers still make monotone routing
  // progress, and dead ones are skipped.
  StabilizeOnce(index);
  RepairSuccessorListsAround(index);
  for (int b = 0; b < NodeId::kBits; ++b) FixFingersOnce(index, b);
  RJOIN_DCHECK(RingConsistent());  // join splice must keep the ring exact
  return index;
}

void ChordNetwork::Stabilize() {
  if (ring_.empty()) return;
  BumpGeneration();
  // Walk the ring in id order to set successor/predecessor/successor-list.
  const std::vector<NodeIndex> order = AliveNodes();

  const size_t n = order.size();
  for (size_t i = 0; i < n; ++i) {
    ChordNode& nd = *nodes_[order[i]];
    nd.set_successor(order[(i + 1) % n]);
    nd.set_predecessor(order[(i + n - 1) % n]);
    auto& slist = nd.mutable_successor_list();
    slist.clear();
    const size_t len = std::min(kSuccessorListLen, n - 1);
    for (size_t k = 1; k <= len; ++k) slist.push_back(order[(i + k) % n]);
  }
  // Finger tables: finger[i] = Successor(id + 2^i).
  for (size_t i = 0; i < n; ++i) {
    ChordNode& nd = *nodes_[order[i]];
    std::vector<NodeIndex> fingers(NodeId::kBits);
    for (int b = 0; b < NodeId::kBits; ++b) {
      fingers[static_cast<size_t>(b)] = SuccessorOf(nd.id().AddPowerOfTwo(b));
    }
    nd.SetFingers(std::move(fingers));
  }
}

StatusOr<NodeIndex> ChordNetwork::JoinViaBootstrap(NodeId id,
                                                   NodeIndex bootstrap) {
  if (bootstrap >= nodes_.size() || !nodes_[bootstrap]->alive()) {
    return Status::NotFound("bootstrap node is not alive");
  }
  const size_t pos = RingLowerBound(id);
  if (pos < ring_.size() && ring_[pos].id == id) {
    return Status::AlreadyExists("ring position already occupied");
  }
  // Resolve the successor before inserting into the membership index so
  // the lookup reflects the pre-join ring.
  const NodeIndex succ = FindSuccessorFrom(bootstrap, id);

  const NodeIndex index = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back(std::make_unique<ChordNode>(index, id));
  route_caches_.emplace_back();
  ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(pos),
               RingEntry{id, index});
  BumpGeneration();

  ChordNode& nd = *nodes_[index];
  nd.set_successor(succ);
  nd.set_predecessor(kInvalidNode);  // Learned through notify().
  nd.SetFingers(std::vector<NodeIndex>(NodeId::kBits, succ));  // Coarse.
  nd.mutable_successor_list().assign(1, succ);
  return index;
}

void ChordNetwork::StabilizeOnce(NodeIndex n) {
  ChordNode& nd = *nodes_[n];
  if (!nd.alive()) return;
  BumpGeneration();

  // Skip dead successors using the successor list (Chord's robustness
  // mechanism); fall back to self if everything known is dead.
  NodeIndex succ = nd.successor();
  if (succ == kInvalidNode || !nodes_[succ]->alive() || succ == n) {
    succ = n;
    for (NodeIndex cand : nd.successor_list()) {
      if (cand != n && cand < nodes_.size() && nodes_[cand]->alive()) {
        succ = cand;
        break;
      }
    }
  }
  // stabilize(): if successor's predecessor sits between us, adopt it.
  if (succ != n) {
    const NodeIndex x = nodes_[succ]->predecessor();
    if (x != kInvalidNode && x < nodes_.size() && nodes_[x]->alive() &&
        InIntervalOpenOpen(nodes_[x]->id(), nd.id(), nodes_[succ]->id())) {
      succ = x;
    }
  }
  nd.set_successor(succ == n ? n : succ);

  // notify(): tell the successor about us.
  if (succ != n) {
    ChordNode& s = *nodes_[succ];
    const NodeIndex p = s.predecessor();
    if (p == kInvalidNode || p >= nodes_.size() || !nodes_[p]->alive() ||
        InIntervalOpenOpen(nd.id(), nodes_[p]->id(), s.id())) {
      s.set_predecessor(n);
    }
  }

  // Refresh the successor list by walking successor pointers.
  auto& slist = nd.mutable_successor_list();
  slist.clear();
  NodeIndex cur = nd.successor();
  for (size_t k = 0; k < kSuccessorListLen; ++k) {
    if (cur == kInvalidNode || cur == n || !nodes_[cur]->alive()) break;
    slist.push_back(cur);
    cur = nodes_[cur]->successor();
  }
}

void ChordNetwork::FixFingersOnce(NodeIndex n, int finger_index) {
  ChordNode& nd = *nodes_[n];
  if (!nd.alive()) return;
  BumpGeneration();
  if (nd.fingers().empty()) {
    nd.SetFingers(std::vector<NodeIndex>(NodeId::kBits, nd.successor()));
  }
  nd.SetFinger(finger_index,
               FindSuccessorFrom(n, nd.id().AddPowerOfTwo(finger_index)));
}

void ChordNetwork::RunProtocolRounds(int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (const auto& nd : nodes_) {
      if (!nd->alive()) continue;
      StabilizeOnce(nd->index());
      for (int b = 0; b < NodeId::kBits; ++b) FixFingersOnce(nd->index(), b);
    }
  }
}

NodeIndex ChordNetwork::FindSuccessorFrom(NodeIndex src,
                                          const NodeId& key) const {
  RJOIN_CHECK(src < nodes_.size() && nodes_[src]->alive());
  NodeIndex cur = src;
  const size_t kMaxSteps = 2 * nodes_.size() + NodeId::kBits;
  for (size_t step = 0; step < kMaxSteps; ++step) {
    const ChordNode& nd = *nodes_[cur];
    // Current successor, skipping dead nodes via the successor list.
    NodeIndex succ = nd.successor();
    if (succ == kInvalidNode || succ >= nodes_.size() ||
        !nodes_[succ]->alive()) {
      succ = cur;
      for (NodeIndex cand : nd.successor_list()) {
        if (cand < nodes_.size() && nodes_[cand]->alive()) {
          succ = cand;
          break;
        }
      }
      if (succ == cur) return cur;  // Isolated: best effort.
    }
    if (succ == cur || InIntervalOpenClosed(key, nd.id(), nodes_[succ]->id())) {
      return succ == cur ? cur : succ;
    }
    // Closest preceding *alive* finger; else step to the successor.
    NodeIndex next = succ;
    for (const NodeIndex f : nd.finger_runs()) {
      if (f == kInvalidNode || f >= nodes_.size() || !nodes_[f]->alive()) {
        continue;
      }
      if (InIntervalOpenOpen(nodes_[f]->id(), nd.id(), key)) {
        next = f;
        break;
      }
    }
    if (next == cur) next = succ;
    cur = next;
  }
  return cur;  // Bounded walk: return the best node reached.
}

bool ChordNetwork::RingConsistent() const {
  if (ring_.empty()) return true;
  const std::vector<NodeIndex> order = AliveNodes();
  const size_t n = order.size();
  for (size_t i = 0; i < n; ++i) {
    const ChordNode& nd = *nodes_[order[i]];
    const NodeIndex expect_succ = order[(i + 1) % n];
    const NodeIndex expect_pred = order[(i + n - 1) % n];
    if (n == 1) {
      if (nd.successor() != order[0] && nd.successor() != kInvalidNode) {
        return false;
      }
      continue;
    }
    if (nd.successor() != expect_succ) return false;
    if (nd.predecessor() != expect_pred) return false;
  }
  return true;
}

NodeIndex ChordNetwork::SuccessorOf(const NodeId& key) const {
  RJOIN_CHECK(!ring_.empty()) << "empty network";
  const size_t pos = RingLowerBound(key);
  return ring_[pos == ring_.size() ? 0 : pos].node;  // Wrap around the ring.
}

NodeIndex ChordNetwork::ClosestPrecedingFinger(NodeIndex from,
                                               const NodeId& key) const {
  const ChordNode& nd = *nodes_[from];
  for (const NodeIndex f : nd.finger_runs()) {
    if (f == kInvalidNode || !nodes_[f]->alive()) continue;
    if (InIntervalOpenOpen(nodes_[f]->id(), nd.id(), key)) return f;
  }
  return nd.successor();
}

std::vector<NodeIndex> ChordNetwork::Route(NodeIndex src,
                                           const NodeId& key) const {
  std::vector<NodeIndex> path;
  RoutePath(src, key, &path);
  return path;
}

void ChordNetwork::RoutePath(NodeIndex src, const NodeId& key,
                             std::vector<NodeIndex>* path) const {
  RJOIN_CHECK(src < nodes_.size() && nodes_[src]->alive());
  const NodeIndex responsible = SuccessorOf(key);
  path->clear();
  path->push_back(src);
  NodeIndex cur = src;
  // Greedy Chord routing; the loop bound guards against a broken overlay.
  const size_t kMaxHops = 2 * ring_.size() + NodeId::kBits;
  while (cur != responsible && path->size() <= kMaxHops) {
    const ChordNode& nd = *nodes_[cur];
    const NodeIndex succ = nd.successor();
    NodeIndex next;
    if (InIntervalOpenClosed(key, nd.id(), nodes_[succ]->id())) {
      next = succ;
    } else {
      next = ClosestPrecedingFinger(cur, key);
      if (next == cur) next = succ;
    }
    path->push_back(next);
    cur = next;
  }
  RJOIN_CHECK(cur == responsible) << "routing failed to converge";
}

size_t ChordNetwork::RouteHops(NodeIndex src, const NodeId& key) const {
  return Route(src, key).size() - 1;
}

double ChordNetwork::EstimateSize(NodeIndex n) const {
  const ChordNode& nd = *nodes_[n];
  const auto& slist = nd.successor_list();
  if (slist.empty()) return 1.0;
  const NodeId& last = nodes_[slist.back()]->id();
  const double dist = last.Subtract(nd.id()).ToDouble();
  if (dist <= 0.0) return 1.0;
  const double ring_size = std::pow(2.0, NodeId::kBits);
  return static_cast<double>(slist.size()) * ring_size / dist;
}

std::vector<NodeIndex> ChordNetwork::AliveNodes() const {
  std::vector<NodeIndex> out;
  out.reserve(ring_.size());
  for (const RingEntry& e : ring_) out.push_back(e.node);
  return out;
}

void ChordNetwork::SuccessorsOf(NodeIndex node, size_t count,
                                std::vector<NodeIndex>* out) const {
  out->clear();
  if (node >= nodes_.size() || !nodes_[node]->alive()) return;
  const size_t n = ring_.size();
  size_t pos = RingPos(node);
  const size_t reach = std::min(count, n - 1);
  for (size_t k = 0; k < reach; ++k) {
    pos = pos + 1 == n ? 0 : pos + 1;
    out->push_back(ring_[pos].node);
  }
}

bool ChordNetwork::ValidSuccessorLists() const {
  const std::vector<NodeIndex> order = AliveNodes();
  const size_t n = order.size();
  if (n == 0) return true;
  const size_t len = std::min(kSuccessorListLen, n - 1);
  for (size_t i = 0; i < n; ++i) {
    const auto& slist = nodes_[order[i]]->successor_list();
    if (slist.size() != len) return false;
    for (size_t k = 0; k < len; ++k) {
      if (slist[k] != order[(i + k + 1) % n]) return false;
    }
  }
  return true;
}

}  // namespace rjoin::dht
