#ifndef RJOIN_DHT_CHORD_NODE_H_
#define RJOIN_DHT_CHORD_NODE_H_

#include <cstdint>
#include <vector>

#include "dht/id.h"
#include "stats/metrics.h"

namespace rjoin::dht {

using NodeIndex = stats::NodeIndex;
inline constexpr NodeIndex kInvalidNode = static_cast<NodeIndex>(-1);

/// State of one Chord peer: its ring position, successor/predecessor
/// pointers, finger table, and successor list. Routing logic lives in
/// ChordNetwork, which owns all nodes of the simulated overlay.
class ChordNode {
 public:
  ChordNode(NodeIndex index, NodeId id) : index_(index), id_(id) {}

  NodeIndex index() const { return index_; }
  const NodeId& id() const { return id_; }

  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  NodeIndex successor() const { return successor_; }
  void set_successor(NodeIndex s) { successor_ = s; }

  NodeIndex predecessor() const { return predecessor_; }
  void set_predecessor(NodeIndex p) { predecessor_ = p; }

  /// finger[i] = Successor(id + 2^i), i in [0, 160).
  const std::vector<NodeIndex>& fingers() const { return fingers_; }

  /// The finger table run-compressed, top bit first: finger[159], then
  /// every further finger (scanning down) that differs from the one above
  /// it. A top-down scan that tests each finger meets the same nodes in the
  /// same order, repeats aside, so scanning the runs gives the same answer
  /// in at most about log N steps instead of up to 160. The setters below
  /// keep it in step with fingers().
  const std::vector<NodeIndex>& finger_runs() const { return finger_runs_; }

  /// Replaces the whole table.
  void SetFingers(std::vector<NodeIndex> fingers);
  /// Sets finger `b`.
  void SetFinger(int b, NodeIndex f);

  /// The r nearest successors, used for robustness and for the
  /// network-size estimate of Section 4.
  const std::vector<NodeIndex>& successor_list() const {
    return successor_list_;
  }
  std::vector<NodeIndex>& mutable_successor_list() { return successor_list_; }

 private:
  void RebuildFingerRuns();

  NodeIndex index_;
  NodeId id_;
  bool alive_ = true;
  NodeIndex successor_ = kInvalidNode;
  NodeIndex predecessor_ = kInvalidNode;
  std::vector<NodeIndex> fingers_;
  std::vector<NodeIndex> finger_runs_;
  std::vector<NodeIndex> successor_list_;
};

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_CHORD_NODE_H_
