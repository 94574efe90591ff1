#include "core/node_state.h"

#include "core/slice_codec.h"

namespace rjoin::core {

// Out-of-line where ReplicaStore is complete, so NodeState users never need
// the replication surface just to construct or destroy a node's state.
NodeState::NodeState(uint64_t ric_epoch) : rates(ric_epoch) {}
NodeState::~NodeState() = default;

}  // namespace rjoin::core
