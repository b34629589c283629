#pragma once

// Checkpoint / restore (paper conclusion: "check and restore functionality
// for fault tolerance can be implemented with little effort on top of the
// out-of-core subsystem"). A checkpoint is a consistent snapshot of every
// mobile object in the cluster — in-core objects are serialized exactly as
// the out-of-core layer would spill them; already-spilled objects are
// copied from the storage layer — together with their pending message
// queues, priorities, and directory identity. Each object is one object
// image, the same layout a migration ships (Runtime::write_image).
//
// Contract:
//   - checkpoint_cluster must run at a phase boundary (after Cluster::run
//     returned): no handler is executing and no message is in flight;
//   - restore_cluster targets a freshly built cluster with the same node
//     count and the same type/handler registration order (handlers are
//     code, not data, so the application re-registers them);
//   - locks are session state and are not restored; priorities are;
//   - a cluster is never partially restored: restore_cluster reads,
//     CRC-checks and parses every node's image before it installs a single
//     object, so a missing, truncated or damaged file (even below its file
//     CRC) leaves every node unchanged and returns an error Status. It
//     never throws.

#include <filesystem>

#include "core/cluster.hpp"
#include "util/status.hpp"

namespace mrts::core {

/// Writes one file per node plus a manifest into `dir` (created if needed).
util::Status checkpoint_cluster(Cluster& cluster,
                                const std::filesystem::path& dir);

/// Reloads a checkpoint written by checkpoint_cluster, all or nothing (see
/// the contract above). All restored objects land on the node that owned
/// them at checkpoint time, and every object's home node relearns its
/// location (so post-restore messages route without falling into the
/// "destroyed object" path).
util::Status restore_cluster(Cluster& cluster,
                             const std::filesystem::path& dir);

}  // namespace mrts::core
