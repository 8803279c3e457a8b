#include "sim/cluster_state.h"

namespace dsp {

void ClusterState::init(const ClusterSpec& spec) {
  spec_ = &spec;
  nodes_.assign(spec.size(), Node{});
  for (std::size_t k = 0; k < spec.size(); ++k) {
    nodes_[k].available = spec.node(k).capacity;
    nodes_[k].free_slots = spec.node(k).slots;
  }
}

void ClusterState::insert_waiting(int node, Gid g, const TaskRuntime& tasks) {
  node_mut(node).waiting.insert(tasks.rt(g).planned_start, g);
  if (tasks.ready(g)) insert_ready(node, g, tasks);
}

void ClusterState::remove_waiting(int node, Gid g, const TaskRuntime& tasks) {
  Node& n = node_mut(node);
  const SimTime start = tasks.rt(g).planned_start;
  n.waiting.erase(start, g);
  if (tasks.ready(g)) n.ready.erase(start, g);
}

void ClusterState::insert_ready(int node, Gid g, const TaskRuntime& tasks) {
  node_mut(node).ready.insert(tasks.rt(g).planned_start, g,
                              tasks.task_info(g).demand);
}

}  // namespace dsp
