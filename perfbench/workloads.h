// The benchmark's workloads. Each is built from the seed alone, before any
// engine exists, and is replayed unchanged by every trial of a run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mbox/middleboxes.h"
#include "net/packet.h"

namespace perfbench {

// One operation of the flow-table key stream the state layer replays.
struct KeyOp {
  enum class Kind : uint8_t { kUpsert, kLookup, kErase };
  Kind kind = Kind::kLookup;
  uint32_t key = 0;  // index into Workload::keys
};

struct Workload {
  std::string name;
  std::function<gallium::Result<gallium::mbox::MiddleboxSpec>()> build;
  // Establishes flow state before the measured trace; never timed.
  std::vector<gallium::net::Packet> warmup;
  // The measured trace, split into the slices each Engine::Run call gets.
  // Idle-flow aging ticks run between slices, and throughput is taken from
  // each slice's quietest replay. Every packet's TCP sequence number and
  // id are its index in the whole trace, so emitted packets can be matched
  // to their input.
  std::vector<std::vector<gallium::net::Packet>> chunks;
  size_t packets = 0;
  // Replays of the trace per trial on one engine. More than one only for a
  // trace that leaves the engine's state as it found it; every replay's
  // tallies are still checked against the output check's.
  int replays = 1;

  // Idle-flow aging (the load balancer's maintenance loop): after every
  // chunk, each shard's CollectIdleFlows scans at most `sweep_budget`
  // slots of `created_map` and expires flows created `timeout_ms` ago.
  bool aging = false;
  std::string flows_map;
  std::string created_map;
  uint64_t timeout_ms = 0;
  uint64_t sweep_budget = 0;

  // Key stream of the workload's main flow table (warmup then trace),
  // replayed against a standalone state::FlowTable of the same widths.
  size_t key_words = 0;
  size_t value_words = 0;
  std::vector<std::vector<uint64_t>> keys;
  std::vector<KeyOp> key_ops;
};

// Known names: nat-steady, lb-churn, trojan-mixed.
bool IsWorkload(const std::string& name);
Workload MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
