// perfbench: the measured benchmark of the Gallium engine.
//
//   perfbench --workload <nat-steady|lb-churn|trojan-mixed> --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// One process replays in-memory traces through engine::Engine; no network
// link is crossed and every number is measured with the steady clock from
// this file's calls into the library's public functions, never taken from
// the cost model (perf::*), RunReport::AggregateMpps or the modeled
// Outcome::sync_latency_us.
//
// A run first checks outputs (untimed), then repeats measurement cycles
// until S seconds have passed. Each cycle builds fresh engines, so every
// trial replays the same trace from the same state (a trace that changes no
// state is replayed Workload::replays times per trial):
//   set-up   : build spec -> core::Compiler::Compile -> Engine::Create (3w),
//              kSetupsPerCycle times; setup_s is the median over all
//   3w trial : threaded Engine::Run with 3 workers
//   1w trial : deterministic Engine::Run with 1 worker
//   latency  : closed loop, one Engine::Process call outstanding, 1 worker
// Throughput and latency are taken from the quietest replay of identical
// work across cycles. The trace is replayed in chunks (one Run call each):
// mpps = packets / Σ over chunks of the chunk's least Run time. Each
// packet's latency is its least Process time across cycles, and the
// percentiles are taken over packets. On a shared host other tenants slow
// whole stretches of a run by 30-40%, which moves per-run medians by ±20%;
// the quietest replay of identical work is what repeats from run to run.
// With --trace 1 each cycle also times FlowSteering::OwnerOf, Packet
// copy/Serialize/Parse and a state::FlowTable replaying the workload's key
// stream, spans are kept in memory and written as Chrome trace events, and
// the per-layer metrics are computed from them. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/compiler.h"
#include "engine/engine.h"
#include "runtime/software_middlebox.h"
#include "spans.h"
#include "state/flow_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gallium::engine::Engine;
using gallium::engine::EngineOptions;
using gallium::engine::RunReport;
using gallium::mbox::MiddleboxSpec;
using gallium::net::Packet;
using gallium::runtime::OffloadedMiddlebox;
using gallium::runtime::Verdict;

constexpr int kThreadedWorkers = 3;
constexpr int kMinCycles = 3;
constexpr int kSetupsPerCycle = 3;
// The traced run keeps per-packet Process spans from the first replay of
// this many cycles only, which bounds the recorder's memory.
constexpr uint64_t kTracedLatencyCycles = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && IsWorkload(a->workload) && a->seconds > 0;
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

// Bytes malloc currently hands out, over every arena plus mmapped chunks.
double HeapInUseMiB() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

// Keeps a value computed by a timed loop alive so the loop is not elided.
void KeepAlive(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// Per-verdict packet counts, the same classes Engine::Run tallies.
struct Tallies {
  uint64_t sends = 0, drops = 0, errors = 0, shed = 0, fast = 0;

  void Add(const RunReport& r) {
    sends += r.sends;
    drops += r.drops;
    errors += r.errors;
    shed += r.shed;
    fast += r.fast_path;
  }
  void Add(const OffloadedMiddlebox::Outcome& o) {
    if (!o.status.ok()) {
      ++errors;
    } else if (o.shed) {
      ++shed;
    } else {
      if (o.fast_path) ++fast;
      if (o.verdict.kind == Verdict::Kind::kSend) ++sends;
      if (o.verdict.kind == Verdict::Kind::kDrop) ++drops;
    }
  }
  // Lower bound on the packets classified differently from `o`.
  uint64_t Distance(const Tallies& o) const {
    auto d = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
    return std::max({d(sends, o.sends), d(drops, o.drops),
                     d(errors, o.errors), d(shed, o.shed), d(fast, o.fast)});
  }
  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sends=%llu drops=%llu errors=%llu shed=%llu fast_path=%llu",
                  (unsigned long long)sends, (unsigned long long)drops,
                  (unsigned long long)errors, (unsigned long long)shed,
                  (unsigned long long)fast);
    return buf;
  }
};

// What the software baseline did with one input packet.
struct Expected {
  bool ok = true;
  Verdict verdict;
  uint64_t hash = 0;  // of the emitted packet's wire bytes, when sent
};

// One Engine::Run replay of the trace (plus aging ticks).
struct RunStats {
  Tallies tallies;
  uint64_t tick_errors = 0;
  double run_us = 0;   // Σ wall time of the Run calls
  double busy_us = 0;  // Σ RunReport::worker_busy_us
  std::vector<uint64_t> worker_packets;
  std::vector<double> chunk_us;  // wall time of each Run call
  uint64_t allocs = 0;
};

// Keeps the elementwise minimum of per-chunk times across cycles.
void KeepQuietest(std::vector<double>* best, const std::vector<double>& us) {
  if (best->empty()) best->assign(us.size(), HUGE_VAL);
  for (size_t c = 0; c < us.size(); ++c) {
    (*best)[c] = std::min((*best)[c], us[c]);
  }
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

class Bench {
 public:
  Bench(const Args& args, Workload w)
      : args_(args), w_(std::move(w)), spans_(args.trace) {
    n_run_ = spans_.Name("engine.Run");
    n_tick_ = spans_.Name("runtime.CollectIdleFlows");
    n_fast_ = spans_.Name("runtime.Process.fast");
    n_slow_ = spans_.Name("runtime.Process.slow");
    n_sync_ = spans_.Name("runtime.Process.sync");
    n_setup_ = spans_.Name("setup");
    n_spec_ = spans_.Name("mbox.Build");
    n_compile_ = spans_.Name("core.Compile");
    n_create_ = spans_.Name("engine.Create");
    n_steer_ = spans_.Name("engine.OwnerOf.pass");
    n_copy_ = spans_.Name("net.copy.pass");
    n_ser_ = spans_.Name("net.Serialize.pass");
    n_parse_ = spans_.Name("net.Parse.pass");
    n_upsert_ = spans_.Name("state.Upsert.pass");
    n_lookup_ = spans_.Name("state.Lookup.pass");
    n_erase_ = spans_.Name("state.Erase.pass");
    n_op_ = spans_.Name("state.op");
    n_cycle_ = spans_.Name("cycle");
  }

  int Main();

 private:
  MiddleboxSpec BuildSpec() {
    auto spec = w_.build();
    if (!spec.ok()) Die("spec: " + spec.status().ToString());
    return std::move(spec).value();
  }
  std::unique_ptr<Engine> NewEngine(const MiddleboxSpec& spec, int workers,
                                    bool threaded) {
    EngineOptions o;
    o.workers = workers;
    o.threaded = threaded;
    auto eng = Engine::Create(spec, o);
    if (!eng.ok()) Die("engine: " + eng.status().ToString());
    return std::move(eng).value();
  }
  size_t warm() const { return w_.warmup.size(); }

  void BuildReference();
  void CheckOutputs();
  void Compare(size_t g, const OffloadedMiddlebox::Outcome& o);
  uint64_t Tick(Engine& eng, const MiddleboxSpec& spec, uint64_t now,
                uint64_t id, bool count_codes = false);
  void WarmupByProcess(Engine& eng, uint64_t* now);
  RunStats ReplayRun(Engine& eng, const MiddleboxSpec& spec, uint64_t* now,
                     std::vector<Packet>* sink, uint64_t id);
  std::unique_ptr<Engine> SetUp(uint64_t k, MiddleboxSpec* spec);
  void ThreadedTrial(Engine& eng, const MiddleboxSpec& spec, uint64_t k);
  void DeterministicTrial(const MiddleboxSpec& spec, uint64_t k, bool record);
  void Cycle(uint64_t k);
  void LatencyTrial(const MiddleboxSpec& spec, uint64_t k);
  void CountOutcome(const OffloadedMiddlebox::Outcome& out);
  void LayerPasses(Engine& eng3, uint64_t k);
  void StateReplay(uint64_t k, bool per_op);
  void Report();

  Args args_;
  Workload w_;
  Spans spans_;
  uint32_t n_run_, n_tick_, n_fast_, n_slow_, n_sync_, n_setup_, n_spec_,
      n_compile_, n_create_, n_steer_, n_copy_, n_ser_, n_parse_, n_upsert_,
      n_lookup_, n_erase_, n_op_, n_cycle_;

  // Output check.
  std::vector<Expected> expected_;  // warmup then trace, by global index
  std::vector<bool> failed_;
  std::map<std::string, uint64_t> status_counts_;
  uint64_t tally_mismatches_ = 0;
  uint64_t tick_failures_ = 0;
  uint64_t ticks_checked_ = 0;
  Tallies det1_, det3_;
  uint64_t det1_tick_errors_ = 0;

  // Measurements, one entry per trial replay unless noted.
  uint64_t cycles_ = 0;
  std::vector<double> setup_s_, mpps1_, mpps3_;  // whole-trace, per cycle
  std::vector<double> mem_mib_;
  // Least Run time of each chunk across cycles (µs): 1 worker, 1 worker
  // with span recording on (traced run only), 3 workers.
  std::vector<double> quiet1_us_, quiet1_traced_us_, quiet3_us_;
  // Least Process time of each trace packet across cycles (µs).
  std::vector<double> quiet_lat_us_;
  std::vector<double> harness_ns_, busy_share3_, imbalance3_;
  std::vector<double> allocs1_, allocs3_;
  std::map<std::string, std::vector<double>> phase_ms_;
  std::vector<double> steer_ns_, copy_ns_, ser_ns_, parse_ns_;
  std::vector<double> upsert_ns_, lookup_ns_, erase_ns_;
  double max_op_us_ = 0;
  // Latency-trial counters (packets across all latency trials).
  uint64_t lat_packets_ = 0, lat_slow_ = 0, lat_synced_ = 0;
  uint64_t server_insts_ = 0, switch_insts_ = 0, switch_lookups_ = 0;
  uint64_t transfer_bytes_ = 0, sync_batches_ = 0;
};

void Bench::BuildReference() {
  const MiddleboxSpec spec = BuildSpec();
  gallium::runtime::SoftwareMiddlebox sw(spec);
  expected_.resize(warm() + w_.packets);
  uint64_t now = 1;
  size_t g = 0;
  auto one = [&](const Packet& in) {
    Packet p = in;
    const auto out = sw.Process(p, now++);
    Expected& e = expected_[g++];
    e.ok = out.status.ok();
    e.verdict = out.verdict;
    if (out.verdict.kind == Verdict::Kind::kSend) {
      e.hash = HashBytes(p.Serialize());
    }
  };
  for (const Packet& p : w_.warmup) one(p);
  for (const auto& chunk : w_.chunks) {
    for (const Packet& p : chunk) one(p);
  }
}

// Marks packet `g` failed when the engine's outcome differs from the
// software baseline's.
void Bench::Compare(size_t g, const OffloadedMiddlebox::Outcome& o) {
  const Expected& e = expected_[g];
  bool ok = e.ok && o.status.ok() && !o.shed && o.verdict == e.verdict;
  if (!o.status.ok()) ++status_counts_[ErrorCodeName(o.status.code())];
  if (ok && o.verdict.kind == Verdict::Kind::kSend) {
    ok = HashBytes(o.out_packet.Serialize()) == e.hash;
  }
  if (!ok) failed_[g] = true;
}

// One aging tick on every shard; returns the ticks that failed. The output
// check counts their status codes, the timed trials only compare totals.
uint64_t Bench::Tick(Engine& eng, const MiddleboxSpec& spec, uint64_t now,
                     uint64_t id, bool count_codes) {
  if (!w_.aging) return 0;
  const auto flows = spec.MapIndex(w_.flows_map);
  const auto created = spec.MapIndex(w_.created_map);
  uint64_t errors = 0;
  for (int i = 0; i < eng.workers(); ++i) {
    const Spans::Token t = spans_.Open(id);
    const auto r = eng.shard(i).CollectIdleFlows(
        flows, created, now, w_.timeout_ms, w_.sweep_budget);
    spans_.Close(t, n_tick_);
    if (r.ok()) continue;
    ++errors;
    if (count_codes) {
      ++status_counts_["CollectIdleFlows:" +
                       std::string(ErrorCodeName(r.status().code()))];
    }
  }
  return errors;
}

void Bench::WarmupByProcess(Engine& eng, uint64_t* now) {
  for (const Packet& p : w_.warmup) (void)eng.Process(p, (*now)++);
}

RunStats Bench::ReplayRun(Engine& eng, const MiddleboxSpec& spec,
                          uint64_t* now, std::vector<Packet>* sink,
                          uint64_t id) {
  RunStats st;
  st.worker_packets.assign(static_cast<size_t>(eng.workers()), 0);
  for (const auto& chunk : w_.chunks) {
    const Spans::Token t = spans_.Open(id);
    const uint64_t a0 = AllocCount();
    StartAllocWindow();
    const RunReport r = eng.Run(chunk, *now, sink);
    StopAllocWindow();
    st.allocs += AllocCount() - a0;
    const double us = static_cast<double>(spans_.Close(t, n_run_)) / 1e3;
    st.run_us += us;
    st.chunk_us.push_back(us);
    *now += chunk.size();
    st.tallies.Add(r);
    for (size_t i = 0; i < r.worker_busy_us.size(); ++i) {
      st.busy_us += r.worker_busy_us[i];
      st.worker_packets[i] += r.worker_packets[i];
    }
    if (r.sends + r.drops + r.errors + r.shed != r.packets ||
        r.packets != chunk.size()) {
      ++tally_mismatches_;  // conservation broken
    }
    st.tick_errors += Tick(eng, spec, *now, id);
  }
  return st;
}

void Bench::CheckOutputs() {
  failed_.assign(expected_.size(), false);
  for (size_t g = 0; g < expected_.size(); ++g) {
    if (!expected_[g].ok) failed_[g] = true;  // the baseline itself failed
  }
  const MiddleboxSpec spec = BuildSpec();
  Tallies warm1;  // the warmup's outcomes on the Process path

  // Per packet through Engine::Process (1 worker): status codes, verdicts
  // and emitted bytes against the software baseline.
  {
    auto eng = NewEngine(spec, 1, false);
    uint64_t now = 1;
    size_t g = 0;
    for (const Packet& p : w_.warmup) {
      const auto out = eng->Process(p, now++);
      warm1.Add(out);
      Compare(g++, out);
    }
    for (const auto& chunk : w_.chunks) {
      for (const Packet& p : chunk) {
        const auto out = eng->Process(p, now++);
        det1_.Add(out);
        Compare(g++, out);
      }
      det1_tick_errors_ += Tick(*eng, spec, now, 0, true);
      ticks_checked_ += static_cast<uint64_t>(eng->workers());
    }
    tick_failures_ += det1_tick_errors_;
  }

  // The deterministic Run path (1 worker) must emit the same packets: the
  // sink is matched to its inputs by TCP sequence number.
  {
    auto eng = NewEngine(spec, 1, false);
    uint64_t now = 1;
    const RunReport wr = eng->Run(w_.warmup, now);
    now += w_.warmup.size();
    std::vector<Packet> sink;
    const RunStats st = ReplayRun(*eng, spec, &now, &sink, 0);
    std::vector<bool> seen(w_.packets, false);
    for (const Packet& p : sink) {
      const size_t i = p.has_tcp() ? p.tcp().seq : w_.packets;
      if (i >= w_.packets || seen[i]) {
        ++tally_mismatches_;  // an emitted packet with no single input
        continue;
      }
      seen[i] = true;
      const Expected& e = expected_[warm() + i];
      if (e.verdict.kind != Verdict::Kind::kSend ||
          HashBytes(p.Serialize()) != e.hash) {
        failed_[warm() + i] = true;
      }
    }
    for (size_t i = 0; i < w_.packets; ++i) {
      if (expected_[warm() + i].verdict.kind == Verdict::Kind::kSend &&
          !seen[i]) {
        failed_[warm() + i] = true;
      }
    }
    tally_mismatches_ += st.tallies.Distance(det1_);
    if (st.tick_errors != det1_tick_errors_) ++tally_mismatches_;
    Tallies warm_run;
    warm_run.Add(wr);
    tally_mismatches_ += warm_run.Distance(warm1);
  }

  // Deterministic 3 workers: the reference the threaded trials must match.
  {
    auto eng = NewEngine(spec, kThreadedWorkers, false);
    uint64_t now = 1;
    (void)eng->Run(w_.warmup, now);
    now += w_.warmup.size();
    det3_ = ReplayRun(*eng, spec, &now, nullptr, 0).tallies;
  }
}

// Closed loop, one packet outstanding: times every Engine::Process call on
// a 1-worker engine and keeps each packet's least time across cycles.
void Bench::LatencyTrial(const MiddleboxSpec& spec, uint64_t k) {
  auto eng = NewEngine(spec, 1, false);
  uint64_t now = 1;
  (void)eng->Run(w_.warmup, now);
  now += w_.warmup.size();
  const uint64_t batches0 = eng->shard(0).device().sync_batches();
  Packet p;
  for (int r = 0; r < w_.replays; ++r) {
    if (args_.trace) spans_.set_recording(k < kTracedLatencyCycles && r == 0);
    for (const auto& chunk : w_.chunks) {
      for (const Packet& in : chunk) {
        p = in;  // the copy stays outside the timed call
        const Spans::Token t = spans_.Open(in.id());
        const auto out = eng->Process(std::move(p), now++);
        const uint32_t name =
            out.fast_path ? n_fast_ : (out.state_synced ? n_sync_ : n_slow_);
        const double us = static_cast<double>(spans_.Close(t, name)) / 1e3;
        quiet_lat_us_[in.id()] = std::min(quiet_lat_us_[in.id()], us);
        CountOutcome(out);
      }
      Tick(*eng, spec, now, k);
    }
  }
  if (args_.trace) spans_.set_recording(true);
  sync_batches_ += eng->shard(0).device().sync_batches() - batches0;
}

void Bench::CountOutcome(const OffloadedMiddlebox::Outcome& out) {
  ++lat_packets_;
  if (!out.fast_path) {
    ++lat_slow_;
    transfer_bytes_ += static_cast<uint64_t>(out.transfer_bytes_to_server +
                                             out.transfer_bytes_to_switch);
  }
  if (out.state_synced) ++lat_synced_;
  server_insts_ += static_cast<uint64_t>(out.server_stats.insts);
  switch_insts_ += static_cast<uint64_t>(out.switch_stats.insts);
  switch_lookups_ += static_cast<uint64_t>(out.switch_stats.map_lookups);
}

// Layer passes of the traced run over the trace's packets and tuples.
void Bench::LayerPasses(Engine& eng3, uint64_t k) {
  std::vector<gallium::net::FiveTuple> tuples;
  tuples.reserve(w_.packets);
  for (const auto& chunk : w_.chunks) {
    for (const Packet& p : chunk) tuples.push_back(p.five_tuple());
  }
  const double n = static_cast<double>(tuples.size());
  uint64_t sink = 0;
  {
    const auto& steering = eng3.steering();
    const Spans::Token t = spans_.Open(k);
    for (const auto& ft : tuples) {
      sink += static_cast<uint64_t>(steering.OwnerOf(ft));
    }
    steer_ns_.push_back(static_cast<double>(spans_.Close(t, n_steer_)) / n);
  }
  {
    Packet slot;
    const Spans::Token t = spans_.Open(k);
    for (const auto& chunk : w_.chunks) {
      for (const Packet& p : chunk) {
        slot = p;  // copy-assign reuses the slot's buffers, as Run does
        sink += slot.payload().size();
      }
    }
    copy_ns_.push_back(static_cast<double>(spans_.Close(t, n_copy_)) / n);
  }
  // Serialize/Parse over a bounded prefix so the wire copies stay small.
  constexpr size_t kWirePackets = 16384;
  std::vector<std::vector<uint8_t>> wire;
  wire.reserve(kWirePackets);
  {
    const Spans::Token t = spans_.Open(k);
    for (const auto& chunk : w_.chunks) {
      for (const Packet& p : chunk) {
        if (wire.size() == kWirePackets) break;
        wire.push_back(p.Serialize());
      }
    }
    ser_ns_.push_back(static_cast<double>(spans_.Close(t, n_ser_)) /
                      static_cast<double>(wire.size()));
  }
  {
    const Spans::Token t = spans_.Open(k);
    for (const auto& bytes : wire) {
      auto parsed = Packet::Parse(bytes);
      if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
      sink += parsed->payload().size();
    }
    parse_ns_.push_back(static_cast<double>(spans_.Close(t, n_parse_)) /
                        static_cast<double>(wire.size()));
  }
  KeepAlive(sink);
  StateReplay(k, k == 0);
}

// A standalone FlowTable with the workload's widths: bulk upsert, lookup and
// erase passes give ns per operation; on the first cycle the key stream is
// also replayed in order with every operation timed, for the worst pause.
void Bench::StateReplay(uint64_t k, bool per_op) {
  gallium::state::FlowTable::Config config;
  config.key_words = w_.key_words;
  config.value_words = w_.value_words;
  std::vector<uint64_t> value(w_.value_words, 1);
  uint64_t lookups = 0, hits = 0;
  {
    gallium::state::FlowTable table(config);
    Spans::Token t = spans_.Open(k);
    for (const auto& key : w_.keys) table.Upsert(key.data(), value.data());
    upsert_ns_.push_back(static_cast<double>(spans_.Close(t, n_upsert_)) /
                         static_cast<double>(w_.keys.size()));
    t = spans_.Open(k);
    for (const KeyOp& op : w_.key_ops) {
      if (op.kind != KeyOp::Kind::kLookup) continue;
      ++lookups;
      hits += table.Lookup(w_.keys[op.key].data(), value.data()) ? 1 : 0;
    }
    lookup_ns_.push_back(static_cast<double>(spans_.Close(t, n_lookup_)) /
                         static_cast<double>(std::max<uint64_t>(lookups, 1)));
    t = spans_.Open(k);
    for (const auto& key : w_.keys) hits += table.Erase(key.data()) ? 1 : 0;
    erase_ns_.push_back(static_cast<double>(spans_.Close(t, n_erase_)) /
                        static_cast<double>(w_.keys.size()));
  }
  KeepAlive(hits);
  if (!per_op) return;
  gallium::state::FlowTable table(config);
  for (size_t i = 0; i < w_.key_ops.size(); ++i) {
    const KeyOp& op = w_.key_ops[i];
    const uint64_t* key = w_.keys[op.key].data();
    const Spans::Token t = spans_.Open(i);
    switch (op.kind) {
      case KeyOp::Kind::kUpsert: table.Upsert(key, value.data()); break;
      case KeyOp::Kind::kLookup: (void)table.Lookup(key, value.data()); break;
      case KeyOp::Kind::kErase: (void)table.Erase(key); break;
    }
    max_op_us_ = std::max(
        max_op_us_, static_cast<double>(spans_.Close(t, n_op_)) / 1e3);
  }
}

// Set-up, repeated kSetupsPerCycle times: build spec -> Compile ->
// Engine::Create (3 workers, threaded). The last engine set up is kept for
// the threaded trial.
std::unique_ptr<Engine> Bench::SetUp(uint64_t k, MiddleboxSpec* spec) {
  std::unique_ptr<Engine> eng;
  for (int r = 0; r < kSetupsPerCycle; ++r) {
    eng.reset();  // before its spec is replaced
    const Spans::Token setup = spans_.Open(k);
    Spans::Token t = spans_.Open(k);
    *spec = BuildSpec();
    spans_.Close(t, n_spec_);
    t = spans_.Open(k);
    auto compiled = gallium::core::Compiler().Compile(*spec->fn);
    const double compile_ms =
        static_cast<double>(spans_.Close(t, n_compile_)) / 1e6;
    if (!compiled.ok()) Die("compile: " + compiled.status().ToString());
    t = spans_.Open(k);
    eng = NewEngine(*spec, kThreadedWorkers, true);
    const double create_ms =
        static_cast<double>(spans_.Close(t, n_create_)) / 1e6;
    setup_s_.push_back(static_cast<double>(spans_.Close(setup, n_setup_)) /
                       1e9);
    phase_ms_["core.compile_ms"].push_back(compile_ms);
    phase_ms_["engine.create_ms"].push_back(create_ms);
    for (const auto& [phase, us] : compiled->phase_times_us) {
      phase_ms_["core." + phase + "_ms"].push_back(us / 1e3);
    }
  }
  return eng;
}

// Threaded trial, 3 workers. The warmup goes through Process, which keeps
// deterministic semantics on a threaded engine.
void Bench::ThreadedTrial(Engine& eng, const MiddleboxSpec& spec, uint64_t k) {
  const double packets = static_cast<double>(w_.packets);
  uint64_t now = 1;
  WarmupByProcess(eng, &now);
  for (int r = 0; r < w_.replays; ++r) {
    const RunStats st = ReplayRun(eng, spec, &now, nullptr, k);
    tally_mismatches_ += st.tallies.Distance(det3_);
    mpps3_.push_back(packets / st.run_us);
    KeepQuietest(&quiet3_us_, st.chunk_us);
    busy_share3_.push_back(st.busy_us / (kThreadedWorkers * st.run_us));
    const uint64_t busiest = *std::max_element(st.worker_packets.begin(),
                                               st.worker_packets.end());
    imbalance3_.push_back(static_cast<double>(busiest) * kThreadedWorkers /
                          packets);
    allocs3_.push_back(static_cast<double>(st.allocs) / packets);
  }
}

// Deterministic trial, 1 worker. `record` turns span recording on for it;
// the traced run measures the recorder's own cost that way.
void Bench::DeterministicTrial(const MiddleboxSpec& spec, uint64_t k,
                               bool record) {
  const double packets = static_cast<double>(w_.packets);
  auto eng = NewEngine(spec, 1, false);
  uint64_t now = 1;
  (void)eng->Run(w_.warmup, now);
  now += w_.warmup.size();
  for (int r = 0; r < w_.replays; ++r) {
    if (args_.trace) spans_.set_recording(record);
    const RunStats st = ReplayRun(*eng, spec, &now, nullptr, k);
    if (args_.trace) spans_.set_recording(true);
    tally_mismatches_ += st.tallies.Distance(det1_);
    if (st.tick_errors != det1_tick_errors_) ++tally_mismatches_;
    if (record) {
      KeepQuietest(&quiet1_traced_us_, st.chunk_us);
      continue;
    }
    mpps1_.push_back(packets / st.run_us);
    KeepQuietest(&quiet1_us_, st.chunk_us);
    harness_ns_.push_back((st.run_us - st.busy_us) * 1e3 / packets);
    allocs1_.push_back(static_cast<double>(st.allocs) / packets);
  }
}

void Bench::Cycle(uint64_t k) {
  const Spans::Token cycle = spans_.Open(k);
  const double heap0 = HeapInUseMiB();
  MiddleboxSpec spec;
  std::unique_ptr<Engine> eng3 = SetUp(k, &spec);
  ThreadedTrial(*eng3, spec, k);
  mem_mib_.push_back(HeapInUseMiB() - heap0);
  if (args_.trace) LayerPasses(*eng3, k);
  eng3.reset();
  // The traced run alternates which of its two 1-worker trials records.
  DeterministicTrial(spec, k, args_.trace && k % 2 == 1);
  if (args_.trace) DeterministicTrial(spec, k, k % 2 == 0);
  LatencyTrial(spec, k);
  spans_.Close(cycle, n_cycle_);
  std::fprintf(stderr, "cycle %llu: mpps_1w=%.4f mpps_3w=%.4f setup_ms=%.3f\n",
               (unsigned long long)k, mpps1_.back(), mpps3_.back(),
               setup_s_.back() * 1e3);
}

int Bench::Main() {
  BuildReference();
  quiet_lat_us_.assign(w_.packets, HUGE_VAL);
  CheckOutputs();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
  while (cycles_ < kMinCycles || NowNs() < deadline) Cycle(cycles_++);
  Report();
  return 0;
}

void PrintMetric(std::string* json, const char* name, double value,
                 const char* unit) {
  std::printf("  %-36s %16.6f %s\n", name, value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                json->empty() ? "" : ",", name, value, unit);
  *json += buf;
}

void Bench::Report() {
  uint64_t failed = tally_mismatches_ + tick_failures_;
  for (bool f : failed_) failed += f ? 1 : 0;
  const uint64_t attempted = expected_.size() + ticks_checked_;
  const double fail_share =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double packets = static_cast<double>(w_.packets);
  std::printf("perfbench %s seed=%llu trace=%d cycles=%llu packets=%zu\n",
              w_.name.c_str(), (unsigned long long)args_.seed,
              args_.trace ? 1 : 0, (unsigned long long)cycles_, w_.packets);
  std::printf("check: attempted=%llu failed=%llu fail_share=%.6f ratio\n",
              (unsigned long long)attempted, (unsigned long long)failed,
              fail_share);
  std::printf("check: deterministic 1w %s\n", det1_.ToString().c_str());
  std::printf("check: deterministic 3w %s\n", det3_.ToString().c_str());
  std::printf("check: tally mismatches=%llu aging-tick failures=%llu\n",
              (unsigned long long)tally_mismatches_,
              (unsigned long long)tick_failures_);
  for (const auto& [code, n] : status_counts_) {
    std::printf("check: errors %s=%llu\n", code.c_str(), (unsigned long long)n);
  }

  std::string json;
  if (!args_.trace) {
    std::printf("end-to-end (quietest replays; setup_s median):\n");
    PrintMetric(&json, "mpps_1w", packets / Sum(quiet1_us_), "Mpps");
    PrintMetric(&json, "mpps_3w", packets / Sum(quiet3_us_), "Mpps");
    PrintMetric(&json, "lat_p50_us", Quantile(quiet_lat_us_, 0.5), "us");
    PrintMetric(&json, "lat_p99_us", Quantile(quiet_lat_us_, 0.99), "us");
    PrintMetric(&json, "setup_s", Median(setup_s_), "s");
    PrintMetric(&json, "ok_share", 1.0 - fail_share, "ratio");
    PrintMetric(&json, "mem_mb", Median(mem_mib_), "MiB");
  } else {
    std::printf("per-layer (medians over cycles):\n");
    const auto durations = [&](std::initializer_list<uint32_t> names) {
      std::vector<double> out;
      for (uint32_t n : names) {
        const auto d = spans_.DurationsUs(n);
        out.insert(out.end(), d.begin(), d.end());
      }
      return out;
    };
    const double lat_n =
        static_cast<double>(std::max<uint64_t>(lat_packets_, 1));
    PrintMetric(&json, "engine.harness_ns_per_pkt", Median(harness_ns_), "ns");
    PrintMetric(&json, "engine.steer_ns_per_pkt", Median(steer_ns_), "ns");
    PrintMetric(&json, "engine.busy_share_3w", Median(busy_share3_), "ratio");
    PrintMetric(&json, "engine.imbalance_3w", Median(imbalance3_), "ratio");
    PrintMetric(&json, "engine.allocs_per_pkt_1w", Median(allocs1_), "count");
    PrintMetric(&json, "engine.allocs_per_pkt_3w", Median(allocs3_), "count");
    PrintMetric(&json, "runtime.fast_us_p50", Median(durations({n_fast_})),
                "us");
    const auto slow = durations({n_slow_, n_sync_});
    PrintMetric(&json, "runtime.slow_us_p50", Quantile(slow, 0.5), "us");
    PrintMetric(&json, "runtime.slow_us_p99", Quantile(slow, 0.99), "us");
    PrintMetric(&json, "runtime.sync_us_p50", Median(durations({n_sync_})),
                "us");
    PrintMetric(&json, "runtime.slow_share",
                static_cast<double>(lat_slow_) / lat_n, "ratio");
    PrintMetric(&json, "runtime.sync_share",
                static_cast<double>(lat_synced_) / lat_n, "ratio");
    PrintMetric(&json, "runtime.server_ops_per_pkt",
                static_cast<double>(server_insts_) / lat_n, "count");
    PrintMetric(&json, "switchsim.ops_per_pkt",
                static_cast<double>(switch_insts_) / lat_n, "count");
    PrintMetric(&json, "switchsim.lookups_per_pkt",
                static_cast<double>(switch_lookups_) / lat_n, "count");
    PrintMetric(&json, "switchsim.sync_batches_per_kpkt",
                static_cast<double>(sync_batches_) * 1e3 / lat_n, "count");
    PrintMetric(&json, "net.serialize_ns", Median(ser_ns_), "ns");
    PrintMetric(&json, "net.parse_ns", Median(parse_ns_), "ns");
    PrintMetric(&json, "net.copy_ns", Median(copy_ns_), "ns");
    PrintMetric(&json, "net.transfer_bytes_per_slow_pkt",
                static_cast<double>(transfer_bytes_) /
                    static_cast<double>(std::max<uint64_t>(lat_slow_, 1)),
                "bytes");
    PrintMetric(&json, "state.lookup_ns", Median(lookup_ns_), "ns");
    PrintMetric(&json, "state.upsert_ns", Median(upsert_ns_), "ns");
    PrintMetric(&json, "state.erase_ns", Median(erase_ns_), "ns");
    PrintMetric(&json, "state.max_op_us", max_op_us_, "us");
    const auto sweeps = durations({n_tick_});
    PrintMetric(&json, "state.sweep_us_p50", Quantile(sweeps, 0.5), "us");
    PrintMetric(&json, "state.sweep_us_max", Quantile(sweeps, 1.0), "us");
    for (const auto& [name, ms] : phase_ms_) {
      PrintMetric(&json, name.c_str(), Median(ms), "ms");
    }
    const double untraced = packets / Sum(quiet1_us_);
    const double traced = packets / Sum(quiet1_traced_us_);
    PrintMetric(&json, "telemetry.trace_overhead_pct",
                untraced > 0 ? (untraced - traced) / untraced * 100.0 : 0.0,
                "%");
    if (!args_.trace_out.empty()) {
      if (spans_.WriteChromeJson(args_.trace_out, 4096)) {
        std::printf("trace: %zu spans, written to %s\n", spans_.spans().size(),
                    args_.trace_out.c_str());
      } else {
        std::printf("trace: could not write %s\n", args_.trace_out.c_str());
      }
    }
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      failed == 0 ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed, json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <nat-steady|lb-churn|"
                 "trojan-mixed> --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  perfbench::Bench bench(args,
                         perfbench::MakeWorkload(args.workload, args.seed));
  return bench.Main();
}
