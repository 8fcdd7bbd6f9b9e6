#include "workloads.h"

#include <algorithm>
#include <map>
#include <set>

#include "net/headers.h"
#include "util/rng.h"
#include "workload/flow_dist.h"
#include "workload/packet_gen.h"

namespace perfbench {

using gallium::Rng;
using gallium::net::FiveTuple;
using gallium::net::Packet;

namespace {

constexpr size_t kMss = 1448;

// One TCP connection, packetized lazily: SYN, data segments of up to kMss
// payload bytes, then FIN unless the connection is abandoned.
struct FlowDesc {
  FiveTuple ft;
  uint64_t bytes = 0;
  bool fin = true;
  std::string marker;  // DPI pattern placed at the start of every segment
};

// A sequence of connections one endpoint opens in order, emitted one
// packet at a time so a trace holds only the packets it actually replays.
class Session {
 public:
  explicit Session(std::vector<FlowDesc> flows) : flows_(std::move(flows)) {}
  // Joins the first connection after its SYN and `skip_bytes` of data, as
  // a capture window of steady traffic does.
  Session(std::vector<FlowDesc> flows, uint64_t skip_bytes)
      : flows_(std::move(flows)), stage_(1), sent_(skip_bytes) {}

  bool Next(Packet* out) {
    while (flow_ < flows_.size()) {
      const FlowDesc& f = flows_[flow_];
      if (stage_ == 0) {
        *out = gallium::net::MakeTcpPacket(f.ft, gallium::net::kTcpSyn, 0);
        stage_ = f.bytes > 0 ? 1 : 2;
        return true;
      }
      if (stage_ == 1) {
        const size_t len =
            static_cast<size_t>(std::min<uint64_t>(kMss, f.bytes - sent_));
        *out = gallium::net::MakeTcpPacket(
            f.ft, gallium::net::kTcpAck | gallium::net::kTcpPsh, len);
        if (!f.marker.empty()) {
          gallium::workload::SetPayloadWithMarker(out, f.marker, len);
        }
        sent_ += len;
        if (sent_ >= f.bytes) stage_ = 2;
        return true;
      }
      const bool fin = f.fin;
      if (fin) {
        *out = gallium::net::MakeTcpPacket(
            f.ft, gallium::net::kTcpFin | gallium::net::kTcpAck, 0);
      }
      ++flow_;
      stage_ = 0;
      sent_ = 0;
      if (fin) return true;
    }
    return false;
  }

 private:
  std::vector<FlowDesc> flows_;
  size_t flow_ = 0;
  int stage_ = 0;
  uint64_t sent_ = 0;
};

// Interleaves `slots` concurrent sessions: each packet comes from a slot
// chosen uniformly at random, and a slot whose session ends starts a new
// one. Each slot opens with `first()`, later sessions come from `next()`.
// The trace is a window of `count` packets, so connections still open at
// its end simply stop.
std::vector<Packet> Interleave(Rng& rng, size_t slots, size_t count,
                               const std::function<Session()>& first,
                               const std::function<Session()>& next) {
  std::vector<Session> live;
  live.reserve(slots);
  for (size_t s = 0; s < slots; ++s) live.push_back(first());
  std::vector<Packet> out;
  out.reserve(count);
  Packet pkt;
  while (out.size() < count) {
    Session& s = live[rng.NextBounded(slots)];
    while (!s.Next(&pkt)) s = next();
    pkt.set_ingress_port(gallium::mbox::kPortInternal);
    out.push_back(std::move(pkt));
  }
  return out;
}

uint64_t DrawBytes(Rng& rng, uint64_t cap) {
  const auto sizes = gallium::workload::DrawFlowSizes(
      gallium::workload::WorkloadKind::kEnterprise, 1, rng);
  return std::min(sizes[0], cap);
}

// Numbers the trace and splits it into Run slices of `chunk` packets.
void SetTrace(Workload* w, std::vector<Packet> trace, size_t chunk) {
  w->packets = trace.size();
  for (size_t base = 0; base < trace.size(); base += chunk) {
    const size_t end = std::min(trace.size(), base + chunk);
    std::vector<Packet> slice;
    slice.reserve(end - base);
    for (size_t i = base; i < end; ++i) {
      trace[i].tcp().seq = static_cast<uint32_t>(i);
      trace[i].set_id(i);
      slice.push_back(std::move(trace[i]));
    }
    w->chunks.push_back(std::move(slice));
  }
}

// Fills keys/key_ops from the warmup and trace: SYN upserts, FIN/RST
// erases, every other packet looks its key up. Packets `key_of` returns no
// key for do not touch the table.
void BuildKeyStream(
    Workload* w,
    const std::function<std::vector<uint64_t>(const Packet&)>& key_of) {
  std::map<std::vector<uint64_t>, uint32_t> index;
  auto add = [&](const Packet& p) {
    std::vector<uint64_t> key = key_of(p);
    if (key.empty()) return;
    auto [it, inserted] =
        index.emplace(key, static_cast<uint32_t>(w->keys.size()));
    if (inserted) w->keys.push_back(std::move(key));
    KeyOp op;
    op.key = it->second;
    const uint8_t flags = p.tcp().flags;
    if (flags & gallium::net::kTcpSyn) {
      op.kind = KeyOp::Kind::kUpsert;
    } else if (flags & (gallium::net::kTcpFin | gallium::net::kTcpRst)) {
      op.kind = KeyOp::Kind::kErase;
    } else {
      op.kind = KeyOp::Kind::kLookup;
    }
    w->key_ops.push_back(op);
  };
  for (const Packet& p : w->warmup) add(p);
  for (const auto& chunk : w->chunks) {
    for (const Packet& p : chunk) add(p);
  }
}

std::vector<uint64_t> FiveTupleKey(const Packet& p) {
  const FiveTuple ft = p.five_tuple();
  return {ft.saddr, ft.daddr, ft.sport, ft.dport, ft.protocol};
}

// MazuNAT with 32,768 established flows (half the one-address port pool)
// and minimum-size ACKs in both directions: every measured packet stays on
// the switch fast path.
Workload NatSteady(uint64_t seed) {
  constexpr int kFlows = 32768;
  constexpr size_t kPackets = 131072;
  constexpr size_t kPayload = 46;  // 54 B of headers + 46 B = 100 B on the wire
  Workload w;
  w.name = "nat-steady";
  w.build = [] { return gallium::mbox::BuildMazuNat(); };

  Rng rng(seed);
  std::vector<FiveTuple> flows;
  std::set<uint64_t> used;
  while (static_cast<int>(flows.size()) < kFlows) {
    const FiveTuple ft = gallium::workload::RandomFlow(rng);
    if (!used.insert((uint64_t{ft.saddr} << 16) | ft.sport).second) continue;
    flows.push_back(ft);
    Packet syn = gallium::net::MakeTcpPacket(ft, gallium::net::kTcpSyn, 0);
    syn.set_ingress_port(gallium::mbox::kPortInternal);
    w.warmup.push_back(std::move(syn));
  }
  // The NAT allocates external ports from 1024 upward in arrival order, so
  // flow f owns port 1024 + f; return traffic is addressed to it.
  std::vector<Packet> trace;
  for (size_t i = 0; i < kPackets; ++i) {
    const size_t f = rng.NextBounded(kFlows);
    const FiveTuple& ft = flows[f];
    Packet p;
    if (rng.NextBool(0.5)) {
      p = gallium::net::MakeTcpPacket(ft, gallium::net::kTcpAck, kPayload);
      p.set_ingress_port(gallium::mbox::kPortInternal);
    } else {
      FiveTuple back{ft.daddr, gallium::mbox::kNatExternalIp, ft.dport,
                     static_cast<uint16_t>(1024 + f), ft.protocol};
      p = gallium::net::MakeTcpPacket(back, gallium::net::kTcpAck, kPayload);
      p.set_ingress_port(gallium::mbox::kPortExternal);
    }
    trace.push_back(std::move(p));
  }
  SetTrace(&w, std::move(trace), 16384);
  // Fast-path ACKs write no state, so each trial replays the trace four
  // times and the cycle spends most of its time on measured packets rather
  // than on the 32,768-SYN warmup of a fresh engine.
  w.replays = 4;
  w.key_words = 2;
  w.value_words = 1;
  BuildKeyStream(&w, [](const Packet& p) -> std::vector<uint64_t> {
    if (p.ingress_port() != gallium::mbox::kPortInternal) return {};
    return {p.ip().saddr, p.tcp().sport};
  });
  return w;
}

// L4 load balancer under connection churn: short enterprise flows sent
// SYN -> data -> FIN, a tenth abandoned without FIN, and budgeted
// CollectIdleFlows ticks between Run chunks reclaiming them.
Workload LbChurn(uint64_t seed) {
  constexpr size_t kPackets = 65536;
  constexpr size_t kSlots = 512;
  constexpr uint64_t kShortFlowCap = 4 * kMss;
  constexpr double kAbandon = 0.1;
  Workload w;
  w.name = "lb-churn";
  w.build = [] { return gallium::mbox::BuildLoadBalancer(); };
  w.aging = true;
  w.flows_map = "flows";
  w.created_map = "flow_created";
  // Flows live at most a few thousand packets (one packet = 1 ms), so a
  // creation age of 16,384 ms only ever expires abandoned flows; a scan
  // budget of 4,096 slots per tick covers the whole aging table per chunk.
  w.timeout_ms = 16384;
  w.sweep_budget = 4096;

  Rng rng(seed);
  const std::function<Session()> flow = [&] {
    FlowDesc f;
    f.ft = gallium::workload::RandomFlow(rng);
    f.bytes = DrawBytes(rng, kShortFlowCap);
    f.fin = !rng.NextBool(kAbandon);
    return Session({f});
  };
  auto trace = Interleave(rng, kSlots, kPackets, flow, flow);
  SetTrace(&w, std::move(trace), 4096);
  w.key_words = 5;
  w.value_words = 1;
  BuildKeyStream(&w, FiveTupleKey);
  return w;
}

// Trojan detector over enterprise flows at full MSS. A fixed share of
// sessions come from a host that opens SSH first, then fetches a file over
// HTTP and then speaks IRC, so its data takes the server DPI path and its
// IRC segments are dropped; every other data packet stays on the switch.
Workload TrojanMixed(uint64_t seed) {
  constexpr size_t kPackets = 65536;
  constexpr size_t kSlots = 512;
  constexpr double kSuspicious = 0.05;
  constexpr uint64_t kFlowCap = 50'000'000;
  Workload w;
  w.name = "trojan-mixed";
  w.build = [] { return gallium::mbox::BuildTrojanDetector(); };

  Rng rng(seed);
  // Slots start inside a connection drawn with probability proportional to
  // its size (out of 64 candidates), so the window begins in steady state
  // instead of with every slot opening a connection at once.
  const std::function<Session()> first = [&] {
    uint64_t sizes[64];
    uint64_t total = 0;
    for (uint64_t& s : sizes) total += (s = DrawBytes(rng, kFlowCap));
    uint64_t pick = rng.NextBounded(total);
    size_t i = 0;
    while (pick >= sizes[i]) pick -= sizes[i++];
    FlowDesc f;
    f.ft = gallium::workload::RandomFlow(rng);
    f.ft.dport = rng.NextBool(0.5) ? 80 : 443;
    f.bytes = sizes[i];
    return Session({f}, pick / kMss * kMss);
  };
  auto trace = Interleave(rng, kSlots, kPackets, first, [&] {
    FlowDesc f;
    f.ft = gallium::workload::RandomFlow(rng);
    if (!rng.NextBool(kSuspicious)) {
      f.ft.dport = rng.NextBool(0.5) ? 80 : 443;
      f.bytes = DrawBytes(rng, kFlowCap);
      return Session({f});
    }
    FlowDesc ssh = f, http = f, irc = f;
    ssh.ft.dport = 22;
    ssh.bytes = DrawBytes(rng, 4 * kMss);
    http.ft.sport = static_cast<uint16_t>(f.ft.sport + 1);
    http.ft.dport = 80;
    http.bytes = DrawBytes(rng, 8 * kMss);
    http.marker = gallium::mbox::kPatternHttpGet;
    irc.ft.sport = static_cast<uint16_t>(f.ft.sport + 2);
    irc.ft.dport = 6667;
    irc.bytes = DrawBytes(rng, 4 * kMss);
    irc.marker = gallium::mbox::kPatternIrc;
    return Session({ssh, http, irc});
  });
  SetTrace(&w, std::move(trace), 16384);
  w.key_words = 5;
  w.value_words = 1;
  BuildKeyStream(&w, FiveTupleKey);
  return w;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "nat-steady" || name == "lb-churn" || name == "trojan-mixed";
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "nat-steady") return NatSteady(seed);
  if (name == "lb-churn") return LbChurn(seed);
  return TrojanMixed(seed);
}

}  // namespace perfbench
