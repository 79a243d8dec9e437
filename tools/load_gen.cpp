// load_gen: drives N concurrent Zipf tenant streams at a pfp_server and
// reports client-observed batch latency (p50/p99) and throughput.
//
//   load_gen --port 7411 --tenants 4 --policies tree-next-limit,markov
//            --ops 20000 --batch 256 --json BENCH_08.json
//
// Each tenant is one worker thread with its own connection, policy
// (cycled from --policies), Zipf block stream (deterministic from
// --seed) and latency record.  With --verify-replay the exact same
// stream is replayed through an in-process engine::Tenant afterwards
// and the server's STATS reply must match the local metrics bit for bit
// — the server-integration CI leg fails on any drift.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/tenant_registry.hpp"
#include "server/session.hpp"
#include "server/wire.hpp"
#include "util/binary_io.hpp"
#include "util/net.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace {

namespace wire = pfp::server::wire;
namespace net = pfp::util::net;

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

struct Reply {
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Blocking request/reply client over one connection.
class Client {
 public:
  explicit Client(std::uint16_t port) : sock_(net::connect_tcp(port)) {}

  /// Sends one frame and blocks for its reply; throws std::runtime_error
  /// on transport failure or a reply that fails to frame.
  Reply call(wire::MsgType type, std::uint16_t tenant,
             std::span<const std::uint8_t> payload) {
    frame_.clear();
    wire::FrameHeader header;
    header.type = type;
    header.tenant = tenant;
    header.serial = serial_++;
    wire::append_frame(frame_, header, payload);
    if (!net::write_all(sock_, frame_)) {
      throw std::runtime_error("load_gen: send failed");
    }

    std::array<std::uint8_t, wire::kHeaderSize> head;
    if (!net::read_exact(sock_, head)) {
      throw std::runtime_error("load_gen: connection closed mid-reply");
    }
    // payload_len sits at header offset 8 (docs/server.md frame layout).
    const auto len = pfp::util::load_le<std::uint32_t>(head.data() + 8);
    std::vector<std::uint8_t> whole(head.begin(), head.end());
    whole.resize(wire::kHeaderSize + len);
    if (len > 0 &&
        !net::read_exact(sock_, std::span<std::uint8_t>(whole).subspan(
                                    wire::kHeaderSize))) {
      throw std::runtime_error("load_gen: connection closed mid-payload");
    }
    const wire::DecodeResult decoded = wire::decode(whole);
    if (decoded.status != wire::DecodeStatus::kFrame) {
      throw std::runtime_error("load_gen: server reply failed to frame");
    }
    Reply reply;
    reply.header = decoded.frame.header;
    reply.payload.assign(decoded.frame.payload.begin(),
                         decoded.frame.payload.end());
    return reply;
  }

 private:
  net::Socket sock_;
  std::uint32_t serial_ = 1;
  std::vector<std::uint8_t> frame_;
};

[[noreturn]] void die_on_error(const Reply& reply, const std::string& what) {
  std::string detail = "(unparseable error payload)";
  if (const auto parsed = wire::parse_error(reply.payload)) {
    detail = std::string(wire::error_name(parsed->code)) + ": " +
             parsed->detail;
  }
  throw std::runtime_error("load_gen: " + what + " failed: " + detail);
}

struct TenantRun {
  std::uint16_t id = 0;
  std::string policy;
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  std::uint64_t backpressure_replies = 0;
  std::uint64_t served_demand_hits = 0;
  std::uint64_t served_prefetch_hits = 0;
  std::uint64_t served_misses = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  wire::WireMetrics served;   ///< STATS reply at end of stream
  bool verified = false;      ///< replay comparison ran
  bool verify_ok = false;     ///< ... and matched bit for bit
};

double percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = q * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

struct StreamConfig {
  std::uint64_t ops = 20000;
  std::uint64_t batch = 256;
  std::uint64_t blocks = 65536;
  double skew = 0.9;
  std::uint64_t seed = 42;
  std::uint64_t cache_blocks = 1024;
  std::uint32_t shards = 0;
};

/// The deterministic block stream for one tenant; the driver and the
/// verify-replay both call this so they can never diverge.
std::vector<pfp::trace::BlockId> tenant_stream(const StreamConfig& config,
                                               std::uint16_t tenant_id) {
  pfp::util::SplitMix64 mix(config.seed + tenant_id);
  pfp::util::Xoshiro256 rng(mix.next());
  const pfp::util::ZipfSampler zipf(config.blocks, config.skew);
  std::vector<pfp::trace::BlockId> stream;
  stream.reserve(config.ops);
  for (std::uint64_t i = 0; i < config.ops; ++i) {
    stream.push_back(zipf(rng));
  }
  return stream;
}

TenantRun drive_tenant(std::uint16_t port, std::uint16_t tenant_id,
                       const std::string& policy,
                       const StreamConfig& config, bool verify,
                       bool keep_open) {
  TenantRun run;
  run.id = tenant_id;
  run.policy = policy;

  Client client(port);
  std::vector<std::uint8_t> payload;
  wire::TenantOpenRequest open;
  open.name = "t";
  open.name += std::to_string(tenant_id);
  open.policy = policy;
  open.cache_blocks = config.cache_blocks;
  open.shards = config.shards;
  wire::encode_tenant_open(payload, open);
  Reply reply = client.call(wire::MsgType::kTenantOpen, tenant_id, payload);
  if (reply.header.type != wire::MsgType::kTenantOpenReply) {
    die_on_error(reply, "TENANT_OPEN");
  }

  const std::vector<pfp::trace::BlockId> stream =
      tenant_stream(config, tenant_id);
  std::vector<double> batch_ms;
  batch_ms.reserve(config.ops / std::max<std::uint64_t>(1, config.batch) +
                   1);
  for (std::size_t at = 0; at < stream.size();
       at += static_cast<std::size_t>(config.batch)) {
    const std::size_t n = std::min(static_cast<std::size_t>(config.batch),
                                   stream.size() - at);
    payload.clear();
    wire::put_u32(payload, static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      wire::put_u64(payload, stream[at + i]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    reply = client.call(wire::MsgType::kAccessMany, tenant_id, payload);
    const auto t1 = std::chrono::steady_clock::now();
    if (reply.header.type != wire::MsgType::kAccessManyReply) {
      die_on_error(reply, "ACCESS_MANY");
    }
    batch_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if ((reply.header.flags & wire::kFlagBackpressure) != 0) {
      ++run.backpressure_replies;
    }
    if (const auto batch = wire::parse_batch_reply(reply.payload)) {
      run.served_demand_hits += batch->demand_hits;
      run.served_prefetch_hits += batch->prefetch_hits;
      run.served_misses += batch->misses;
    }
    run.ops += n;
    ++run.batches;
  }
  run.p50_ms = percentile(batch_ms, 0.50);
  run.p99_ms = percentile(batch_ms, 0.99);

  reply = client.call(wire::MsgType::kStats, tenant_id, {});
  if (reply.header.type != wire::MsgType::kStatsReply) {
    die_on_error(reply, "STATS");
  }
  const auto served = wire::parse_metrics(reply.payload);
  if (!served.has_value()) {
    throw std::runtime_error("load_gen: STATS reply failed to parse");
  }
  run.served = *served;

  if (!keep_open) {
    reply = client.call(wire::MsgType::kTenantClose, tenant_id, {});
    if (reply.header.type != wire::MsgType::kTenantCloseReply) {
      die_on_error(reply, "TENANT_CLOSE");
    }
  }

  if (verify) {
    // Replay the identical stream through an in-process tenant built
    // from the same config, then compare the server's projection.
    pfp::engine::TenantConfig local_config;
    local_config.name = open.name;
    local_config.engine.cache_blocks =
        static_cast<std::size_t>(config.cache_blocks);
    local_config.shards = config.shards;
    std::string detail;
    if (pfp::engine::set_policy_by_name(local_config, policy, &detail) !=
        pfp::engine::TenantStatus::kOk) {
      throw std::runtime_error("load_gen: replay config: " + detail);
    }
    pfp::engine::Tenant local(std::move(local_config));
    pfp::engine::Metrics local_metrics;
    {
      pfp::util::MutexLock lock(local.mu());
      for (std::size_t at = 0; at < stream.size();
           at += static_cast<std::size_t>(config.batch)) {
        const std::size_t n = std::min(
            static_cast<std::size_t>(config.batch), stream.size() - at);
        (void)local.access_many(
            std::span<const pfp::trace::BlockId>(stream).subspan(at, n));
      }
      local_metrics = local.metrics();
    }
    run.verified = true;
    run.verify_ok =
        pfp::server::to_wire_metrics(local_metrics) == run.served;
  }
  return run;
}

void write_json(std::ostream& out, const StreamConfig& config,
                const std::vector<TenantRun>& runs, double seconds) {
  std::uint64_t total_ops = 0;
  std::vector<double> p99s;
  for (const TenantRun& run : runs) {
    total_ops += run.ops;
    p99s.push_back(run.p99_ms);
  }
  const double worst_p99 =
      p99s.empty() ? 0.0 : *std::max_element(p99s.begin(), p99s.end());
  out.precision(9);
  out << "{\n"
      << "  \"bench\": \"server_load\",\n"
      << "  \"config\": {\"tenants\": " << runs.size()
      << ", \"ops_per_tenant\": " << config.ops
      << ", \"batch\": " << config.batch
      << ", \"blocks\": " << config.blocks << ", \"skew\": " << config.skew
      << ", \"seed\": " << config.seed
      << ", \"cache_blocks\": " << config.cache_blocks
      << ", \"shards\": " << config.shards << "},\n"
      << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TenantRun& run = runs[i];
    out << "    {\"id\": " << run.id << ", \"policy\": \"" << run.policy
        << "\", \"ops\": " << run.ops << ", \"batches\": " << run.batches
        << ", \"p50_ms\": " << run.p50_ms << ", \"p99_ms\": " << run.p99_ms
        << ", \"backpressure_replies\": " << run.backpressure_replies
        << ", \"served_accesses\": " << run.served.accesses
        << ", \"verify\": \""
        << (run.verified ? (run.verify_ok ? "ok" : "MISMATCH") : "skipped")
        << "\"}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"total\": {\"ops\": " << total_ops
      << ", \"seconds\": " << seconds << ", \"ops_per_sec\": "
      << (seconds > 0.0 ? static_cast<double>(total_ops) / seconds : 0.0)
      << ", \"worst_p99_ms\": " << worst_p99 << "}\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  pfp::util::Options options;
  options.add("port", "0", "pfp_server port (required)");
  options.add("tenants", "4", "concurrent tenant streams");
  options.add("policies", "tree-next-limit,markov",
              "comma-separated policy kinds, cycled across tenants");
  options.add("ops", "20000", "accesses per tenant");
  options.add("batch", "256", "blocks per ACCESS_MANY frame");
  options.add("blocks", "65536", "block-id space per tenant");
  options.add("skew", "0.9", "Zipf skew of each stream");
  options.add("seed", "42", "stream seed (tenant id is mixed in)");
  options.add("cache-blocks", "1024", "per-tenant cache capacity");
  options.add("shards", "0", "per-tenant shard count (0 = plain engine)");
  options.add("json", "", "write the result record here (BENCH_08 format)");
  options.add_flag("verify-replay",
                   "replay each stream in-process and require bit-equal "
                   "metrics");
  options.add_flag("keep-open",
                   "skip TENANT_CLOSE so a follow-up /metrics scrape still "
                   "sees the tenants");
  if (!options.parse(argc, argv)) {
    return 2;
  }
  const std::uint16_t port = static_cast<std::uint16_t>(options.u64("port"));
  if (port == 0) {
    std::cerr << "load_gen: --port is required" << std::endl;
    return 2;
  }
  const std::uint64_t tenants = std::max<std::uint64_t>(
      std::uint64_t{1}, options.u64("tenants"));
  const std::vector<std::string> policies =
      split_csv(options.str("policies"));
  if (policies.empty()) {
    std::cerr << "load_gen: --policies must name at least one kind"
              << std::endl;
    return 2;
  }
  StreamConfig config;
  config.ops = options.u64("ops");
  config.batch = std::max<std::uint64_t>(std::uint64_t{1},
                                         options.u64("batch"));
  config.blocks = std::max<std::uint64_t>(std::uint64_t{1},
                                          options.u64("blocks"));
  config.skew = options.real("skew");
  config.seed = options.u64("seed");
  config.cache_blocks = options.u64("cache-blocks");
  config.shards = static_cast<std::uint32_t>(options.u64("shards"));
  const bool verify = options.flag("verify-replay");
  const bool keep_open = options.flag("keep-open");

  try {
    pfp::util::ThreadPool pool(static_cast<std::size_t>(tenants));
    std::vector<std::future<TenantRun>> futures;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t t = 0; t < tenants; ++t) {
      const std::uint16_t id = static_cast<std::uint16_t>(t + 1);
      const std::string policy = policies[t % policies.size()];
      futures.push_back(
          pool.submit([port, id, policy, config, verify, keep_open] {
            return drive_tenant(port, id, policy, config, verify, keep_open);
          }));
    }
    std::vector<TenantRun> runs;
    for (std::future<TenantRun>& future : futures) {
      runs.push_back(future.get());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();

    bool failed = false;
    std::uint64_t total_ops = 0;
    for (const TenantRun& run : runs) {
      total_ops += run.ops;
      std::cout << "tenant " << run.id << " policy=" << run.policy
                << " ops=" << run.ops << " p50=" << run.p50_ms
                << "ms p99=" << run.p99_ms << "ms"
                << " backpressure=" << run.backpressure_replies;
      if (run.verified) {
        std::cout << " verify=" << (run.verify_ok ? "ok" : "MISMATCH");
        failed = failed || !run.verify_ok;
      }
      std::cout << "\n";
    }
    std::cout << "total ops=" << total_ops << " seconds=" << seconds
              << " ops/s="
              << (seconds > 0.0 ? static_cast<double>(total_ops) / seconds
                                : 0.0)
              << std::endl;

    const std::string json_path = options.str("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      write_json(out, config, runs, seconds);
    }
    return failed ? 1 : 0;
  } catch (const std::exception& err) {
    std::cerr << err.what() << std::endl;
    return 1;
  }
}
