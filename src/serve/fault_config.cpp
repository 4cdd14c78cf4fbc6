#include "serve/fault_config.h"

#include <fstream>
#include <sstream>

#include "common/json_reader.h"

namespace pq::serve {

namespace {

bool assign(const std::string& key, double v, faults::FaultPlanConfig& cfg) {
  auto u32 = [&v] { return static_cast<std::uint32_t>(v); };
  if (key == "seed") cfg.seed = static_cast<std::uint64_t>(v);
  else if (key == "torn_reads.probability") cfg.torn_reads.probability = v;
  else if (key == "torn_reads.cells_scrambled")
    cfg.torn_reads.cells_scrambled = u32();
  else if (key == "torn_writes.probability") cfg.torn_writes.probability = v;
  else if (key == "torn_writes.corrupt_tail_probability")
    cfg.torn_writes.corrupt_tail_probability = v;
  else if (key == "request_channel.drop_rate")
    cfg.request_channel.drop_rate = v;
  else if (key == "request_channel.duplicate_rate")
    cfg.request_channel.duplicate_rate = v;
  else if (key == "request_channel.reorder_rate")
    cfg.request_channel.reorder_rate = v;
  else if (key == "request_channel.corrupt_rate")
    cfg.request_channel.corrupt_rate = v;
  else if (key == "response_channel.drop_rate")
    cfg.response_channel.drop_rate = v;
  else if (key == "response_channel.duplicate_rate")
    cfg.response_channel.duplicate_rate = v;
  else if (key == "response_channel.reorder_rate")
    cfg.response_channel.reorder_rate = v;
  else if (key == "response_channel.corrupt_rate")
    cfg.response_channel.corrupt_rate = v;
  else if (key == "trigger_storm.probability")
    cfg.trigger_storm.probability = v;
  else if (key == "trigger_storm.forced_depth_cells")
    cfg.trigger_storm.forced_depth_cells = u32();
  else if (key == "clock_skew.max_abs_skew_ns")
    cfg.clock_skew.max_abs_skew_ns = static_cast<Duration>(v);
  else if (key == "feed_channel.truncate_rate")
    cfg.feed_channel.truncate_rate = v;
  else if (key == "feed_channel.corrupt_rate")
    cfg.feed_channel.corrupt_rate = v;
  else if (key == "feed_channel.garbage_rate")
    cfg.feed_channel.garbage_rate = v;
  else if (key == "feed_channel.stall_rate") cfg.feed_channel.stall_rate = v;
  else if (key == "feed_channel.stall_quanta")
    cfg.feed_channel.stall_quanta = u32();
  else if (key == "feed_channel.quantum_bytes")
    cfg.feed_channel.quantum_bytes = u32();
  else
    return false;
  return true;
}

}  // namespace

bool parse_fault_config(const std::string& text, faults::FaultPlanConfig& out,
                        std::string& error) {
  JsonCursor c(text);
  if (!c.eat('{')) {
    error = "fault config: expected '{'";
    return false;
  }
  if (c.eat('}')) {
    if (!c.done()) {
      error = "fault config: trailing bytes after '}'";
      return false;
    }
    return true;
  }
  for (;;) {
    std::string key;
    if (!c.string(key)) {
      error = "fault config: expected a string key";
      return false;
    }
    if (!c.eat(':')) {
      error = "fault config: expected ':' after \"" + key + "\"";
      return false;
    }
    double value = 0.0;
    if (!c.number(value)) {
      error = "fault config: expected a number for \"" + key + "\"";
      return false;
    }
    if (!assign(key, value, out)) {
      error = "fault config: unknown key \"" + key + "\"";
      return false;
    }
    if (c.eat(',')) continue;
    if (c.eat('}')) break;
    error = "fault config: expected ',' or '}'";
    return false;
  }
  if (!c.done()) {
    error = "fault config: trailing bytes after '}'";
    return false;
  }
  return true;
}

bool load_fault_config(const std::string& path, faults::FaultPlanConfig& out,
                       std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "fault config: cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_fault_config(buf.str(), out, error);
}

}  // namespace pq::serve
