#include "common/config.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace sia {

namespace {

// Splits "a=1,b=2" into {"a=1","b=2"}; empty tokens are rejected later.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

// Parses "X@msg:N" / "X@op:N" suffixes: returns {head, N} where N defaults
// to `default_at` when no @-suffix is present.
std::pair<std::string, long> parse_at(const std::string& key,
                                      const std::string& value,
                                      const std::string& marker,
                                      long default_at) {
  const std::size_t at = value.find('@');
  if (at == std::string::npos) return {value, default_at};
  const std::string suffix = value.substr(at + 1);
  if (suffix.rfind(marker, 0) != 0) {
    throw Error("FaultPlan: '" + key + "' expects '@" + marker +
                "N' suffix, got '" + value + "'");
  }
  long n = 0;
  fields::parse_value(n, key, suffix.substr(marker.size()));
  return {value.substr(0, at), n};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  for (const std::string& token : split(text, ',')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("FaultPlan: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kill_rank") {
      auto [rank, at] = parse_at(key, value, "msg:", 1);
      fields::parse_value(plan.kill_rank, key, rank);
      plan.kill_at_msg = at;
    } else if (key == "disk") {
      auto [kind, at] = parse_at(key, value, "op:", 1);
      if (kind == "eio") {
        plan.disk_fault = 1;
      } else if (kind == "enospc") {
        plan.disk_fault = 2;
      } else if (kind == "short") {
        plan.disk_fault = 3;
      } else {
        throw Error("FaultPlan: unknown disk fault '" + kind +
                    "' (want eio|enospc|short)");
      }
      plan.disk_fault_at_op = at;
    } else if (!fields::parse(plan, key, value)) {
      throw Error("FaultPlan: unknown key '" + key + "'");
    }
  }
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* text = std::getenv("SIA_FAULT_PLAN");
  if (text == nullptr) return FaultPlan{};
  return parse(text);
}

void FaultPlan::validate() const {
  fields::check(*this, "FaultPlan");
  if (kill_rank >= 0 && kill_at_msg < 1) {
    throw Error("FaultPlan: kill_rank needs @msg:N with N >= 1");
  }
  if (disk_fault != 0 && disk_fault_at_op < 1) {
    throw Error("FaultPlan: disk fault needs @op:N with N >= 1");
  }
}

void SipConfig::validate() const {
  fields::check(*this, "SipConfig");
  fault_plan.validate();
  if (transport != "thread" && transport != "loopback" &&
      transport != "spawn") {
    throw Error("SipConfig: transport must be thread, loopback, or spawn, "
                "got '" + transport + "'");
  }
  if (fault_plan.kill_rank >= total_ranks()) {
    throw Error("FaultPlan: kill_rank out of range for this launch");
  }
  if (fault_plan.kill_rank == master_rank()) {
    throw Error("FaultPlan: cannot kill the master rank");
  }
}

int SipConfig::segment_for(const std::string& index_type) const {
  auto it = segment_overrides.find(index_type);
  return it == segment_overrides.end() ? default_segment : it->second;
}

}  // namespace sia
