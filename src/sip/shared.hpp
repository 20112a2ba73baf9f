// State shared by all ranks of one SIP launch.
//
// Every rank (master, workers, I/O servers) holds a reference to this
// structure: the resolved program, the message fabric, and the abort
// channel. Apart from the abort flag and error slot (mutex protected),
// everything here is immutable during the run — ranks communicate only
// through the fabric, as the paper's processes do through MPI.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "block/block_id.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "msg/chaos.hpp"
#include "msg/fabric.hpp"
#include "sial/program.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

// Thrown inside a rank when another rank aborted the run; carries no
// information because the first error wins.
class Aborted : public Error {
 public:
  Aborted() : Error("aborted") {}
};

struct SipShared {
  SipShared() = default;
  // Everything a launch shares except the fabric, which the launch
  // attaches once it exists: program, config, the launch's scratch
  // directory, the dry run's pool plan, rank status, the screened-kernel
  // baseline and the disk-fault injector the plan asks for.
  SipShared(const sial::ResolvedProgram& resolved, const SipConfig& launch,
            std::string scratch, std::map<std::size_t, std::size_t> pool)
      : program(&resolved),
        config(launch),
        scratch_dir(std::move(scratch)),
        pool_plan(std::move(pool)) {
    if (config.fault_plan.disk_fault != 0) {
      disk_injector = std::make_unique<msg::DiskFaultInjector>(config.fault_plan);
    }
    init_rank_status(config.total_ranks());
    kernels_screened_start = kernels_screened_count();
  }

  const sial::ResolvedProgram* program = nullptr;
  msg::Fabric* fabric = nullptr;
  SipConfig config;
  std::string scratch_dir;
  // Block pool size classes from the dry run: capacity (doubles) -> slots.
  std::map<std::size_t, std::size_t> pool_plan;

  std::atomic<bool> abort_flag{false};
  std::mutex error_mutex;
  std::string first_error;

  // ---- Fault tolerance (PR 4) ----

  // Shared disk-fault injector (null when no disk fault is planned);
  // every DiskStore on every server increments the same operation counter
  // so `disk=eio@op:N` names one global operation.
  std::unique_ptr<msg::DiskFaultInjector> disk_injector;

  // Installed by the launch whenever fault tolerance is on: retires the
  // dead server rank's thread or process, revives the rank, and starts it
  // again the way it started the first time; the fresh IoServer rebuilds
  // from its durable files. Called from the master's watchdog. Returns
  // false if the rank cannot be recovered.
  std::function<bool(int rank)> respawn_server;

  // What each rank is blocked on, for the watchdog's diagnosed abort:
  // -1 = running, otherwise a sip::WaitKind value. Sized by the launch.
  std::unique_ptr<std::atomic<int>[]> rank_status;
  int rank_status_size = 0;

  void init_rank_status(int ranks) {
    rank_status = std::make_unique<std::atomic<int>[]>(
        static_cast<std::size_t>(ranks));
    rank_status_size = ranks;
    for (int r = 0; r < ranks; ++r) rank_status[r].store(-1);
  }
  void set_rank_status(int rank, int status) {
    if (rank >= 0 && rank < rank_status_size) {
      rank_status[rank].store(status, std::memory_order_relaxed);
    }
  }
  int get_rank_status(int rank) const {
    if (rank < 0 || rank >= rank_status_size) return -1;
    return rank_status[rank].load(std::memory_order_relaxed);
  }

  // The process-global screened-kernel counter at launch; the run's
  // rank report carries the difference.
  std::uint64_t kernels_screened_start = 0;

  // Records the first error and wakes every blocked rank.
  void raise_abort(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error.empty()) first_error = what;
    }
    abort_flag.store(true, std::memory_order_release);
    fabric->stop();
  }

  // The first error raised, or empty.
  std::string error() {
    std::lock_guard<std::mutex> lock(error_mutex);
    return first_error;
  }

  void check_abort() const {
    if (abort_flag.load(std::memory_order_acquire)) throw Aborted();
  }

  // Rank layout: 0 = master, 1..workers = workers, then I/O servers.
  int master_rank() const { return 0; }
  int worker_rank(int worker_index) const { return 1 + worker_index; }
  int num_workers() const { return config.workers; }
  int num_servers() const { return config.io_servers; }
  bool is_worker(int rank) const {
    return rank >= 1 && rank <= config.workers;
  }
  bool is_server(int rank) const { return rank > config.workers; }

  // Home worker rank of a distributed array block: "blocks of a
  // distributed array are assigned to workers using a simple, static
  // strategy" (paper §V-B).
  int owner_rank(const BlockId& id) const {
    return 1 + static_cast<int>(id.hash() % static_cast<std::uint64_t>(
                                                config.workers));
  }

  // I/O server rank responsible for a served array block.
  int server_rank(const BlockId& id) const {
    if (config.io_servers == 0) {
      throw RuntimeError("program uses served arrays but io_servers == 0");
    }
    return 1 + config.workers +
           static_cast<int>(id.hash() % static_cast<std::uint64_t>(
                                            config.io_servers));
  }
};

}  // namespace sia::sip
