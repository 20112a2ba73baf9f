// A Global-Arrays-style baseline library.
//
// The paper compares ACES III against NWChem, whose data architecture is
// the Global Array toolkit: "an abstraction of global, shared,
// multidimensional arrays [where] programmers use put and get routines to
// copy arbitrary rectangular sections of arrays between the shared array
// and local memory" (§VII). This module reproduces that programming model
// so the comparison benchmarks have a real comparator:
//   * arrays are partitioned in rigid contiguous slabs along the first
//     dimension ("requires a very rigorous organization of the data
//     blocks", §VI-C) fixed at creation time;
//   * get/put/acc move arbitrary rectangular sections; the blocking
//     variants stall the caller, the nb variants return a handle the
//     caller must wait on — overlap is the *programmer's* job, which is
//     precisely the contrast the paper draws with SIAL;
//   * access to remote slabs is one-sided (models ARMCI RMA).
//
// Differences from SIA worth noting in benchmarks: no runtime-managed
// prefetch, no block cache, element-indexed programming.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace sia::ga {

struct GaStats {
  std::int64_t gets = 0;
  std::int64_t puts = 0;
  std::int64_t accs = 0;
  std::int64_t remote_elements = 0;  // elements moved to/from remote slabs
  std::int64_t local_elements = 0;
};

class GlobalArray {
 public:
  // Collective creation: every rank constructs with identical arguments.
  // The array is partitioned into `ranks` contiguous slabs along
  // dimension 0.
  GlobalArray(int ranks, std::span<const long> dims);

  int rank_count() const { return ranks_; }
  int ndim() const { return static_cast<int>(dims_.size()); }
  long dim(int d) const { return dims_[static_cast<std::size_t>(d)]; }

  // Slab of rows [lo, hi] (inclusive, 0-based) owned by `rank`; hi < lo
  // for ranks beyond the distribution.
  void distribution(int rank, long* lo, long* hi) const;
  int owner_of_row(long row) const;

  // Copies the rectangular section [lo, hi] (inclusive, 0-based) into
  // `buf` (row-major, packed). Blocking.
  void get(int rank, std::span<const long> lo, std::span<const long> hi,
           double* buf);
  void put(int rank, std::span<const long> lo, std::span<const long> hi,
           const double* buf);
  // Atomic accumulate: section += alpha * buf.
  void acc(int rank, std::span<const long> lo, std::span<const long> hi,
           const double* buf, double alpha);

  // Non-blocking variants (model nga_nbget / nga_nbwait): the transfer is
  // performed eagerly, the handle exists so calling code exercises the
  // same call structure as real GA.
  struct NbHandle {
    bool done = false;
  };
  NbHandle nbget(int rank, std::span<const long> lo,
                 std::span<const long> hi, double* buf);
  void nbwait(NbHandle& handle);

  // Fills every element (collective convenience; call from one rank).
  void fill(double value);

  GaStats stats(int rank) const;

  // Bytes resident on `rank` for this array.
  std::size_t local_bytes(int rank) const;

 private:
  struct Slab {
    long row_lo = 0, row_hi = -1;
    std::vector<double> data;  // (rows x trailing) row-major
    mutable std::mutex mutex;
    GaStats stats;
  };

  std::size_t trailing_elements() const { return trailing_; }
  // Visits the intersection of [lo,hi] with each owning slab.
  template <typename Fn>
  void for_each_slab_section(std::span<const long> lo,
                             std::span<const long> hi, Fn&& fn);

  int ranks_;
  std::vector<long> dims_;
  std::size_t trailing_ = 1;  // product of dims[1..]
  std::vector<std::unique_ptr<Slab>> slabs_;
};

// Rank team: runs `fn(rank)` on `ranks` threads with a shared barrier,
// standing in for the GA process group.
class GaTeam {
 public:
  explicit GaTeam(int ranks) : ranks_(ranks) {}
  int ranks() const { return ranks_; }

  // Executes fn on every rank concurrently; rethrows the first exception.
  void parallel(const std::function<void(int)>& fn);

  // Barrier usable from inside `fn` (GA_Sync).
  void sync();

 private:
  int ranks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int waiting_ = 0;
  int generation_ = 0;
};

}  // namespace sia::ga
