#include "ga/ga.hpp"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "common/error.hpp"

namespace sia::ga {

GlobalArray::GlobalArray(int ranks, std::span<const long> dims)
    : ranks_(ranks), dims_(dims.begin(), dims.end()) {
  SIA_CHECK(ranks >= 1, "GlobalArray: need at least one rank");
  SIA_CHECK(!dims_.empty(), "GlobalArray: need at least one dimension");
  for (const long d : dims_) {
    SIA_CHECK(d >= 1, "GlobalArray: bad extent");
  }
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    trailing_ *= static_cast<std::size_t>(dims_[d]);
  }

  // Rigid slab distribution along dimension 0 (fixed at creation; this is
  // the "very rigorous organization" of GA-style codes).
  const long rows = dims_[0];
  const long base = rows / ranks;
  const long extra = rows % ranks;
  long next = 0;
  slabs_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto slab = std::make_unique<Slab>();
    const long count = base + (r < extra ? 1 : 0);
    slab->row_lo = next;
    slab->row_hi = next + count - 1;
    next += count;
    slab->data.assign(static_cast<std::size_t>(count) * trailing_, 0.0);
    slabs_.push_back(std::move(slab));
  }
}

void GlobalArray::distribution(int rank, long* lo, long* hi) const {
  const Slab& slab = *slabs_[static_cast<std::size_t>(rank)];
  *lo = slab.row_lo;
  *hi = slab.row_hi;
}

int GlobalArray::owner_of_row(long row) const {
  for (int r = 0; r < ranks_; ++r) {
    const Slab& slab = *slabs_[static_cast<std::size_t>(r)];
    if (row >= slab.row_lo && row <= slab.row_hi) return r;
  }
  throw Error("GlobalArray: row out of range");
}

template <typename Fn>
void GlobalArray::for_each_slab_section(std::span<const long> lo,
                                        std::span<const long> hi, Fn&& fn) {
  SIA_CHECK(lo.size() == dims_.size() && hi.size() == dims_.size(),
            "GlobalArray: section rank mismatch");
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (lo[d] < 0 || hi[d] >= dims_[d] || hi[d] < lo[d]) {
      throw Error("GlobalArray: bad section bounds");
    }
  }
  for (int r = 0; r < ranks_; ++r) {
    Slab& slab = *slabs_[static_cast<std::size_t>(r)];
    const long row_lo = std::max(lo[0], slab.row_lo);
    const long row_hi = std::min(hi[0], slab.row_hi);
    if (row_lo > row_hi) continue;
    fn(r, slab, row_lo, row_hi);
  }
}

namespace {

// Iterates the trailing (non-slab) dimensions of a section, producing the
// flat offset within a row and the packed offset within the user buffer
// row. `dims`/`lo`/`hi` exclude dimension 0.
template <typename Fn>
void for_each_trailing(std::span<const long> dims, std::span<const long> lo,
                       std::span<const long> hi, Fn&& fn) {
  const std::size_t nd = dims.size();
  if (nd == 0) {
    fn(0, 0, 1);
    return;
  }
  // Innermost run is contiguous in both source and destination.
  std::vector<long> counter(lo.begin(), lo.end());
  const long inner_lo = lo[nd - 1];
  const long inner_len = hi[nd - 1] - inner_lo + 1;

  std::size_t packed = 0;
  while (true) {
    // Flat offset of (counter..., inner_lo) within one row.
    std::size_t flat = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      flat = flat * static_cast<std::size_t>(dims[d]) +
             static_cast<std::size_t>(d + 1 == nd ? inner_lo : counter[d]);
    }
    fn(flat, packed, static_cast<std::size_t>(inner_len));
    packed += static_cast<std::size_t>(inner_len);

    // Advance the outer counters (everything but the innermost).
    int d = static_cast<int>(nd) - 2;
    for (; d >= 0; --d) {
      if (++counter[static_cast<std::size_t>(d)] <=
          hi[static_cast<std::size_t>(d)]) {
        break;
      }
      counter[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];
    }
    if (d < 0) break;
  }
}

}  // namespace

void GlobalArray::get(int rank, std::span<const long> lo,
                      std::span<const long> hi, double* buf) {
  // Packed row length of the section (product of trailing extents).
  std::size_t section_row = 1;
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    section_row *= static_cast<std::size_t>(hi[d] - lo[d] + 1);
  }
  std::int64_t local = 0, remote = 0;
  for_each_slab_section(lo, hi, [&](int owner, Slab& slab, long row_lo,
                                    long row_hi) {
    std::lock_guard<std::mutex> lock(slab.mutex);
    for (long row = row_lo; row <= row_hi; ++row) {
      const double* src =
          slab.data.data() +
          static_cast<std::size_t>(row - slab.row_lo) * trailing_;
      double* dst = buf + static_cast<std::size_t>(row - lo[0]) * section_row;
      for_each_trailing(
          {dims_.data() + 1, dims_.size() - 1}, lo.subspan(1), hi.subspan(1),
          [&](std::size_t flat, std::size_t packed, std::size_t len) {
            std::copy_n(src + flat, len, dst + packed);
          });
      (owner == rank ? local : remote) +=
          static_cast<std::int64_t>(section_row);
    }
  });
  Slab& my = *slabs_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(my.mutex);
  my.stats.gets += 1;
  my.stats.local_elements += local;
  my.stats.remote_elements += remote;
}

void GlobalArray::put(int rank, std::span<const long> lo,
                      std::span<const long> hi, const double* buf) {
  std::int64_t local = 0, remote = 0;
  std::size_t section_row = 1;
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    section_row *= static_cast<std::size_t>(hi[d] - lo[d] + 1);
  }
  for_each_slab_section(lo, hi, [&](int owner, Slab& slab, long row_lo,
                                    long row_hi) {
    std::lock_guard<std::mutex> lock(slab.mutex);
    for (long row = row_lo; row <= row_hi; ++row) {
      double* dst = slab.data.data() +
                    static_cast<std::size_t>(row - slab.row_lo) * trailing_;
      const double* src =
          buf + static_cast<std::size_t>(row - lo[0]) * section_row;
      for_each_trailing(
          {dims_.data() + 1, dims_.size() - 1}, lo.subspan(1), hi.subspan(1),
          [&](std::size_t flat, std::size_t packed, std::size_t len) {
            std::copy_n(src + packed, len, dst + flat);
          });
      (owner == rank ? local : remote) +=
          static_cast<std::int64_t>(section_row);
    }
  });
  Slab& my = *slabs_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(my.mutex);
  my.stats.puts += 1;
  my.stats.local_elements += local;
  my.stats.remote_elements += remote;
}

void GlobalArray::acc(int rank, std::span<const long> lo,
                      std::span<const long> hi, const double* buf,
                      double alpha) {
  std::int64_t local = 0, remote = 0;
  std::size_t section_row = 1;
  for (std::size_t d = 1; d < dims_.size(); ++d) {
    section_row *= static_cast<std::size_t>(hi[d] - lo[d] + 1);
  }
  for_each_slab_section(lo, hi, [&](int owner, Slab& slab, long row_lo,
                                    long row_hi) {
    std::lock_guard<std::mutex> lock(slab.mutex);
    for (long row = row_lo; row <= row_hi; ++row) {
      double* dst = slab.data.data() +
                    static_cast<std::size_t>(row - slab.row_lo) * trailing_;
      const double* src =
          buf + static_cast<std::size_t>(row - lo[0]) * section_row;
      for_each_trailing(
          {dims_.data() + 1, dims_.size() - 1}, lo.subspan(1), hi.subspan(1),
          [&](std::size_t flat, std::size_t packed, std::size_t len) {
            for (std::size_t i = 0; i < len; ++i) {
              dst[flat + i] += alpha * src[packed + i];
            }
          });
      (owner == rank ? local : remote) +=
          static_cast<std::int64_t>(section_row);
    }
  });
  Slab& my = *slabs_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(my.mutex);
  my.stats.accs += 1;
  my.stats.local_elements += local;
  my.stats.remote_elements += remote;
}

GlobalArray::NbHandle GlobalArray::nbget(int rank, std::span<const long> lo,
                                         std::span<const long> hi,
                                         double* buf) {
  get(rank, lo, hi, buf);
  return NbHandle{true};
}

void GlobalArray::nbwait(NbHandle& handle) { handle.done = true; }

void GlobalArray::fill(double value) {
  for (auto& slab : slabs_) {
    std::lock_guard<std::mutex> lock(slab->mutex);
    std::fill(slab->data.begin(), slab->data.end(), value);
  }
}

GaStats GlobalArray::stats(int rank) const {
  const Slab& slab = *slabs_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(slab.mutex);
  return slab.stats;
}

std::size_t GlobalArray::local_bytes(int rank) const {
  return slabs_[static_cast<std::size_t>(rank)]->data.size() *
         sizeof(double);
}

void GaTeam::parallel(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::string first_error;
  threads.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (const std::exception& error) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.empty()) first_error = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (!first_error.empty()) throw Error("GA team failed: " + first_error);
}

void GaTeam::sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  const int generation = generation_;
  if (++waiting_ == ranks_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != generation; });
  }
}

}  // namespace sia::ga
