#include "probes.hpp"

#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "capture/array_log.hpp"
#include "durable/durable_heap.hpp"
#include "stm/stm.hpp"

namespace capbench {
namespace {

using cstm::AllocLogKind;
using cstm::Tx;
using cstm::TxConfig;

/// Makes the compiler treat @p v as used and memory as clobbered, so the
/// timed loads and stores cannot be folded away.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// Captured blocks live in the transaction while a probe runs: as many as
// the array log holds, so every log is populated and none overflows.
constexpr std::size_t kBlocks = cstm::ArrayAllocLog::kCapacity;
constexpr std::size_t kBlockWords = 1024 / kBlocks;
using Blocks = std::array<std::uint64_t*, kBlocks>;

Blocks alloc_blocks(Tx& tx) {
  Blocks b{};
  for (auto& p : b) {
    p = static_cast<std::uint64_t*>(
        cstm::tx_malloc(tx, kBlockWords * sizeof(std::uint64_t)));
    std::memset(p, 0, kBlockWords * sizeof(std::uint64_t));
  }
  return b;
}

void free_blocks(Tx& tx, const Blocks& b) {
  for (std::uint64_t* p : b) cstm::tx_free(tx, p);
}

class Prober {
 public:
  Prober(int reps, Metrics& out) : reps_(reps), out_(out) {}

  /// Times @p iters calls of @p body under @p cfg, reps_ times, and records
  /// the median ns per op; one call does @p ops_per_call ops.
  template <typename F>
  void measure(const std::string& name, const TxConfig& cfg, int iters,
               int ops_per_call, F&& body) {
    cstm::set_global_config(cfg);
    for (int i = 0; i < iters / 8 + 1; ++i) body();
    std::vector<double> ns;
    for (int r = 0; r < reps_; ++r) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < iters; ++i) body();
      ns.push_back(static_cast<double>(now_ns() - t0) /
                   (static_cast<double>(iters) * ops_per_call));
    }
    out_[name] = Metric{quantile(ns, 0.5), "ns", ns.size()};
  }

 private:
  int reps_;
  Metrics& out_;
};

}  // namespace

Metrics run_probes(int reps) {
  using cstm::atomic;
  using cstm::kAutoSite;
  using cstm::tm_read;
  using cstm::tm_write;

  Metrics m;
  Prober p(reps, m);
  // Shared words allocated before any probe transaction: never captured.
  std::vector<std::uint64_t> shared(1024, 1);
  std::uint64_t* const sh = shared.data();
  std::uint64_t sink = 0;

  // -- stm: full barriers and whole transactions under the baseline plan ---
  const TxConfig base = TxConfig::baseline();
  p.measure("stm.read_full_ns", base, 200, 1024, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 1024; ++i) sink += tm_read(tx, &sh[i]);
    });
    keep(sink);
  });
  p.measure("stm.write_full_ns", base, 200, 1024, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 1024; ++i) tm_write(tx, &sh[i], sink + i);
    });
  });
  p.measure("stm.tx_empty_ns", base, 20000, 1, [&] { atomic([](Tx&) {}); });
  p.measure("stm.tx_ro64_ns", base, 3000, 1, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 64; ++i) sink += tm_read(tx, &sh[i]);
    });
    keep(sink);
  });
  p.measure("stm.tx_w64_ns", base, 3000, 1, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 64; ++i) tm_write(tx, &sh[i], sink + i);
    });
  });

  // -- capture: checks that miss and hit, per allocation-log structure -----
  const std::pair<AllocLogKind, const char*> logs[] = {
      {AllocLogKind::kTree, "tree"},
      {AllocLogKind::kArray, "array"},
      {AllocLogKind::kFilter, "filter"}};
  for (const auto& [kind, tag] : logs) {
    const TxConfig cfg = TxConfig::runtime_rw(kind);
    const std::string suffix = std::string(".") + tag;
    p.measure("capture.read_miss_ns" + suffix, cfg, 200, 1024, [&] {
      atomic([&](Tx& tx) {
        const Blocks b = alloc_blocks(tx);
        for (std::size_t i = 0; i < 1024; ++i) {
          sink += tm_read(tx, &sh[i], kAutoSite);
        }
        free_blocks(tx, b);
      });
      keep(sink);
    });
    p.measure("capture.write_miss_ns" + suffix, cfg, 200, 1024, [&] {
      atomic([&](Tx& tx) {
        const Blocks b = alloc_blocks(tx);
        for (std::size_t i = 0; i < 1024; ++i) {
          tm_write(tx, &sh[i], sink + i, kAutoSite);
        }
        free_blocks(tx, b);
      });
    });
    p.measure("capture.read_hit_heap_ns" + suffix, cfg, 200, 2048, [&] {
      atomic([&](Tx& tx) {
        const Blocks b = alloc_blocks(tx);
        for (int round = 0; round < 2; ++round) {
          for (std::uint64_t* blk : b) {
            for (std::size_t i = 0; i < kBlockWords; ++i) {
              sink += tm_read(tx, &blk[i], kAutoSite);
            }
          }
        }
        free_blocks(tx, b);
      });
      keep(sink);
    });
    p.measure("capture.write_hit_heap_ns" + suffix, cfg, 200, 2048, [&] {
      atomic([&](Tx& tx) {
        const Blocks b = alloc_blocks(tx);
        for (int round = 0; round < 2; ++round) {
          for (std::uint64_t* blk : b) {
            for (std::size_t i = 0; i < kBlockWords; ++i) {
              tm_write(tx, &blk[i], sink + i, kAutoSite);
            }
          }
        }
        free_blocks(tx, b);
      });
    });
  }
  const TxConfig rw_tree = TxConfig::runtime_rw();
  p.measure("capture.read_hit_stack_ns", rw_tree, 200, 2048, [&] {
    atomic([&](Tx& tx) {
      std::uint64_t local[256];
      std::memset(local, 0, sizeof(local));
      keep(&local[0]);
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < 256; ++i) {
          sink += tm_read(tx, &local[i], kAutoSite);
        }
        keep(sink);
      }
    });
  });
  p.measure("capture.write_hit_stack_ns", rw_tree, 200, 2048, [&] {
    atomic([&](Tx& tx) {
      std::uint64_t local[256];
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < 256; ++i) {
          tm_write(tx, &local[i], sink + i, kAutoSite);
        }
        keep(&local[0]);
      }
    });
  });

  // -- txmalloc: allocate + free inside a transaction, with log insert and
  // erase (.none: the baseline plan keeps no log) --------------------------
  const auto alloc_free = [&] {
    atomic([&](Tx& tx) {
      for (int round = 0; round < 8; ++round) {
        void* q[4];
        for (void*& b : q) b = cstm::tx_malloc(tx, 64);
        for (void* b : q) cstm::tx_free(tx, b);
      }
    });
  };
  for (const auto& [kind, tag] : logs) {
    p.measure(std::string("txmalloc.alloc_free_ns.") + tag,
              TxConfig::runtime_rw(kind), 1000, 32, alloc_free);
  }
  p.measure("txmalloc.alloc_free_ns.none", base, 1000, 32, alloc_free);

  // -- txir: statically elided barriers under the compiler plan ------------
  const TxConfig compiler = TxConfig::compiler();
  p.measure("txir.read_static_ns", compiler, 200, 1024, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 1024; ++i) {
        sink += tm_read(tx, &sh[i], cstm::kAutoStaticSite);
      }
    });
    keep(sink);
  });
  p.measure("txir.write_static_ns", compiler, 200, 2048, [&] {
    atomic([&](Tx& tx) {
      const Blocks b = alloc_blocks(tx);
      for (int round = 0; round < 2; ++round) {
        for (std::uint64_t* blk : b) {
          for (std::size_t i = 0; i < kBlockWords; ++i) {
            tm_write(tx, &blk[i], sink + i, cstm::kAutoCapturedSite);
          }
        }
      }
      free_blocks(tx, b);
    });
  });

  // -- txbatch: an empty op, merged 16 to a flush --------------------------
  const TxConfig stream_cfg = TxConfig::runtime_rw(AllocLogKind::kFilter);
  {
    cstm::txbatch::BatcherOptions opts;
    opts.max_batch = 16;
    cstm::txbatch::Batcher batcher(opts);
    p.measure("txbatch.op_ns", stream_cfg, 500, 16, [&] {
      for (int i = 0; i < 16; ++i) batcher.enqueue([](Tx&) {});
    });
    batcher.drain();
  }

  // -- durable: redo-logged commits and a captured block written back ------
  const TxConfig durable = stream_cfg.with_durable();
  p.measure("durable.tx_1w_ns", durable, 2000, 1, [&] {
    atomic([&](Tx& tx) { tm_write(tx, &sh[0], ++sink); });
  });
  p.measure("durable.tx_64w_ns", durable, 500, 1, [&] {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < 64; ++i) tm_write(tx, &sh[i], sink + i);
    });
  });
  if (cstm::dur::DurableHeap* heap = cstm::dur::DurableHeap::active()) {
    // The heap's bump allocator never frees: 100 x 512 B per repetition.
    p.measure("durable.tx_64w_captured_ns", durable, 100, 1, [&] {
      atomic([&](Tx& tx) {
        auto* blk = static_cast<std::uint64_t*>(heap->alloc(tx, 512));
        for (std::size_t i = 0; i < 64; ++i) {
          tm_write(tx, &blk[i], sink + i, kAutoSite);
        }
      });
    });
  }
  cstm::set_global_config(base);
  keep(sink);
  return m;
}

}  // namespace capbench
