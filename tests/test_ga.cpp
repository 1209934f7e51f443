// Global Arrays layer: distribution arithmetic, patch operations
// across block boundaries, accumulate, and the shared counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/comm.hpp"
#include "ga/global_array.hpp"

namespace pgasq::ga {
namespace {

armci::WorldConfig make_cfg(int ranks) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks = ranks;
  return cfg;
}

TEST(Distribution, RangesPartitionTheMatrix) {
  for (int p : {1, 2, 4, 6, 16}) {
    Distribution2D dist(p, 37, 53);
    EXPECT_EQ(dist.grid_rows() * dist.grid_cols(), p);
    // Row ranges tile [0, rows) exactly.
    std::int64_t expect_lo = 0;
    for (int gr = 0; gr < dist.grid_rows(); ++gr) {
      const auto [lo, hi] = dist.row_range(gr);
      EXPECT_EQ(lo, expect_lo);
      EXPECT_GT(hi, lo);
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 37);
    std::int64_t col_lo = 0;
    for (int gc = 0; gc < dist.grid_cols(); ++gc) {
      const auto [lo, hi] = dist.col_range(gc);
      EXPECT_EQ(lo, col_lo);
      col_lo = hi;
    }
    EXPECT_EQ(col_lo, 53);
  }
}

TEST(Distribution, OwnerConsistentWithRanges) {
  Distribution2D dist(6, 40, 40);
  for (std::int64_t i = 0; i < 40; i += 3) {
    for (std::int64_t j = 0; j < 40; j += 3) {
      const armci::RankId r = dist.owner(i, j);
      const int gr = r / dist.grid_cols();
      const int gc = r % dist.grid_cols();
      const auto [rlo, rhi] = dist.row_range(gr);
      const auto [clo, chi] = dist.col_range(gc);
      EXPECT_GE(i, rlo);
      EXPECT_LT(i, rhi);
      EXPECT_GE(j, clo);
      EXPECT_LT(j, chi);
    }
  }
}

TEST(Distribution, UnevenBlocksHandled) {
  // 10 rows across 3 grid rows: 4, 3, 3.
  Distribution2D dist(3, 10, 10);
  ASSERT_EQ(dist.grid_rows(), 1);  // 3 = 1 x 3 grid
  ASSERT_EQ(dist.grid_cols(), 3);
  const auto [c0lo, c0hi] = dist.col_range(0);
  EXPECT_EQ(c0hi - c0lo, 4);
  const auto [c2lo, c2hi] = dist.col_range(2);
  EXPECT_EQ(c2hi - c2lo, 3);
}

/// The largest block by scanning every block of the grid.
std::int64_t largest_block_by_scan(const Distribution2D& dist) {
  std::int64_t largest = 0;
  for (int gr = 0; gr < dist.grid_rows(); ++gr) {
    for (int gc = 0; gc < dist.grid_cols(); ++gc) {
      const auto [rlo, rhi] = dist.row_range(gr);
      const auto [clo, chi] = dist.col_range(gc);
      largest = std::max(largest, (rhi - rlo) * (chi - clo));
    }
  }
  return largest;
}

TEST(Distribution, LargestBlockIsTheFirst) {
  struct Shape {
    int p;
    std::int64_t rows, cols;
  };
  // Even splits, rows and cols not divisible by the grid, and grids
  // with more grid rows (cols) than the matrix has rows (cols).
  for (const Shape& s : {Shape{1, 5, 5}, Shape{4, 8, 8}, Shape{6, 37, 53},
                         Shape{12, 10, 7}, Shape{16, 3, 40}, Shape{16, 40, 3},
                         Shape{30, 4, 2}, Shape{7, 1, 13}, Shape{64, 9, 100}}) {
    Distribution2D dist(s.p, s.rows, s.cols);
    EXPECT_EQ(dist.max_block_elems(), largest_block_by_scan(dist))
        << s.p << " ranks, " << s.rows << " x " << s.cols;
  }
  Distribution2D members(std::vector<int>{0, 2, 3, 5, 8, 9}, 5, 11);
  EXPECT_EQ(members.max_block_elems(), largest_block_by_scan(members));
}

TEST(GlobalArrayTest, MembersSlabIsTheLargestBlock) {
  // Member-list constructor over a 2 x 3 grid, 5 x 7: blocks 3 or 2
  // rows by 3 or 2 cols, so every rank's slab holds 3 x 3 doubles.
  armci::World world(make_cfg(6));
  world.spmd([](armci::Comm& comm) {
    GlobalArray a(comm, 5, 7, std::vector<int>{0, 1, 2, 3, 4, 5});
    EXPECT_EQ(comm.world().heaps().back()->bytes_per_rank(),
              static_cast<std::size_t>(largest_block_by_scan(a.distribution())) *
                  sizeof(double));
    EXPECT_EQ(largest_block_by_scan(a.distribution()), 9);
    a.sync();
  });
}

TEST(GlobalArrayTest, FillAndReadBack) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    GlobalArray a(comm, 20, 20);
    a.fill_local([](std::int64_t i, std::int64_t j) {
      return static_cast<double>(i) + 0.01 * static_cast<double>(j);
    });
    a.sync();
    // Sample elements owned by various ranks.
    for (std::int64_t i = 0; i < 20; i += 7) {
      for (std::int64_t j = 0; j < 20; j += 7) {
        EXPECT_DOUBLE_EQ(a.read_element(i, j), i + 0.01 * j);
      }
    }
    comm.barrier();
  });
}

TEST(GlobalArrayTest, PutPatchSpanningFourOwners) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    GlobalArray a(comm, 16, 16);  // 2x2 grid -> blocks of 8x8
    a.fill_local(0.0);
    a.sync();
    if (comm.rank() == 0) {
      std::vector<double> patch(8 * 8);
      for (int k = 0; k < 64; ++k) patch[static_cast<std::size_t>(k)] = k + 1;
      a.put(4, 12, 4, 12, patch.data(), 8);  // spans all 4 owners
      comm.fence_all();
      std::vector<double> back(8 * 8, -1);
      a.get(4, 12, 4, 12, back.data(), 8);
      EXPECT_EQ(back, patch);
      // Outside the patch untouched.
      EXPECT_DOUBLE_EQ(a.read_element(0, 0), 0.0);
      EXPECT_DOUBLE_EQ(a.read_element(15, 15), 0.0);
      EXPECT_DOUBLE_EQ(a.read_element(3, 4), 0.0);
    }
    comm.barrier();
  });
}

TEST(GlobalArrayTest, AccumulateFromAllRanksSums) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    GlobalArray a(comm, 12, 12);
    a.fill_local(0.0);
    a.sync();
    std::vector<double> ones(12 * 12, 1.0);
    a.acc(0.5, 0, 12, 0, 12, ones.data(), 12);
    a.sync();  // barrier includes fence_all
    EXPECT_DOUBLE_EQ(a.read_element(5, 5), 0.5 * comm.nprocs());
    comm.barrier();
  });
}

TEST(GlobalArrayTest, GetWithWideLeadingDimension) {
  armci::World world(make_cfg(2));
  world.spmd([](armci::Comm& comm) {
    GlobalArray a(comm, 10, 10);
    a.fill_local([](std::int64_t i, std::int64_t j) { return 100.0 * i + j; });
    a.sync();
    std::vector<double> buf(4 * 20, -1.0);
    a.get(2, 6, 3, 7, buf.data(), 20);  // ld larger than patch width
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        EXPECT_DOUBLE_EQ(buf[static_cast<std::size_t>(r * 20 + c)],
                         100.0 * (2 + r) + (3 + c));
      }
      EXPECT_DOUBLE_EQ(buf[static_cast<std::size_t>(r * 20 + 4)], -1.0);
    }
    comm.barrier();
  });
}

TEST(GlobalArrayTest, PatchValidationRejectsBadRanges) {
  armci::World world(make_cfg(2));
  EXPECT_THROW(world.spmd([](armci::Comm& comm) {
                 GlobalArray a(comm, 8, 8);
                 double buf[4];
                 a.get(6, 10, 0, 2, buf, 2);  // rhi beyond matrix
               }),
               Error);
}

TEST(SharedCounterTest, MonotoneUniqueAcrossRanksAndReset) {
  armci::World world(make_cfg(6));
  std::vector<std::int64_t> seen;
  world.spmd([&](armci::Comm& comm) {
    SharedCounter counter(comm);
    comm.barrier();
    for (int i = 0; i < 5; ++i) seen.push_back(counter.next());
    comm.barrier();
    EXPECT_EQ(counter.read(), 30);
    counter.reset();
    EXPECT_EQ(counter.read(), 0);
    comm.barrier();
  });
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(i));
  }
}

TEST(SharedCounterTest, NonZeroHomeRank) {
  armci::World world(make_cfg(4));
  world.spmd([](armci::Comm& comm) {
    SharedCounter counter(comm, /*home=*/2);
    comm.barrier();
    counter.next();
    comm.barrier();
    EXPECT_EQ(counter.read(), comm.nprocs());
    comm.barrier();
  });
}

}  // namespace
}  // namespace pgasq::ga
