// Shards with a pool RecordFrame could never build, for the decoder's
// pool checks. Each forged payload carries a freshly computed hash, so
// the header size/hash checks pass and only the pool checks can catch
// the defect.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "telemetry/frame.hpp"
#include "telemetry/shard.hpp"

namespace gpuvar {

enum class PoolDefect {
  kDuplicateGpuIndex,    ///< pool entry 1 repeats entry 0's gpu_index
  kOutOfOrderFirstUse,   ///< the first row references pool id 1
  kUnreferencedEntry,    ///< an extra pool entry no row references
};

/// Serializes `frame` as shard `bucket_index` with `defect` injected
/// into its pool or id column. The frame needs at least two GPUs. The
/// header's stats block comes from `frame`; its pool count, payload
/// size and payload hash are recomputed for the forged payload.
inline std::string forge_pool_defect(const RecordFrame& frame,
                                     PoolDefect defect,
                                     std::uint64_t bucket_index) {
  std::vector<GpuRef> pool(frame.gpus().begin(), frame.gpus().end());
  std::vector<std::uint32_t> ids(frame.gpu_ids().begin(),
                                 frame.gpu_ids().end());
  switch (defect) {
    case PoolDefect::kDuplicateGpuIndex:
      pool[1].gpu_index = pool[0].gpu_index;
      break;
    case PoolDefect::kOutOfOrderFirstUse:
      // Relabel ids 0 <-> 1: the same rows, but id 1 is introduced first.
      std::swap(pool[0], pool[1]);
      for (auto& id : ids) id = id == 0 ? 1 : id == 1 ? 0 : id;
      break;
    case PoolDefect::kUnreferencedEntry:
      pool.push_back(pool.back());
      pool.back().gpu_index += 1000000;
      break;
  }

  std::string payload;
  for (const GpuRef& g : pool) {
    binio::append_u64(payload, static_cast<std::uint64_t>(g.gpu_index));
    for (int v : {g.loc.node, g.loc.gpu, g.loc.cabinet, g.loc.row,
                  g.loc.column, g.loc.node_in_group}) {
      binio::append_i32(payload, v);
    }
    binio::append_bytes(payload, g.loc.name);
  }
  for (std::uint32_t id : ids) binio::append_u32(payload, id);
  for (std::int32_t run : frame.run_indices()) binio::append_i32(payload, run);
  for (std::int16_t day : frame.days_of_week()) binio::append_i16(payload, day);
  for (std::span<const double> col :
       {frame.perf_ms(), frame.freq_mhz(), frame.power_w(), frame.temp_c(),
        frame.fu_util(), frame.dram_util(), frame.mem_stall_frac(),
        frame.exec_stall_frac()}) {
    for (double v : col) binio::append_f64(payload, v);
  }

  // Header layout: u32 magic, u16 version, then u64 bucket, rows, pool,
  // payload bytes, payload hash (offsets 6, 14, 22, 30, 38), then stats.
  std::string header = serialize_frame_shard(frame, bucket_index);
  header.resize(kFrameShardHeaderBytes);
  const auto put_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::string le;
    binio::append_u64(le, v);
    header.replace(offset, le.size(), le);
  };
  put_u64(22, pool.size());
  put_u64(30, payload.size());
  put_u64(38, binio::fnv1a64(payload));
  return header + payload;
}

}  // namespace gpuvar
