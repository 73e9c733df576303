#include "gpu/gpu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "fault/fault_plan.hpp"

namespace dkf::gpu {

namespace {
/// Payload bytes one thread block handles before the kernel adds another.
constexpr std::size_t kBlockPayloadTarget = 64 * 1024;
}  // namespace

Gpu::Gpu(sim::Engine& eng, const hw::NodeSpec& node, int global_id)
    : eng_(&eng),
      node_(&node),
      id_(global_id),
      memory_(node.gpu.arena_bytes, global_id) {
  createStream();  // stream 0: the default stream
}

Gpu::StreamId Gpu::createStream() {
  streams_.push_back(Stream{});
  return streams_.size() - 1;
}

TimeNs Gpu::streamReadyTime(StreamId s) const {
  DKF_CHECK(s < streams_.size());
  return streams_[s].ready;
}

bool Gpu::streamIdle(StreamId s) const {
  return streamReadyTime(s) <= eng_->now();
}

double Gpu::blockBandwidth(double efficiency, std::size_t active) const {
  const double hbm = spec().hbm_bandwidth.bytesPerNs();
  // A single thread block cannot saturate HBM; cap at the per-block peak
  // (two SMs' worth of streaming throughput).
  const double per_block_peak =
      hbm * 2.0 / static_cast<double>(spec().sm_count);
  const double share = hbm / static_cast<double>(std::max<std::size_t>(active, 1));
  return std::min(per_block_peak, share) * efficiency;
}

Gpu::KernelHandle Gpu::launchKernel(StreamId s, std::vector<Op> ops,
                                    OpCompleteFn on_op_complete) {
  DKF_CHECK(s < streams_.size());
  DKF_CHECK(!ops.empty());
  if (faults_ && faults_->failLaunch()) {
    if (tracer_ && tracer_->isEnabled()) {
      const auto track = tracer_->track(
          "gpu" + std::to_string(id_) + ".stream" + std::to_string(s));
      tracer_->instant(track, "launch_failed", eng_->now(), "fault");
    }
    KernelHandle failed;
    failed.start = failed.end = eng_->now();
    failed.failed = true;
    return failed;
  }
  Stream& stream = streams_[s];

  const TimeNs start =
      std::max(eng_->now(), stream.ready) + spec().kernel_fixed_cost;
  const std::size_t slots = spec().totalBlockSlots();

  // Decompose ops into thread blocks (cooperative-group partition, Fig. 6).
  struct Block {
    std::size_t op;
    std::size_t bytes;
    double efficiency;
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::size_t bytes = op.bytes();
    std::size_t nblocks =
        std::clamp<std::size_t>((bytes + kBlockPayloadTarget - 1) / kBlockPayloadTarget,
                                1, slots);
    double run = op.layout ? op.layout->meanBlock() : 0.0;
    if (op.kind == Op::Kind::StridedCopy && op.dst_layout) {
      run = std::min(run, op.dst_layout->meanBlock());
    }
    const double eff = spec().accessEfficiency(run);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = bytes * b / nblocks;
      const std::size_t hi = bytes * (b + 1) / nblocks;
      blocks.push_back(Block{i, hi - lo, eff});
    }
  }

  // Wave-by-wave schedule; remember when each op's last block finishes.
  std::vector<TimeNs> op_complete(ops.size(), start);
  TimeNs t = start;
  std::size_t waves = 0;
  for (std::size_t w = 0; w < blocks.size(); w += slots) {
    const std::size_t active = std::min(slots, blocks.size() - w);
    DurationNs wave_dur = 0;
    for (std::size_t b = w; b < w + active; ++b) {
      const double bw = blockBandwidth(blocks[b].efficiency, active);
      const auto dur = static_cast<DurationNs>(
          std::ceil(static_cast<double>(blocks[b].bytes) / bw));
      wave_dur = std::max(wave_dur, dur);
    }
    t += wave_dur + spec().wave_overhead;
    ++waves;
    for (std::size_t b = w; b < w + active; ++b) {
      op_complete[blocks[b].op] = t;
    }
  }
  const TimeNs end = t;

  stream.ready = end;
  ++kernels_launched_;
  busy_time_ += end - start;

  if (tracer_ && tracer_->isEnabled()) {
    const auto track = tracer_->track(
        "gpu" + std::to_string(id_) + ".stream" + std::to_string(s));
    tracer_->span(track,
                  "kernel[" + std::to_string(ops.size()) + " ops, " +
                      std::to_string(blocks.size()) + " blocks]",
                  start, end, "kernel");
  }

  // Keep the ops (and the fan-in hook) alive until the completion events
  // run the data movement.
  struct KernelCtx {
    std::vector<Op> ops;
    OpCompleteFn on_op;
  };
  auto ctx = std::make_shared<KernelCtx>(
      KernelCtx{std::move(ops), std::move(on_op_complete)});
  // op_complete[] is non-decreasing in op index (blocks are emitted in op
  // order, so a later op's last wave is never earlier). Ops finishing in
  // the same wave used to get back-to-back events with contiguous seqs at
  // one timestamp — nothing could pop between them — so running the whole
  // equal-time run inside one event is order-identical and turns O(ops)
  // events into O(waves).
  for (std::size_t lo = 0; lo < ctx->ops.size();) {
    std::size_t hi = lo + 1;
    while (hi < ctx->ops.size() && op_complete[hi] == op_complete[lo]) ++hi;
    eng_->scheduleAt(op_complete[lo], [ctx, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        Op& op = ctx->ops[i];
        switch (op.kind) {
          case Op::Kind::Pack:
            ddt::packCpu(*op.layout, op.src, op.dst);
            break;
          case Op::Kind::Unpack:
            ddt::unpackCpu(*op.layout, op.src, op.dst);
            break;
          case Op::Kind::StridedCopy:
            ddt::copyStrided(*op.layout, op.src, *op.dst_layout, op.dst);
            break;
        }
        if (op.on_complete) op.on_complete();
        if (ctx->on_op) ctx->on_op(i);
      }
    });
    lo = hi;
  }
  return KernelHandle{start, end, blocks.size(), waves};
}

Gpu::CopyHandle Gpu::memcpyAsync(StreamId s, MemSpan dst, MemSpan src) {
  DKF_CHECK(s < streams_.size());
  DKF_CHECK_MSG(dst.size() >= src.size(),
                "memcpy destination smaller than source");
  Stream& stream = streams_[s];

  // Route: pick the path's latency/bandwidth and its busy-until serializer.
  DurationNs latency;
  double bw;
  TimeNs* busy;
  if (!src.onDevice() && dst.onDevice()) {
    latency = node_->cpu_gpu.latency;
    bw = node_->cpu_gpu.bandwidth.bytesPerNs();
    busy = &h2d_busy_;
  } else if (src.onDevice() && !dst.onDevice()) {
    latency = node_->cpu_gpu.latency;
    bw = node_->cpu_gpu.bandwidth.bytesPerNs();
    busy = &d2h_busy_;
  } else if (src.onDevice() && dst.onDevice() && src.device != dst.device) {
    latency = node_->gpu_gpu.latency;
    bw = node_->gpu_gpu.bandwidth.bytesPerNs();
    busy = &peer_busy_;
  } else if (src.onDevice() && dst.onDevice()) {
    latency = spec().local_copy_latency;
    bw = spec().hbm_bandwidth.bytesPerNs() / 2.0;  // read + write on HBM
    busy = &local_busy_;
  } else {
    latency = node_->host_memcpy_latency;
    bw = node_->host_memcpy_bandwidth.bytesPerNs();
    busy = &local_busy_;
  }

  const TimeNs start = std::max({eng_->now(), stream.ready, *busy});
  const auto dur =
      latency + static_cast<DurationNs>(
                    std::ceil(static_cast<double>(src.size()) / bw));
  const TimeNs end = start + dur;
  stream.ready = end;
  *busy = end;
  ++copies_issued_;
  busy_time_ += dur;

  if (tracer_ && tracer_->isEnabled()) {
    const auto track = tracer_->track(
        "gpu" + std::to_string(id_) + ".stream" + std::to_string(s));
    tracer_->span(track, "memcpy[" + std::to_string(src.size()) + " B]",
                  start, end, "copy");
  }

  eng_->scheduleAt(end, [dst, src] {
    std::memcpy(dst.bytes.data(), src.bytes.data(), src.size());
  });
  return CopyHandle{end};
}

Gpu::EventId Gpu::createEvent() {
  events_.push_back(Event{});
  return events_.size() - 1;
}

void Gpu::eventRecord(EventId e, StreamId s) {
  DKF_CHECK(e < events_.size());
  DKF_CHECK(s < streams_.size());
  events_[e] = Event{std::max(streams_[s].ready, eng_->now()), true};
}

bool Gpu::eventQuery(EventId e) const {
  DKF_CHECK(e < events_.size());
  const Event& ev = events_[e];
  return ev.recorded && eng_->now() >= ev.position;
}

sim::Task<void> Gpu::eventSynchronize(EventId e) {
  DKF_CHECK(e < events_.size());
  const Event ev = events_[e];
  DKF_CHECK_MSG(ev.recorded, "synchronizing an unrecorded event");
  if (ev.position > eng_->now()) {
    co_await eng_->delay(ev.position - eng_->now());
  }
}

sim::Task<void> Gpu::streamSynchronize(StreamId s) {
  DKF_CHECK(s < streams_.size());
  const TimeNs target = streams_[s].ready;
  if (target > eng_->now()) {
    co_await eng_->delay(target - eng_->now());
  }
}

}  // namespace dkf::gpu
