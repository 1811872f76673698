#include "ad/tape.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace dgr::ad {

std::size_t Tape::check(NodeId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.idx) >= node_size_.size()) {
    throw std::out_of_range("Tape: invalid NodeId");
  }
  return static_cast<std::size_t>(id.idx);
}

void Tape::note_regrowth() {
  if (!warm_) return;
  static obs::Counter& regrowth = obs::metrics().counter("ad.arena_regrowth");
  regrowth.add(1);
}

namespace {
// Cache colouring for arena slices. Large nodes are usually whole multiples
// of a page (e.g. one float per gcell edge), so packing them back-to-back
// makes consecutive slices 4K-congruent — every load in a streaming kernel
// then false-aliases the store stream (the classic 4K-aliasing stall; bits
// [11:0] of the addresses match) and the kernels run 2-3x slower. Staggering
// each slice start by a rotating multiple of 64B keeps adjacent operands at
// least a cache line apart modulo 4K. The stagger depends only on the record
// order, so layout — and therefore every numeric result — is bitwise
// identical across worker counts and across re-recordings of the same graph.
constexpr std::size_t kColorQuantum = 16;  // floats; 64 bytes
constexpr std::size_t kColorCycle = 8;

std::size_t colored_offset(std::size_t used, std::uint32_t& color) {
  const std::size_t aligned = (used + kColorQuantum - 1) & ~(kColorQuantum - 1);
  const std::size_t stagger = ((color++ % kColorCycle) + 1) * kColorQuantum;
  return aligned + stagger;
}
}  // namespace

std::uint32_t Tape::grow_arena(std::size_t size) {
  const std::size_t off = colored_offset(arena_used_, color_);
  const std::size_t needed = off + size;
  if (needed > values_.capacity() || needed > grads_.capacity()) note_regrowth();
  // resize (not reserve) so .data() slices are addressable; once capacity
  // covers the steady-state graph these are O(1) bookkeeping.
  if (needed > values_.size()) values_.resize(needed);
  if (needed > grads_.size()) grads_.resize(needed);
  arena_used_ = needed;
  return static_cast<std::uint32_t>(off);
}

NodeId Tape::make_node_uninit(std::size_t size) {
  const std::uint32_t off = grow_arena(size);
  if (node_size_.size() == node_size_.capacity()) note_regrowth();
  node_offset_.push_back(off);
  node_size_.push_back(static_cast<std::uint32_t>(size));
  return NodeId{static_cast<std::int32_t>(node_size_.size() - 1)};
}

NodeId Tape::make_node(std::size_t size) {
  NodeId id = make_node_uninit(size);
  std::fill_n(values_.data() + node_offset_.back(), size, 0.0f);
  return id;
}

NodeId Tape::input(const std::vector<float>& value) {
  return input(value.data(), value.size());
}

NodeId Tape::input(const float* data, std::size_t size) {
  NodeId id = make_node_uninit(size);
  std::copy(data, data + size, values_.data() + node_offset_.back());
  return id;
}

std::uint32_t Tape::own_floats(const float* data, std::size_t n) {
  const std::uint32_t off = alloc_scratch_floats(n);
  std::copy(data, data + n, float_pool_.data() + off);
  return off;
}

std::uint32_t Tape::alloc_scratch_floats(std::size_t n) {
  // Same colouring as the value arena: a kernel's scratch (e.g. the fused
  // overflow activations) streams right next to same-sized pool weights.
  const std::size_t off = colored_offset(float_pool_.size(), pool_color_);
  if (off + n > float_pool_.capacity()) note_regrowth();
  float_pool_.resize(off + n);
  return static_cast<std::uint32_t>(off);
}

std::uint32_t Tape::own_ints(const std::int32_t* data, std::size_t n) {
  const std::size_t off = int_pool_.size();
  if (off + n > int_pool_.capacity()) note_regrowth();
  int_pool_.resize(off + n);
  std::copy(data, data + n, int_pool_.data() + off);
  return static_cast<std::uint32_t>(off);
}

void Tape::push_record(const OpRecord& record) {
  if (records_.size() == records_.capacity()) note_regrowth();
  records_.push_back(record);
}

void Tape::backward(NodeId root) {
  if (node_size_[check(root)] != 1) {
    throw std::invalid_argument("Tape::backward: root must be scalar");
  }
  // Lazy grad zeroing: the double arena is untouched by the forward pass, so
  // a forward-only tape never pays for it; one contiguous memset here beats
  // the per-node zero fills of the old AoS layout.
  std::memset(grads_.data(), 0, arena_used_ * sizeof(double));
  grads_[node_offset_[static_cast<std::size_t>(root.idx)]] = 1.0;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    detail::run_backward(*this, *it);
  }
}

void Tape::reset() {
  // A tape only becomes "warm" once it has actually held a graph; resetting
  // a fresh tape (the solver resets before every record, including the
  // first) must not turn the first recording's growth into regrowth.
  if (!node_size_.empty()) warm_ = true;
  node_offset_.clear();
  node_size_.clear();
  float_pool_.clear();
  int_pool_.clear();
  records_.clear();
  arena_used_ = 0;
  // Colour counters restart so a same-shape re-record reproduces the exact
  // same layout — required for the zero-malloc steady state (offsets past
  // the high-water mark would otherwise drift between iterations).
  color_ = 0;
  pool_color_ = 0;
  // values_/grads_ keep their size (== capacity high-water): grow_arena only
  // resizes past the previous peak, so a same-shape re-record allocates
  // nothing.
}

std::size_t Tape::memory_bytes() const {
  return values_.capacity() * sizeof(float) + grads_.capacity() * sizeof(double) +
         float_pool_.capacity() * sizeof(float) +
         int_pool_.capacity() * sizeof(std::int32_t) +
         records_.capacity() * sizeof(OpRecord) +
         node_offset_.capacity() * sizeof(std::uint32_t) +
         node_size_.capacity() * sizeof(std::uint32_t);
}

}  // namespace dgr::ad
