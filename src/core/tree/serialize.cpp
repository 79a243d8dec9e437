// Binary (de)serialization of the prefetch tree.
//
// Format: "PFTR" magic, little-endian u16 version, u64 node count, then a
// preorder walk — the root contributes (weight u64, child count u32) and
// every other node (block u64, weight u64, child count u32).  Children
// appear in the stored descending-weight order, so reconstruction keeps
// the sorted-children invariant by plain appends.
#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tree/prefetch_tree.hpp"
#include "util/binary_io.hpp"

namespace pfp::core::tree {

namespace {

constexpr std::array<char, 4> kMagic = {'P', 'F', 'T', 'R'};
constexpr std::uint16_t kVersion = 1;

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("prefetch-tree stream: ") + what);
}

}  // namespace

void PrefetchTree::serialize(std::ostream& out) const {
  // The image is built in memory and written with one call: a put per
  // byte costs more than the walk itself on trees of 100K+ nodes.
  constexpr std::size_t kHeaderBytes = kMagic.size() + 2 + 8;
  constexpr std::size_t kRootBytes = 8 + 4;
  constexpr std::size_t kNodeBytes = 8 + 8 + 4;
  std::string image;
  image.reserve(kHeaderBytes + kRootBytes + (node_count() - 1) * kNodeBytes);
  image.append(kMagic.data(), kMagic.size());
  util::append_u16(image, kVersion);
  util::append_u64(image, node_count());

  // Preorder via explicit stack (trees can be deep on long traces).
  util::append_u64(image, node(root()).weight);
  util::append_u32(image, static_cast<std::uint32_t>(children(root()).size()));
  std::vector<NodeId> stack(children(root()).rbegin(),
                            children(root()).rend());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    util::append_u64(image, pool_.block(id));
    util::append_u64(image, pool_.weight(id));
    const auto kids = pool_.children(id);
    util::append_u32(image, static_cast<std::uint32_t>(kids.size()));
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

NodeId PrefetchTree::restore_child(NodeId parent, BlockId block,
                                   std::uint64_t weight) {
  const NodeId added = pool_.create(parent, block);
  pool_.hot(added).weight = weight;
  track_new_leaf(added);
  return added;
}

PrefetchTree PrefetchTree::deserialize(std::istream& in, TreeConfig config) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    corrupt("bad magic");
  }
  if (util::read_u16(in) != kVersion) {
    corrupt("unsupported version");
  }
  const std::uint64_t expected_nodes = util::read_u64(in);
  if (!in || expected_nodes == 0) {
    corrupt("truncated header");
  }

  PrefetchTree tree(config);
  tree.pool_.hot(tree.root_).weight = util::read_u64(in);
  const std::uint32_t root_children = util::read_u32(in);

  struct Pending {
    NodeId parent;
    std::uint32_t remaining;
    std::uint64_t last_child_weight;  // descending-order validation
  };
  std::vector<Pending> stack;
  if (root_children > 0) {
    stack.push_back(Pending{tree.root_, root_children, ~0ULL});
  }
  while (!stack.empty()) {
    Pending& top = stack.back();
    if (top.remaining == 0) {
      stack.pop_back();
      continue;
    }
    --top.remaining;
    const BlockId block = util::read_u64(in);
    const std::uint64_t weight = util::read_u64(in);
    const std::uint32_t child_count = util::read_u32(in);
    if (!in) {
      corrupt("truncated body");
    }
    if (weight == 0 || weight > top.last_child_weight ||
        (top.parent != tree.root_ &&
         weight > tree.pool_.weight(top.parent))) {
      corrupt("weight invariant violated");
    }
    if (tree.pool_.find_child(top.parent, block) != kNoNode) {
      corrupt("duplicate edge");
    }
    top.last_child_weight = weight;
    const NodeId parent = top.parent;  // `top` may dangle after push_back
    const NodeId added = tree.restore_child(parent, block, weight);
    if (child_count > 0) {
      stack.push_back(Pending{added, child_count, ~0ULL});
    }
  }
  if (tree.node_count() != expected_nodes) {
    corrupt("node count mismatch");
  }
  return tree;
}

}  // namespace pfp::core::tree
