/**
 * @file
 * NoC topology description for the LRPO control plane.
 *
 * Two fabrics:
 *
 *  - Flat (the default, and the paper's 2-iMC machine): the router owns a
 *    dedicated link to every MC, boundary broadcasts are an O(MCs) fan-out
 *    and bdry/flush-ACKs are all-to-all MC unicasts — O(MCs^2) messages
 *    per region.
 *
 *  - Tree (radix r): MCs are the leaves of a complete r-ary aggregation
 *    tree whose interior nodes are switch stages. Boundary broadcasts
 *    descend the tree one hop latency per level; ACKs ascend it, each
 *    interior node forwarding a single combined ACK once every child
 *    subtree has reported, and the root announcing the completed round
 *    back down (`BdryAllAcked` / `FlushAllAcked`). Per-region message
 *    count drops from O(MCs^2) to O(MCs).
 *
 * `TreeShape` is pure geometry: node numbering, parent/child maps, and
 * per-node leaf coverage sets. Leaves are node ids 0..N-1 (== McId),
 * interior nodes follow, the root is the highest id. With a single MC the
 * shape degenerates to one node that is both leaf and root.
 */

#ifndef LWSP_NOC_TOPOLOGY_HH
#define LWSP_NOC_TOPOLOGY_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/bitset.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/types.hh"

namespace lwsp {
namespace noc {

struct TopologyConfig
{
    enum class Kind { Flat, Tree };

    Kind kind = Kind::Flat;
    unsigned radix = 4;  ///< children per interior node (tree only)

    bool isTree() const { return kind == Kind::Tree; }

    /** "flat" or "tree<radix>" (e.g. "tree4"); parse() inverts this. */
    std::string
    toString() const
    {
        if (kind == Kind::Flat)
            return "flat";
        return "tree" + std::to_string(radix);
    }

    /** @return true and fill @p out on success; false on a bad token. */
    static bool
    parse(const std::string &text, TopologyConfig &out)
    {
        if (text == "flat") {
            out = TopologyConfig{};
            return true;
        }
        if (text.rfind("tree", 0) == 0) {
            unsigned radix = 0;
            if (!parseUnsigned(std::string_view(text).substr(4), radix) ||
                radix < 2 || radix > 1024)
                return false;
            out.kind = Kind::Tree;
            out.radix = radix;
            return true;
        }
        return false;
    }
};

inline bool
operator==(const TopologyConfig &a, const TopologyConfig &b)
{
    return a.kind == b.kind && (a.kind == TopologyConfig::Kind::Flat ||
                                a.radix == b.radix);
}

inline bool
operator!=(const TopologyConfig &a, const TopologyConfig &b)
{
    return !(a == b);
}

/** Geometry of a complete radix-ary aggregation tree over N MC leaves. */
class TreeShape
{
  public:
    static constexpr unsigned invalidNode = ~0u;

    TreeShape(unsigned num_leaves, unsigned radix)
        : numLeaves_(num_leaves), radix_(radix)
    {
        LWSP_ASSERT(num_leaves >= 1, "tree needs at least one leaf");
        LWSP_ASSERT(radix >= 2, "tree radix must be >= 2");

        // Leaves first (node id == McId), then one interior node per
        // group of `radix` consecutive nodes of the level below.
        std::vector<unsigned> level;
        for (unsigned i = 0; i < num_leaves; ++i) {
            level.push_back(i);
            parent_.push_back(invalidNode);
            children_.emplace_back();
        }
        while (level.size() > 1) {
            std::vector<unsigned> next;
            for (std::size_t base = 0; base < level.size(); base += radix) {
                unsigned node = static_cast<unsigned>(parent_.size());
                parent_.push_back(invalidNode);
                children_.emplace_back();
                for (std::size_t k = base;
                     k < std::min(level.size(), base + radix); ++k) {
                    parent_[level[k]] = node;
                    children_[node].push_back(level[k]);
                }
                next.push_back(node);
            }
            level = std::move(next);
        }
        root_ = level.front();

        // Per-node leaf coverage (which MCs live below each node).
        leaves_.resize(parent_.size());
        for (unsigned n = 0; n < parent_.size(); ++n) {
            leaves_[n].reset(num_leaves);
            if (n < num_leaves)
                leaves_[n].set(n);
        }
        // Children always have smaller ids than their parent, so one
        // ascending pass propagates coverage bottom-up.
        for (unsigned n = 0; n < parent_.size(); ++n) {
            for (unsigned c : children_[n]) {
                for (unsigned leaf = 0; leaf < num_leaves; ++leaf) {
                    if (leaves_[c].test(leaf))
                        leaves_[n].set(leaf);
                }
            }
        }
    }

    unsigned numLeaves() const { return numLeaves_; }
    unsigned radix() const { return radix_; }
    unsigned numNodes() const
    {
        return static_cast<unsigned>(parent_.size());
    }
    unsigned root() const { return root_; }
    bool isLeaf(unsigned node) const { return node < numLeaves_; }

    unsigned
    parent(unsigned node) const
    {
        LWSP_ASSERT(node < parent_.size(), "bad tree node");
        return parent_[node];
    }

    const std::vector<unsigned> &
    children(unsigned node) const
    {
        LWSP_ASSERT(node < children_.size(), "bad tree node");
        return children_[node];
    }

    /** MCs reachable below @p node (a leaf covers itself). */
    const DynBitset &
    leavesUnder(unsigned node) const
    {
        LWSP_ASSERT(node < leaves_.size(), "bad tree node");
        return leaves_[node];
    }

    /** Hops from the root down to @p node. */
    unsigned
    depth(unsigned node) const
    {
        unsigned d = 0;
        while (node != root_) {
            node = parent(node);
            ++d;
        }
        return d;
    }

  private:
    unsigned numLeaves_;
    unsigned radix_;
    unsigned root_ = 0;
    std::vector<unsigned> parent_;
    std::vector<std::vector<unsigned>> children_;
    std::vector<DynBitset> leaves_;
};

} // namespace noc
} // namespace lwsp

#endif // LWSP_NOC_TOPOLOGY_HH
